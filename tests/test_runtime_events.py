"""StageEvent observability: emission, aggregation, sink parity."""

import numpy as np
import pytest

from repro.attacks.base import AttackKind
from repro.core.pipeline import (
    BatchAnalysisItem,
    DefensePipeline,
    PIPELINE_STAGES,
)
from repro.core.stages import (
    FALLBACK_DEADLINE_SKIP,
    FALLBACK_FULL_RECORDING,
)
from repro.errors import SignalError
from repro.eval.campaign import CampaignConfig, DetectorBank
from repro.eval.participants import ParticipantPool
from repro.eval.reporting import (
    format_runner_stats,
    format_service_metrics,
)
from repro.eval.rooms import ROOM_A
from repro.eval.runner import CampaignRunner
from repro.phonemes.corpus import SyntheticCorpus
from repro.runtime import (
    StageEvent,
    StageEventAggregator,
    capture_stage_events,
    emit_event,
)
from repro.fleet import FleetMetrics, ServiceShard
from repro.serve import PipelineSpec, ServiceConfig, VerificationService
from repro.serve.metrics import ServiceEvents, ServiceMetrics
from repro.utils.stats import percentile_values
from repro.dsp.generators import white_noise

RATE = 16_000.0


@pytest.fixture()
def pipeline():
    return DefensePipeline(segmenter=None)


@pytest.fixture()
def recordings():
    rng = np.random.default_rng(5)
    burst = white_noise(1.0, RATE, amplitude=0.05, rng=rng)
    return burst, burst[400:].copy()


class _TinySegmenter:
    """Stub segmenter yielding one sub-millisecond segment."""

    def segments(self, audio):
        return [(0.0, 0.001)]


class TestPipelineEmission:
    def test_analyze_emits_every_stage_in_order(
        self, pipeline, recordings
    ):
        va, wearable = recordings
        with capture_stage_events() as captured:
            verdict, timings = pipeline.analyze_timed(
                va, wearable, rng=0
            )
        stages = [
            event.stage for event in captured.events
            if event.scope == "pipeline"
        ]
        assert tuple(stages) == PIPELINE_STAGES
        assert set(timings) == set(PIPELINE_STAGES)
        assert all(
            event.ok and event.wall_s >= 0.0
            for event in captured.events
        )

    def test_deadline_skip_annotation(self, pipeline, recordings):
        va, wearable = recordings
        with capture_stage_events() as captured:
            pipeline.analyze(va, wearable, rng=0, skip_segmentation=True)
        segment_events = [
            e for e in captured.events if e.stage == "segment"
        ]
        assert len(segment_events) == 1
        assert segment_events[0].fallback == FALLBACK_DEADLINE_SKIP

    def test_full_recording_annotation(self, recordings):
        va, wearable = recordings
        pipeline = DefensePipeline(segmenter=_TinySegmenter())
        with capture_stage_events() as captured:
            pipeline.analyze(va, wearable, rng=0)
        segment_events = [
            e for e in captured.events if e.stage == "segment"
        ]
        assert segment_events[0].fallback == FALLBACK_FULL_RECORDING

    def test_failing_stage_emits_error_event(self, pipeline):
        with capture_stage_events() as captured:
            with pytest.raises(SignalError):
                pipeline.analyze(np.zeros(0), np.zeros(0), rng=0)
        errors = [e for e in captured.events if e.error is not None]
        assert len(errors) == 1
        assert errors[0].error == "SignalError"
        assert not errors[0].ok

    def test_instance_sink_receives_events(self, recordings):
        va, wearable = recordings
        sink = StageEventAggregator()
        pipeline = DefensePipeline(segmenter=None, sink=sink)
        pipeline.analyze(va, wearable, rng=0)
        assert {e.stage for e in sink.events} == set(PIPELINE_STAGES)

    def test_instance_and_ambient_sink_no_double_delivery(self):
        sink = StageEventAggregator()
        event = StageEvent(stage="sync", wall_s=0.1)
        with capture_stage_events(sink):
            emit_event(event, sink=sink)
        assert len(sink.events) == 1

    def test_batch_outcomes_carry_events(self, pipeline, recordings):
        va, wearable = recordings
        items = [
            BatchAnalysisItem(va_audio=va, wearable_audio=wearable, rng=i)
            for i in range(2)
        ]
        outcomes = pipeline.analyze_batch(items)
        for outcome in outcomes:
            assert outcome.ok
            stages = {
                e.stage for e in outcome.events
                if e.scope == "pipeline"
            }
            assert stages == set(PIPELINE_STAGES)


class TestAggregator:
    def _events(self):
        return [
            StageEvent(stage="sync", wall_s=0.010),
            StageEvent(stage="sync", wall_s=0.030),
            StageEvent(
                stage="segment", wall_s=0.0, fallback="deadline-skip"
            ),
            StageEvent(stage="detect", wall_s=0.020, error="SignalError"),
        ]

    def test_timings_latest_ok_per_stage(self):
        aggregator = StageEventAggregator()
        for event in self._events():
            aggregator.emit(event)
        timings = aggregator.timings()
        assert timings["sync"] == 0.030
        assert "detect" not in timings  # errored events excluded

    def test_stage_totals_and_counts(self):
        aggregator = StageEventAggregator()
        for event in self._events():
            aggregator.emit(event)
        assert aggregator.stage_totals()["sync"] == pytest.approx(0.040)
        assert aggregator.fallback_counts() == {
            "segment:deadline-skip": 1
        }
        assert aggregator.error_counts() == {"detect:SignalError": 1}

    def test_summaries_use_shared_percentiles(self):
        aggregator = StageEventAggregator()
        for wall in (0.010, 0.020, 0.030):
            aggregator.emit(StageEvent(stage="sync", wall_s=wall))
        summary = aggregator.summarize()["sync"]
        assert summary.count == 3
        assert summary.p50_s == 0.020

    def test_events_are_picklable(self):
        import pickle

        event = StageEvent(
            stage="segment", wall_s=0.5, fallback="full-recording"
        )
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event


@pytest.fixture(scope="module")
def campaign_stats():
    pool = ParticipantPool(n_participants=2, seed=41)
    detectors = DetectorBank(segmenter=None, include_baselines=False)
    config = CampaignConfig(
        n_commands_per_participant=1, n_attacks_per_kind=1, seed=42
    )
    corpus = SyntheticCorpus(speakers=pool.speakers, seed=config.seed)
    result = CampaignRunner(n_workers=1).run(
        [ROOM_A], pool, detectors, [AttackKind.REPLAY], config,
        corpus=corpus,
    )
    return result.stats


class TestSinkParity:
    """Acceptance: the same run's stage set must reach both reporting
    surfaces — serve metrics and campaign stats — identically."""

    def test_stage_set_parity_between_serve_and_eval(
        self, pipeline, recordings, campaign_stats
    ):
        va, wearable = recordings
        with capture_stage_events() as captured:
            _, timings = pipeline.analyze_timed(va, wearable, rng=0)
        events = ServiceEvents()
        events.extend(captured.events)
        events.emit(
            StageEvent("served", sum(timings.values()), scope="serve")
        )
        snapshot = ServiceMetrics.from_events(events)
        serve_stages = set(snapshot.stage_latency)
        eval_stages = set(campaign_stats.stage_totals)
        assert serve_stages == set(PIPELINE_STAGES)
        assert eval_stages == set(PIPELINE_STAGES)
        assert serve_stages == eval_stages
        # The fleet view: a shard whose service recorded the same
        # stream reports the same stage set through FleetMetrics.
        service = VerificationService(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(backpressure="reject"),
        )
        service.metrics_collector.extend(events.events)
        fleet = FleetMetrics.from_events(
            StageEventAggregator(),
            {"shard-0": ServiceShard("shard-0", service)},
        )
        shard_view = fleet.shards["shard-0"].service
        assert set(shard_view.stage_latency) == serve_stages
        assert shard_view.stage_latency == snapshot.stage_latency
        assert fleet.stage_fallbacks == snapshot.stage_fallbacks

    def test_stage_latency_matches_timing_dict_path_bitwise(
        self, pipeline, recordings
    ):
        """Stage rows computed from the recorded events equal the
        percentiles of the per-request timing dicts (the values each
        response's ``stage_timings_s`` carries), bit for bit."""
        va, wearable = recordings
        events = ServiceEvents()
        timing_dicts = []
        for seed in range(5):
            with capture_stage_events() as captured:
                _, timings = pipeline.analyze_timed(
                    va, wearable, rng=seed, skip_segmentation=seed == 3
                )
            events.extend(captured.events)
            timing_dicts.append(timings)
        outcomes = pipeline.analyze_batch(
            [
                BatchAnalysisItem(va_audio=va, wearable_audio=wearable, rng=i)
                for i in range(3)
            ]
        )
        for outcome in outcomes:
            events.extend(outcome.events)
            timing_dicts.append(outcome.timings)
        snapshot = ServiceMetrics.from_events(events)
        assert set(snapshot.stage_latency) == set(PIPELINE_STAGES)
        for stage in PIPELINE_STAGES:
            walls = [timings[stage] for timings in timing_dicts]
            p50, p95, p99 = percentile_values(walls, (50, 95, 99))
            summary = snapshot.stage_latency[stage]
            assert summary.count == len(walls) == 8
            assert (summary.p50_s, summary.p95_s, summary.p99_s) == (
                float(p50),
                float(p95),
                float(p99),
            )

    def test_campaign_units_record_stage_seconds(self, campaign_stats):
        for unit in campaign_stats.units:
            assert set(unit.stage_s) == set(PIPELINE_STAGES)
            assert all(v >= 0.0 for v in unit.stage_s.values())

    def test_runner_stats_formatting_includes_stages(
        self, campaign_stats
    ):
        text = format_runner_stats(campaign_stats)
        assert "stages: " in text
        for stage in PIPELINE_STAGES:
            assert stage in text

    def test_service_metrics_formatting_includes_fallbacks(
        self, pipeline, recordings
    ):
        va, wearable = recordings
        with capture_stage_events() as captured:
            _, timings = pipeline.analyze_timed(
                va, wearable, rng=0, skip_segmentation=True
            )
        events = ServiceEvents()
        events.extend(captured.events)
        events.emit(
            StageEvent("served", sum(timings.values()), scope="serve")
        )
        events.emit(StageEvent("degraded", 0.0, scope="serve"))
        snapshot = ServiceMetrics.from_events(events)
        assert snapshot.stage_fallbacks == {
            "segment:deadline-skip": 1
        }
        text = format_service_metrics(snapshot)
        assert "fallbacks: segment:deadline-skip x1" in text
