"""One metrics surface: every per-layer snapshot is a view over a
StageEventAggregator, rendered by one set of helpers."""

import time

import numpy as np
import pytest

from repro.eval.reporting import (
    format_latency_table,
    format_loadgen_report,
    format_service_metrics,
    ordered_stages,
)
from repro.fleet import (
    FleetConfig,
    FleetFrontDoor,
    FleetMetrics,
    FleetRequest,
    FleetResponse,
    format_fleet_metrics,
)
from repro.runtime import LatencySummary, StageEvent, StageEventAggregator
from repro.serve import (
    LoadgenReport,
    PipelineSpec,
    RequestStatus,
    ServiceConfig,
    ServiceEvents,
    ServiceMetrics,
    VerificationRequest,
    VerificationResponse,
    VerificationService,
    WarmWorkerPool,
)


@pytest.fixture()
def slow_warmup(monkeypatch):
    """Every worker pool takes at least 0.2 s to warm up."""
    warm = WarmWorkerPool.start

    def slow_warm(pool):
        time.sleep(0.2)
        warm(pool)

    monkeypatch.setattr(WarmWorkerPool, "start", slow_warm)


class TestMetricsClock:
    """``wall_s`` / ``throughput_rps`` measure serving only: neither the
    gap after construction nor pool warm-up counts."""

    def test_service_clock_starts_at_start(self, slow_warmup):
        service = VerificationService(
            PipelineSpec(use_segmenter=False), ServiceConfig(n_workers=1)
        )
        time.sleep(0.3)
        assert service.metrics().wall_s == 0.0
        entered = time.monotonic()
        rng = np.random.default_rng(0)
        va = rng.normal(0.0, 0.1, 8_000)
        with service:
            service.verify(
                VerificationRequest(va_audio=va, wearable_audio=va, seed=0)
            )
            metrics = service.metrics()
        elapsed = time.monotonic() - entered
        # The 0.2 s warm-up ran before the clock started.
        assert 0.0 < metrics.wall_s <= elapsed - 0.2
        assert metrics.throughput_rps == pytest.approx(
            1.0 / metrics.wall_s
        )

    def test_front_door_clock_starts_at_start(
        self, slow_warmup, stub_shard_factory
    ):
        fleet = FleetFrontDoor(
            stub_shard_factory(),
            FleetConfig(n_shards=2, autoscale_interval_s=0.0),
        )
        time.sleep(0.3)
        assert fleet.metrics().wall_s == 0.0
        entered = time.monotonic()
        audio = np.zeros(160)
        with fleet:
            fleet.verify(
                FleetRequest(
                    user_id="user-1", va_audio=audio, wearable_audio=audio
                )
            )
            metrics = fleet.metrics()
        elapsed = time.monotonic() - entered
        assert metrics.n_served == 1
        # Both shards' 0.2 s warm-ups ran before the clock started.
        assert 0.0 < metrics.wall_s <= elapsed - 0.4
        assert metrics.throughput_rps == pytest.approx(
            1.0 / metrics.wall_s
        )

    def test_aggregator_clock_keeps_first_start(self):
        events = StageEventAggregator()
        assert events.wall_s == 0.0
        events.start_clock()
        time.sleep(0.02)
        events.start_clock()
        assert events.wall_s >= 0.02


def _serve(events, stage, wall_s=0.0, **kwargs):
    events.emit(StageEvent(stage, wall_s, scope="serve", **kwargs))


class TestServiceView:
    def test_counts_and_latencies_come_from_serve_events(self):
        events = ServiceEvents()
        for stage in ("submitted",) * 4 + ("rejected", "shed", "failed"):
            _serve(events, stage)
        _serve(events, "batch", batch_size=3)
        _serve(events, "served", 0.25)
        _serve(events, "queue-wait", 0.05)
        _serve(events, "degraded")
        metrics = ServiceMetrics.from_events(events, queue_depth=2)
        assert (
            metrics.n_submitted,
            metrics.n_served,
            metrics.n_degraded,
            metrics.n_rejected,
            metrics.n_shed,
            metrics.n_failed,
        ) == (4, 1, 1, 1, 1, 1)
        assert metrics.n_resolved == metrics.n_submitted
        assert (metrics.n_batches, metrics.mean_batch_size) == (1, 3.0)
        assert (events.n_batches, events.n_batched_requests) == (1, 3)
        assert metrics.queue_depth == 2
        assert metrics.total_latency == LatencySummary.from_samples([0.25])
        assert metrics.queue_wait == LatencySummary.from_samples([0.05])
        # Outcome events are not stage rows, nor fallbacks.
        assert metrics.stage_latency == {}
        assert metrics.stage_fallbacks == {}

    def test_pool_demotion_is_a_service_fallback(self, monkeypatch):
        """A process pool that cannot start demotes to threads; the
        runtime's ladder event reaches the service's metrics."""
        from repro.runtime import ProcessPoolRuntime

        def no_processes(runtime):
            raise OSError("process pools unavailable")

        monkeypatch.setattr(ProcessPoolRuntime, "start", no_processes)
        with VerificationService(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(n_workers=1, worker_mode="process"),
        ) as service:
            assert service.realized_worker_mode == "thread"
            metrics = service.metrics()
        assert metrics.stage_fallbacks == {"runtime.start:thread": 1}

    def test_live_counters_track_later_events(self):
        events = ServiceEvents()
        before = events.n_batches
        _serve(events, "batch", batch_size=2)
        _serve(events, "batch", batch_size=4)
        assert events.n_batches - before == 2
        assert events.n_batched_requests == 6


class TestFleetView:
    def test_counts_come_from_fleet_events(self):
        events = StageEventAggregator()
        for stage in (
            ["routed"] * 6
            + ["served", "degraded", "served", "rerouted"]
            + ["shed-slo", "shed", "rejected", "failed"]
        ):
            events.emit(StageEvent(stage, 0.1, scope="fleet"))
        metrics = FleetMetrics.from_events(events)
        assert metrics.n_routed == 6
        assert (metrics.n_served, metrics.n_degraded) == (2, 1)
        assert metrics.n_rerouted == 1
        assert (metrics.n_shed_slo, metrics.n_shed_queue) == (1, 1)
        assert (metrics.n_rejected, metrics.n_failed) == (1, 1)
        assert metrics.n_unresolved == 0
        assert metrics.latency.count == 2
        text = format_fleet_metrics(metrics)
        assert "shed-slo 1, shed-queue 1, rejected 1, failed 1" in text
        assert "total" in text and "p95 ms" in text


class TestLoadgenReport:
    """One report type serves the service and the fleet load
    generators."""

    def test_service_responses(self):
        report = LoadgenReport(mode="closed", wall_s=2.0)
        for _ in range(4):
            report.record("issued")
        report.record("rejected")
        report.account(
            VerificationResponse(
                request_id="a",
                status=RequestStatus.SERVED,
                degraded=True,
                total_s=0.5,
            )
        )
        report.account(
            VerificationResponse(
                request_id="b", status=RequestStatus.SHED, total_s=0.1
            )
        )
        report.account(
            VerificationResponse(
                request_id="c", status=RequestStatus.FAILED, total_s=0.2
            )
        )
        assert report.n_issued == 4
        assert (
            report.n_served
            + report.n_rejected
            + report.n_shed
            + report.n_failed
        ) == 4
        assert (report.n_degraded, report.n_rerouted) == (1, 0)
        assert report.latencies_s == [0.5]
        assert report.latency == LatencySummary.from_samples([0.5])
        assert report.latency_percentile(50) == 0.5
        assert report.throughput_rps == 0.5

    def test_fleet_responses_count_reroutes(self):
        report = LoadgenReport()
        for rerouted in (False, True, True):
            report.account(
                FleetResponse(
                    request_id="r",
                    user_id="u",
                    status=RequestStatus.SERVED,
                    rerouted=rerouted,
                    total_s=0.1,
                )
            )
        assert (report.n_served, report.n_rerouted) == (3, 2)
        assert report.mode == "open"


class TestRenderers:
    def test_ordered_stages_puts_pipeline_order_first(self):
        assert ordered_stages(
            {"zeta": 1, "detect": 1, "sync": 1, "alpha": 1}
        ) == ["sync", "detect", "alpha", "zeta"]

    def test_latency_table_skips_missing_rows(self):
        assert format_latency_table([("total", None)]) == ""
        table = format_latency_table(
            [
                ("total", LatencySummary.from_samples([0.010, 0.030])),
                ("queue-wait", None),
            ],
            title="latency percentiles",
        )
        lines = table.splitlines()
        assert lines[0] == "latency percentiles"
        assert lines[1].split(" | ") == [
            "stage", "n", "p50 ms", "p95 ms", "p99 ms"
        ]
        assert lines[3].split(" | ")[:3] == ["total", "2", "20.0  "]
        assert "queue-wait" not in table

    def test_loadgen_report_headline(self):
        report = LoadgenReport(mode="closed", wall_s=1.0)
        report.record("issued")
        report.account(
            FleetResponse(
                request_id="r",
                user_id="u",
                status=RequestStatus.SERVED,
                rerouted=True,
                total_s=0.1,
            )
        )
        text = format_loadgen_report(report, "fleet")
        assert text.startswith(
            "fleet: 1 issued, 1 served, 1 rerouted, 0 rejected, "
            "0 shed, 0 failed in 1.00s (1.00 req/s)"
        )
        assert "client latency p50/p95/p99" in text
        assert "1 rerouted" not in format_loadgen_report(
            LoadgenReport(), "loadgen[open]"
        )

    def test_service_table_rows_in_pipeline_order(self):
        events = ServiceEvents()
        for stage in ("detect", "sync", "sense"):
            events.emit(StageEvent(stage, 0.01))
        _serve(events, "served", 0.05)
        text = format_service_metrics(ServiceMetrics.from_events(events))
        rows = [line.split(" ")[0] for line in text.splitlines()[5:]]
        assert rows == ["sync", "sense", "detect", "total"]
