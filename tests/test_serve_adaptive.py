"""Latency-adaptive micro-batching: controller decisions, scheduler
wiring, config plumbing, and the metrics/report surface."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.eval.reporting import format_service_metrics
from repro.serve import (
    BatchingConfig,
    BatchSizeController,
    MicroBatchScheduler,
    PipelineSpec,
    ServiceConfig,
    ServiceEvents,
    ServiceMetrics,
    VerificationRequest,
    VerificationService,
)

RATE = 16_000.0


def adaptive_config(**overrides):
    overrides.setdefault("max_batch_size", 16)
    overrides.setdefault("p95_target_s", 0.1)
    overrides.setdefault("adapt_cooldown", 4)
    return BatchingConfig(**overrides)


class TestValidation:
    def test_non_positive_target_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(p95_target_s=0.0)

    def test_min_above_max_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_batch_size=4, min_batch_size=5)

    def test_bad_headroom_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(p95_target_s=0.1, adapt_headroom=1.5)

    def test_controller_requires_target(self):
        with pytest.raises(ConfigurationError):
            BatchSizeController(BatchingConfig())

    def test_service_config_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(p95_target_s=-0.1)


class TestController:
    def test_starts_at_max(self):
        controller = BatchSizeController(adaptive_config())
        assert controller.batch_size == 16

    def test_breach_halves_size(self):
        controller = BatchSizeController(adaptive_config())
        for _ in range(4):
            controller.observe(0.5)  # p95 far above the 0.1s target
        assert controller.batch_size == 8

    def test_sustained_breach_reaches_floor(self):
        controller = BatchSizeController(
            adaptive_config(min_batch_size=2)
        )
        for _ in range(64):
            controller.observe(0.5)
        assert controller.batch_size == 2

    def test_healthy_latency_grows_additively(self):
        config = adaptive_config(adapt_window=8)
        controller = BatchSizeController(config)
        for _ in range(16):
            controller.observe(0.5)  # shrink first
        shrunk = controller.batch_size
        for _ in range(8):
            controller.observe(0.01)  # flush the window with fast ones
        for _ in range(8):
            controller.observe(0.01)
        assert controller.batch_size > shrunk
        stats = controller.stats()
        assert stats.n_grow >= 1 and stats.n_shrink >= 1

    def test_holds_between_headroom_and_target(self):
        # p95 in (target * headroom, target]: neither grow nor shrink.
        config = adaptive_config(adapt_window=8, adapt_headroom=0.7)
        controller = BatchSizeController(config)
        for _ in range(8):
            controller.observe(0.09)  # fill the window: hold band
        size = controller.batch_size
        for _ in range(32):
            controller.observe(0.09)  # under target, above 0.07
        assert controller.batch_size == size == 16

    def test_cooldown_spaces_decisions(self):
        controller = BatchSizeController(
            adaptive_config(adapt_cooldown=8)
        )
        for _ in range(7):
            controller.observe(0.5)
        assert controller.stats().n_decisions == 0
        controller.observe(0.5)
        assert controller.stats().n_decisions == 1

    def test_never_leaves_bounds(self):
        config = adaptive_config(
            max_batch_size=8, min_batch_size=2, adapt_window=8
        )
        controller = BatchSizeController(config)
        latencies = np.random.default_rng(0).uniform(0.0, 0.4, 400)
        for latency in latencies:
            controller.observe(float(latency))
            assert 2 <= controller.batch_size <= 8


class TestSchedulerWiring:
    def test_fixed_mode_has_no_controller(self):
        scheduler = MicroBatchScheduler(BatchingConfig(max_batch_size=4))
        assert scheduler.controller is None
        assert scheduler.effective_batch_size == 4
        scheduler.observe_latency(9.9)  # must be a no-op
        assert scheduler.controller_stats() is None

    def test_effective_size_tracks_controller(self):
        scheduler = MicroBatchScheduler(adaptive_config())
        assert scheduler.effective_batch_size == 16
        for _ in range(8):
            scheduler.observe_latency(0.5)
        assert scheduler.effective_batch_size < 16

    def test_shrunk_size_forms_smaller_batches(self):
        scheduler = MicroBatchScheduler(
            adaptive_config(max_wait_s=10.0)
        )
        for _ in range(8):
            scheduler.observe_latency(0.5)  # two decisions: 16 -> 8 -> 4
        size = scheduler.effective_batch_size
        assert size == 4
        for index in range(size):
            scheduler.offer(index, key="a", now=0.0)
        batches = scheduler.ready_batches(now=0.0)
        assert len(batches) == 1
        assert len(batches[0]) == size
        assert batches[0].formed_reason == "full"


class TestServiceIntegration:
    def _request(self, seed):
        rng = np.random.default_rng(seed)
        va = rng.normal(0.0, 0.1, 16_000)
        wearable = 0.8 * va + rng.normal(0.0, 0.02, 16_000)
        return VerificationRequest(
            va_audio=va,
            wearable_audio=wearable,
            seed=seed,
            request_id=f"req-{seed}",
        )

    def test_adaptive_service_serves_and_reports(self):
        spec = PipelineSpec(use_segmenter=False)
        config = ServiceConfig(
            n_workers=1, max_batch_size=8, p95_target_s=30.0
        )
        with VerificationService(spec, config) as service:
            responses = [
                service.verify(self._request(seed)) for seed in range(6)
            ]
            metrics = service.metrics()
        assert all(r.status.value == "served" for r in responses)
        controller = metrics.batch_controller
        assert controller is not None
        assert 1 <= controller.batch_size <= 8
        report = format_service_metrics(metrics)
        assert "adaptive batching: size" in report

    def test_fixed_service_reports_no_controller(self):
        spec = PipelineSpec(use_segmenter=False)
        with VerificationService(
            spec, ServiceConfig(n_workers=1)
        ) as service:
            service.verify(self._request(1))
            metrics = service.metrics()
        assert metrics.batch_controller is None
        assert "adaptive batching" not in format_service_metrics(
            metrics
        )

    def test_verdicts_unchanged_by_adaptive_mode(self):
        # Batch size never affects verdicts (determinism contract), so
        # adaptive resizing must not either.
        spec = PipelineSpec(use_segmenter=False)
        fixed_config = ServiceConfig(n_workers=1)
        adaptive = ServiceConfig(
            n_workers=1, max_batch_size=8, p95_target_s=0.001
        )
        with VerificationService(spec, fixed_config) as service:
            baseline = [
                service.verify(self._request(seed)).verdict
                for seed in (7, 8, 9)
            ]
        with VerificationService(spec, adaptive) as service:
            steered = [
                service.verify(self._request(seed)).verdict
                for seed in (7, 8, 9)
            ]
        assert steered == baseline


class TestMetricsPlumbing:
    def test_snapshot_carries_controller_stats(self):
        controller = BatchSizeController(adaptive_config())
        for _ in range(8):
            controller.observe(0.5)
        snapshot = ServiceMetrics.from_events(
            ServiceEvents(), batch_controller=controller.stats()
        )
        assert snapshot.batch_controller.n_shrink >= 1
        report = format_service_metrics(snapshot)
        assert "shrinks" in report

    def test_report_handles_empty_window(self):
        controller = BatchSizeController(adaptive_config())
        snapshot = ServiceMetrics.from_events(
            ServiceEvents(), batch_controller=controller.stats()
        )
        assert "rolling p95 n/a" in format_service_metrics(snapshot)
