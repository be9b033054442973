"""Service shards over real verification services: health, overload,
latency window, autoscale hook, block-policy refusal."""

import time

import numpy as np
import pytest

from repro.errors import (
    ConfigurationError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.fleet.shard import ServiceShard
from repro.fleet.slo import Autoscaler, AutoscalerConfig, SloConfig
from repro.serve import (
    PipelineSpec,
    ServiceConfig,
    VerificationRequest,
    VerificationService,
)
from repro.serve.request import RequestStatus

AUDIO = np.zeros(160)


def make_request(seed, **kwargs):
    kwargs.setdefault("request_id", f"req-{seed}")
    return VerificationRequest(
        va_audio=AUDIO, wearable_audio=AUDIO, seed=seed, **kwargs
    )


def wait_for_window(shard, samples=1):
    deadline = time.monotonic() + 2.0
    while len(shard.window) < samples:
        if time.monotonic() > deadline:  # pragma: no cover
            pytest.fail("latency never recorded")
        time.sleep(0.005)


class TestServiceShard:
    @pytest.fixture()
    def shard(self, stub_shard_factory):
        return stub_shard_factory(slo=SloConfig())("shard-0")

    def test_records_served_latency_in_window(self, shard):
        shard.start()
        try:
            response = shard.submit(make_request(0)).result(timeout=5)
            assert response.status is RequestStatus.SERVED
            wait_for_window(shard)
        finally:
            shard.stop()

    def test_unavailable_after_fail(self, shard):
        shard.start()
        shard.fail()
        assert not shard.available
        with pytest.raises(ShardUnavailableError):
            shard.submit(make_request(0))

    def test_submit_before_start_is_unavailable(self, shard):
        with pytest.raises(ShardUnavailableError):
            shard.submit(make_request(0))

    def test_engine_error_marks_shard_failed(self):
        class ExplodingService(VerificationService):
            def submit(self, request):
                raise RuntimeError("disk on fire")

        shard = ServiceShard(
            "shard-0",
            ExplodingService(
                PipelineSpec(use_segmenter=False),
                ServiceConfig(n_workers=1, backpressure="reject"),
            ),
        )
        shard.start()
        with pytest.raises(ShardUnavailableError):
            shard.submit(make_request(0))
        assert not shard.available
        shard.stop()

    def test_overload_propagates_not_unavailable(self, stub_shard_factory):
        shard = stub_shard_factory(
            service_time_s=0.05, queue_capacity=1, max_batch_size=1
        )("shard-0")
        shard.start()
        try:
            with pytest.raises(ServiceOverloadError):
                for i in range(8):
                    shard.submit(make_request(i))
            assert shard.available
        finally:
            shard.stop()

    def test_autoscale_tick_applies_and_records(self, stub_shard_factory):
        slo = SloConfig(target_p95_s=0.001, min_samples=1)
        shard = stub_shard_factory(
            service_time_s=0.01,
            slo=slo,
            autoscaler_factory=lambda: Autoscaler(
                AutoscalerConfig(cooldown_s=0.0), slo
            ),
        )("shard-0")
        shard.start()
        try:
            shard.submit(make_request(0)).result(timeout=5)
            wait_for_window(shard)
            event = shard.autoscale_tick(now=100.0)
            assert event is not None
            assert event.to_workers == 2
            assert shard.service.n_workers == 2
            assert shard.scale_events == [event]
        finally:
            shard.stop()

    def test_autoscale_tick_without_autoscaler_is_noop(self, shard):
        shard.start()
        try:
            assert shard.autoscale_tick(now=0.0) is None
        finally:
            shard.stop()

    def test_empty_shard_id_rejected(self, stub_shard_factory):
        with pytest.raises(ConfigurationError):
            stub_shard_factory()("")

    def test_block_policy_refused(self):
        service = VerificationService(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(backpressure="block"),
        )
        with pytest.raises(ConfigurationError):
            ServiceShard("shard-0", service)

    def test_custom_profile_cache_is_kept_even_when_empty(self, tmp_path):
        """Regression: an empty ProfileCache is falsy (len 0); the
        shard must not swap a store-backed cache for the default."""
        from repro.fleet.profiles import (
            ProfileCache,
            registry_profile_loader,
        )
        from repro.fleet.shard import service_shard_factory
        from repro.store import ArtifactStore, ModelRegistry

        loader = registry_profile_loader(
            ModelRegistry(tmp_path / "store")
        )
        cache = ProfileCache(capacity=8, loader=loader)
        service = VerificationService(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(backpressure="reject"),
        )
        shard = ServiceShard("shard-0", service, profiles=cache)
        assert shard.profiles is cache

        factory = service_shard_factory(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(backpressure="reject"),
            profile_loader=loader,
        )
        built = factory("shard-1")
        built.profiles.get("user-7")
        keys = [
            info.key
            for info in ArtifactStore(tmp_path / "store").entries()
        ]
        assert len(keys) == 1 and keys[0].kind == "user-profile"
