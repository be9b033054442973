"""Shared fixtures for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.acoustics.room import RoomConfig
from repro.acoustics.materials import GLASS_WINDOW
from repro.phonemes.corpus import SyntheticCorpus
from repro.phonemes.speaker import SpeakerProfile, generate_speakers
from repro.phonemes.synthesis import PhonemeSynthesizer

#: Audio sampling rate used across tests.
AUDIO_RATE = 16_000.0


@pytest.fixture(scope="session")
def speakers():
    """A small, deterministic speaker pool."""
    return generate_speakers(4, rng=101)


@pytest.fixture(scope="session")
def male_speaker(speakers):
    """One male speaker."""
    return next(s for s in speakers if s.gender == "male")


@pytest.fixture(scope="session")
def female_speaker(speakers):
    """One female speaker."""
    return next(s for s in speakers if s.gender == "female")


@pytest.fixture(scope="session")
def synthesizer():
    """Shared phoneme synthesizer."""
    return PhonemeSynthesizer()


@pytest.fixture(scope="session")
def corpus(speakers):
    """A small synthetic corpus."""
    return SyntheticCorpus(speakers=speakers, seed=202)


@pytest.fixture(scope="session")
def room_config():
    """A default glass-window room."""
    return RoomConfig(
        name="Test Room", width_m=6.0, length_m=5.0, barrier=GLASS_WINDOW
    )


@pytest.fixture()
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(31337)


class _SleepingPipeline:
    """Pipeline stand-in for fleet tests: each request costs a fixed
    service time and scores a deterministic value in [-1, 1] derived
    from its seed (the audio is ignored)."""

    def __init__(self, state):
        self._state = state

    @staticmethod
    def score(seed):
        mixed = (int(seed) * 0x9E3779B97F4A7C15) & (2**64 - 1)
        mixed ^= mixed >> 31
        return 2.0 * (((mixed >> 24) & 0xFFFFFF) / float(0x1000000)) - 1.0

    def analyze_batch(self, items):
        from repro.core.pipeline import BatchAnalysisOutcome, DefenseVerdict

        time.sleep(self._state["service_time_s"] * len(items))
        return [
            BatchAnalysisOutcome(
                verdict=DefenseVerdict(
                    score=self.score(item.rng),
                    is_attack=None,
                    n_segments=0,
                    analyzed_duration_s=0.0,
                    sync_delay_s=0.0,
                )
            )
            for item in items
        ]


@pytest.fixture()
def stub_shard_factory(monkeypatch):
    """``make(service_time_s, slo, autoscaler_factory, **config)`` →
    a ``shard_id -> ServiceShard`` factory over real
    :class:`~repro.serve.VerificationService` shards (thread workers;
    ``reject`` backpressure and a 1 ms batching wait by default) whose warm
    pipeline is a :class:`_SleepingPipeline`.  Queueing, batching,
    backpressure, deadlines and resizing are the service's own; only
    the DSP is replaced."""
    import repro.serve.workers as workers
    from repro.fleet.shard import service_shard_factory
    from repro.serve import PipelineSpec, ServiceConfig

    state = {"service_time_s": 0.002}
    pipeline = _SleepingPipeline(state)
    monkeypatch.setattr(
        workers, "_worker_pipeline", lambda spec, key: pipeline
    )

    def make(
        service_time_s=0.002, slo=None, autoscaler_factory=None, **config
    ):
        state["service_time_s"] = service_time_s
        config.setdefault("n_workers", 1)
        config.setdefault("queue_capacity", 64)
        config.setdefault("max_wait_s", 0.001)
        config.setdefault("backpressure", "reject")
        return service_shard_factory(
            PipelineSpec(use_segmenter=False),
            ServiceConfig(worker_mode="thread", **config),
            slo=slo,
            autoscaler_factory=autoscaler_factory,
        )

    return make
