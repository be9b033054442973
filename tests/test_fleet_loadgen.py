"""Fleet loadgen: user model determinism, accounting, Zipf skew."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    FleetConfig,
    FleetFrontDoor,
    FleetLoadgenConfig,
    SloConfig,
    make_fleet_request,
    run_fleet_loadgen,
)
from repro.serve.loadgen import RecordingPool, UserActivityModel


@pytest.fixture(scope="module")
def tiny_pool():
    """Audio content is irrelevant to the stub pipeline."""
    audio = np.zeros(160)
    return RecordingPool(
        pairs=[(audio, audio, False), (audio, audio, True)]
    )


class TestUserActivityModel:
    def test_rank_stream_is_deterministic(self):
        a = UserActivityModel(users=1000, zipf_s=1.1, seed=3)
        b = UserActivityModel(users=1000, zipf_s=1.1, seed=3)
        assert [a.user_rank(i) for i in range(200)] == [
            b.user_rank(i) for i in range(200)
        ]

    def test_rank_derivation_is_index_independent(self):
        """Rank at index i never depends on earlier draws."""
        model = UserActivityModel(users=1000, seed=5)
        forward = [model.user_rank(i) for i in range(50)]
        shuffled = [model.user_rank(i) for i in reversed(range(50))]
        assert forward == list(reversed(shuffled))

    def test_zipf_head_dominates(self):
        model = UserActivityModel(users=100_000, zipf_s=1.1, seed=0)
        ranks = [model.user_rank(i) for i in range(3000)]
        head_share = sum(1 for rank in ranks if rank < 100) / 3000
        assert head_share > 0.4
        assert model.weight(0) > model.weight(10) > model.weight(1000)

    def test_zipf_zero_is_uniform(self):
        model = UserActivityModel(users=10, zipf_s=0.0, seed=0)
        assert model.weight(0) == pytest.approx(0.1)
        assert model.weight(9) == pytest.approx(0.1)

    def test_interarrival_mean_approximates_rate(self):
        model = UserActivityModel(users=10, seed=2)
        gaps = [
            model.interarrival_s(i, rate_rps=100.0, alpha=2.5)
            for i in range(4000)
        ]
        assert np.mean(gaps) == pytest.approx(0.01, rel=0.25)
        # Heavy tail: the max gap dwarfs the median.
        assert max(gaps) > 10 * np.median(gaps)

    def test_interarrival_validation(self):
        model = UserActivityModel(users=10)
        with pytest.raises(ConfigurationError):
            model.interarrival_s(0, rate_rps=0.0)
        with pytest.raises(ConfigurationError):
            model.interarrival_s(0, rate_rps=10.0, alpha=1.0)

    def test_invalid_population(self):
        with pytest.raises(ConfigurationError):
            UserActivityModel(users=0)
        with pytest.raises(ConfigurationError):
            UserActivityModel(users=10, zipf_s=-1.0)


class TestFleetLoadgen:
    def _fleet(self, stub_shard_factory):
        slo = SloConfig()
        return FleetFrontDoor(
            stub_shard_factory(
                service_time_s=0.001,
                n_workers=2,
                queue_capacity=256,
                slo=slo,
            ),
            FleetConfig(
                n_shards=2, slo=slo, autoscale_interval_s=0.0
            ),
        )

    def test_accounting_partitions_issued(
        self, tiny_pool, stub_shard_factory
    ):
        config = FleetLoadgenConfig(
            n_requests=60, users=500, rate_rps=2000.0, seed=1
        )
        with self._fleet(stub_shard_factory) as fleet:
            report = run_fleet_loadgen(fleet, config, pool=tiny_pool)
            metrics = fleet.metrics()
        assert report.n_issued == 60
        assert (
            report.n_served
            + report.n_rejected
            + report.n_shed
            + report.n_failed
            == 60
        )
        assert metrics.n_routed == 60
        assert metrics.n_unresolved == 0
        assert report.throughput_rps > 0
        assert len(report.latencies_s) == report.n_served

    def test_request_stream_is_deterministic(self, tiny_pool):
        config = FleetLoadgenConfig(
            n_requests=30, users=10_000, seed=9
        )
        users = config.user_model()
        stream_a = [
            make_fleet_request(config, tiny_pool, users, i)
            for i in range(30)
        ]
        stream_b = [
            make_fleet_request(config, tiny_pool, users, i)
            for i in range(30)
        ]
        for a, b in zip(stream_a, stream_b):
            assert a.user_id == b.user_id
            assert a.seed == b.seed
            assert a.priority == b.priority
            assert a.request_id == b.request_id

    def test_priority_fraction_respected(self, tiny_pool):
        config = FleetLoadgenConfig(
            n_requests=400,
            users=100,
            priority_fraction=0.25,
            seed=4,
        )
        users = config.user_model()
        protected = sum(
            make_fleet_request(config, tiny_pool, users, i).priority
            for i in range(400)
        )
        assert 60 <= protected <= 140

    def test_invalid_configs_rejected(self):
        for kwargs in (
            {"n_requests": 0},
            {"users": 0},
            {"zipf_s": -0.1},
            {"rate_rps": 0.0},
            {"pareto_alpha": 1.0},
            {"priority_fraction": 1.5},
            {"deadline_s": 0.0},
        ):
            with pytest.raises(ConfigurationError):
                FleetLoadgenConfig(**kwargs)
