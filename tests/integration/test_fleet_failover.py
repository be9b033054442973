"""Fleet failover: a shard dies mid-run, no request is lost or doubled.

The scenario the front door exists for: traffic is flowing across the
ring, one shard fails, and the invariants must hold —

* every accepted request resolves exactly once (no drop, no double
  answer),
* requests owned by the dead shard are served by a failover neighbor
  (``rerouted``) or rejected with a retry-after hint, never silently
  lost,
* requests owned by healthy shards are untouched,
* client-side tallies and fleet metrics agree request-for-request.
"""

import collections

import numpy as np
import pytest

from repro.fleet import (
    FleetConfig,
    FleetFrontDoor,
    FleetRequest,
    SloConfig,
)
from repro.serve.request import RequestStatus

AUDIO = np.zeros(160)


@pytest.fixture()
def make_fleet(stub_shard_factory):
    def make(n_shards=3, failover=2, service_time_s=0.002):
        slo = SloConfig(retry_after_s=0.25)
        return FleetFrontDoor(
            stub_shard_factory(
                service_time_s=service_time_s,
                queue_capacity=512,
                slo=slo,
            ),
            FleetConfig(
                n_shards=n_shards,
                failover=failover,
                slo=slo,
                autoscale_interval_s=0.0,
            ),
        )

    return make


def request(user, rid):
    return FleetRequest(
        user_id=user,
        va_audio=AUDIO,
        wearable_audio=AUDIO,
        request_id=rid,
        priority=1,  # keep the SLO valve out of this scenario
    )


def test_shard_failure_reroutes_without_losing_requests(make_fleet):
    fleet = make_fleet()
    with fleet:
        victim = "shard-1"
        users = [f"user-{i}" for i in range(60)]
        owners = {user: fleet.ring.owner(user) for user in users}
        assert victim in set(owners.values())

        # Phase 1: healthy fleet — owners answer.
        first = [
            fleet.submit_threadsafe(request(user, f"a-{user}"))
            for user in users
        ]
        responses = [future.result(timeout=10) for future in first]
        assert all(
            r.status is RequestStatus.SERVED and not r.rerouted
            for r in responses
        )

        # Phase 2: kill one shard, then offer the same users again.
        fleet.shards[victim].fail()
        second = [
            fleet.submit_threadsafe(request(user, f"b-{user}"))
            for user in users
        ]
        responses = [future.result(timeout=10) for future in second]

        by_id = collections.Counter(r.request_id for r in responses)
        assert all(count == 1 for count in by_id.values())
        assert len(by_id) == len(users)

        for response in responses:
            owner = owners[response.user_id]
            if owner == victim:
                # Orphaned users degrade to a neighbor shard.
                assert response.status is RequestStatus.SERVED
                assert response.rerouted
                assert response.shard_id != victim
            else:
                assert response.status is RequestStatus.SERVED
                assert not response.rerouted
                assert response.shard_id == owner

        metrics = fleet.metrics()
    orphans = sum(1 for user in users if owners[user] == victim)
    assert orphans > 0
    assert metrics.n_rerouted == orphans
    assert metrics.n_routed == 2 * len(users)
    assert metrics.n_unresolved == 0
    assert not metrics.shards[victim].available


def test_all_shards_down_rejects_with_retry_after(make_fleet):
    fleet = make_fleet(n_shards=2, failover=1)
    with fleet:
        for shard in fleet.shards.values():
            shard.fail()
        response = fleet.verify(request("user-1", "r1"))
        metrics = fleet.metrics()
    assert response.status is RequestStatus.REJECTED
    assert response.retry_after_s == 0.25
    assert "no available shard" in response.error
    assert metrics.n_rejected == 1
    assert metrics.n_unresolved == 0


def test_failover_disabled_rejects_orphans(make_fleet):
    fleet = make_fleet(n_shards=3, failover=0)
    with fleet:
        victim = "shard-0"
        fleet.shards[victim].fail()
        users = [f"user-{i}" for i in range(40)]
        responses = [
            fleet.verify(request(user, f"r-{user}")) for user in users
        ]
        statuses = {
            user: response.status
            for user, response in zip(users, responses)
        }
        for user in users:
            if fleet.ring.owner(user) == victim:
                assert statuses[user] is RequestStatus.REJECTED
            else:
                assert statuses[user] is RequestStatus.SERVED
        metrics = fleet.metrics()
    assert metrics.n_rerouted == 0
    assert metrics.n_unresolved == 0


def test_failure_during_inflight_traffic_drains_cleanly(make_fleet):
    """Kill a shard while its queue is non-empty: everything resolves."""
    fleet = make_fleet(n_shards=3, service_time_s=0.01)
    with fleet:
        victim = "shard-2"
        futures = [
            fleet.submit_threadsafe(request(f"user-{i}", f"r{i}"))
            for i in range(80)
        ]
        fleet.shards[victim].fail()
        responses = [future.result(timeout=10) for future in futures]
        metrics = fleet.metrics()
    # Exactly-once: every submission has exactly one response, and
    # the terminal counts partition the routed total.
    assert len(responses) == 80
    counts = collections.Counter(r.status for r in responses)
    assert sum(counts.values()) == 80
    assert metrics.n_unresolved == 0
    # Requests already queued on the victim when it died resolve as
    # SERVED (its service drains on stop) — nothing hangs or doubles.
    assert counts[RequestStatus.SERVED] >= 1
