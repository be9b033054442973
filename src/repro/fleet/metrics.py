"""Fleet-wide metrics: front-door accounting + per-shard rollups.

The front door records every request's fleet-level outcome into a
:class:`~repro.runtime.StageEventAggregator` as ``scope="fleet"``
events: ``routed`` on entry, then one of ``served`` (with ``degraded``
/ ``rerouted`` flags), ``shed-slo``, ``shed`` (evicted by a shard's
``shed-oldest`` queue), ``rejected`` (with retry-after) or ``failed``.
A served event's wall time is the latency the *caller* saw —
queueing, failover walks and profile application included, which is
the latency the SLO is written against.
:meth:`FleetMetrics.from_events` computes the snapshot from those
events and folds in each shard's own
:class:`~repro.serve.metrics.ServiceMetrics`, rolling SLO window,
profile-cache counters, and applied scale events, so one
:class:`FleetMetrics` value answers both "is the fleet healthy" and
"which shard is why".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.eval.reporting import format_fallbacks, format_latency_table
from repro.runtime import StageEventAggregator
from repro.serve.metrics import (
    LatencySummary,
    ServiceMetrics,
    count,
    latency,
)

#: Scope of the events the front door records.
FLEET_SCOPE = "fleet"


@dataclass(frozen=True)
class ShardStatus:
    """One shard's contribution to a fleet snapshot."""

    shard_id: str
    available: bool
    n_workers: int
    rolling_p95_s: float
    window_samples: int
    n_scale_events: int
    profile_cache: Mapping[str, int]
    service: ServiceMetrics


@dataclass(frozen=True)
class FleetMetrics:
    """Frozen fleet-level snapshot.

    Attributes
    ----------
    n_routed:
        Requests that entered the front door.
    n_served / n_degraded:
        Requests answered with a verdict (degraded ⊆ served).
    n_rerouted:
        Served requests that were answered by a failover shard, not
        their ring owner.
    n_shed_slo / n_shed_queue:
        Refused before dispatch by the SLO valve vs. evicted by a
        shard's ``shed-oldest`` queue.
    n_rejected:
        Refused with a retry-after hint (shard queue full, or no
        available shard on the preference walk).
    n_failed:
        Fleet-level failures (deadline exceeded fleet-wide, shard
        errors).
    wall_s / throughput_rps:
        Time since the front door started (shard warm-up excluded)
        and served requests/second.
    latency:
        Caller-observed end-to-end percentiles over served requests.
    shards:
        Per-shard status blocks, keyed by shard id.
    stage_fallbacks:
        Union of the shards' ``stage:fallback`` counters.
    """

    n_routed: int
    n_served: int
    n_degraded: int
    n_rerouted: int
    n_shed_slo: int
    n_shed_queue: int
    n_rejected: int
    n_failed: int
    wall_s: float
    throughput_rps: float
    latency: Optional[LatencySummary]
    shards: Mapping[str, ShardStatus] = field(default_factory=dict)
    stage_fallbacks: Mapping[str, int] = field(default_factory=dict)

    @property
    def n_resolved(self) -> int:
        """Requests that reached a terminal fleet-level outcome."""
        return (
            self.n_served
            + self.n_shed_slo
            + self.n_shed_queue
            + self.n_rejected
            + self.n_failed
        )

    @property
    def n_unresolved(self) -> int:
        """Routed requests without a terminal outcome (should be 0
        after a drained shutdown — the smoke target asserts on it)."""
        return self.n_routed - self.n_resolved

    @classmethod
    def from_events(
        cls,
        events: StageEventAggregator,
        shards: Mapping[str, object] = (),
    ) -> "FleetMetrics":
        """The fleet snapshot, folding in per-shard status.

        ``shards`` maps shard id to a
        :class:`~repro.fleet.shard.ServiceShard` (typed loosely to
        avoid an import cycle).
        """
        statuses: Dict[str, ShardStatus] = {}
        fallbacks: Dict[str, int] = {}
        for shard_id, shard in dict(shards).items():
            service = shard.metrics()
            for key, n in service.stage_fallbacks.items():
                fallbacks[key] = fallbacks.get(key, 0) + n
            statuses[shard_id] = ShardStatus(
                shard_id=shard_id,
                available=shard.available,
                n_workers=shard.service.n_workers,
                rolling_p95_s=shard.window.p95(),
                window_samples=len(shard.window),
                n_scale_events=len(shard.scale_events),
                profile_cache=shard.profiles.stats(),
                service=service,
            )
        fleet = events.grouped(FLEET_SCOPE)
        n_served = count(fleet, "served")
        wall_s = events.wall_s
        return cls(
            n_routed=count(fleet, "routed"),
            n_served=n_served,
            n_degraded=count(fleet, "degraded"),
            n_rerouted=count(fleet, "rerouted"),
            n_shed_slo=count(fleet, "shed-slo"),
            n_shed_queue=count(fleet, "shed"),
            n_rejected=count(fleet, "rejected"),
            n_failed=count(fleet, "failed"),
            wall_s=wall_s,
            throughput_rps=n_served / wall_s if wall_s > 0 else 0.0,
            latency=latency(fleet, "served"),
            shards=statuses,
            stage_fallbacks=fallbacks,
        )


def format_fleet_metrics(metrics: FleetMetrics) -> str:
    """Plain-text fleet report (style of ``format_service_metrics``)."""
    lines = [
        "fleet metrics",
        f"  routed      {metrics.n_routed}",
        (
            f"  served      {metrics.n_served}"
            f"  (degraded {metrics.n_degraded}, "
            f"rerouted {metrics.n_rerouted})"
        ),
        (
            f"  refused     shed-slo {metrics.n_shed_slo}, "
            f"shed-queue {metrics.n_shed_queue}, "
            f"rejected {metrics.n_rejected}, "
            f"failed {metrics.n_failed}"
        ),
        f"  unresolved  {metrics.n_unresolved}",
        (
            f"  throughput  {metrics.throughput_rps:.1f} rps "
            f"over {metrics.wall_s:.2f}s"
        ),
    ]
    for shard_id in sorted(metrics.shards):
        status = metrics.shards[shard_id]
        cache = status.profile_cache
        p95_ms = status.rolling_p95_s * 1e3
        lines.append(
            f"  {shard_id:<12} "
            f"{'up' if status.available else 'DOWN':<4} "
            f"workers={status.n_workers} "
            f"served={status.service.n_served} "
            f"p95={p95_ms:.1f}ms "
            f"scale-events={status.n_scale_events} "
            f"cache={cache.get('hits', 0)}h/"
            f"{cache.get('misses', 0)}m"
        )
    if metrics.stage_fallbacks:
        lines.append(
            f"  fallbacks   {format_fallbacks(metrics.stage_fallbacks)}"
        )
    table = format_latency_table([("total", metrics.latency)])
    if table:
        lines.append(table)
    return "\n".join(lines)
