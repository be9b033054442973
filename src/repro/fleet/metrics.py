"""Fleet-wide metrics: front-door accounting + per-shard rollups.

The front door owns a :class:`FleetMetricsCollector` that counts every
request's fleet-level outcome (served, rerouted, SLO-shed, rejected
with retry-after, failed) and samples end-to-end latency as seen by
the *caller* — queueing, failover walks and profile application
included, which is the latency the SLO is written against.  A
:meth:`~FleetMetricsCollector.snapshot` folds in each shard's own
:class:`~repro.serve.metrics.ServiceMetrics`, rolling SLO window,
profile-cache counters, and applied scale events, so one
:class:`FleetMetrics` value answers both "is the fleet healthy" and
"which shard is why".
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.serve.metrics import LatencySummary, ServiceMetrics


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
    n_shed_slo / n_shed_engine:
        Refused before dispatch by the SLO valve vs. evicted by an
        engine's ``shed-oldest`` queue.
    n_rejected:
        Refused with a retry-after hint (engine queue full, or no
        available shard on the preference walk).
    n_failed:
        Fleet-level failures (deadline exceeded fleet-wide, engine
        errors).
    wall_s / throughput_rps:
        Time since the collector started and served requests/second.
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
    n_shed_engine: int
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
            + self.n_shed_engine
            + self.n_rejected
            + self.n_failed
        )

    @property
    def n_unresolved(self) -> int:
        """Routed requests without a terminal outcome (should be 0
        after a drained shutdown — the smoke target asserts on it)."""
        return self.n_routed - self.n_resolved


class FleetMetricsCollector:
    """Thread-safe accumulator behind the front door."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self.n_routed = 0
        self.n_served = 0
        self.n_degraded = 0
        self.n_rerouted = 0
        self.n_shed_slo = 0
        self.n_shed_engine = 0
        self.n_rejected = 0
        self.n_failed = 0
        self._latencies: List[float] = []

    def record_routed(self) -> None:
        with self._lock:
            self.n_routed += 1

    def record_served(
        self,
        total_s: float,
        degraded: bool = False,
        rerouted: bool = False,
    ) -> None:
        with self._lock:
            self.n_served += 1
            if degraded:
                self.n_degraded += 1
            if rerouted:
                self.n_rerouted += 1
            self._latencies.append(float(total_s))

    def record_shed_slo(self) -> None:
        with self._lock:
            self.n_shed_slo += 1

    def record_shed_engine(self) -> None:
        with self._lock:
            self.n_shed_engine += 1

    def record_rejected(self) -> None:
        with self._lock:
            self.n_rejected += 1

    def record_failed(self) -> None:
        with self._lock:
            self.n_failed += 1

    def snapshot(self, shards: Mapping[str, object] = ()) -> FleetMetrics:
        """Freeze the fleet counters, folding in per-shard status.

        ``shards`` maps shard id to a
        :class:`~repro.fleet.shard.ServiceShard` (typed loosely to
        avoid an import cycle).
        """
        statuses: Dict[str, ShardStatus] = {}
        fallbacks: Dict[str, int] = {}
        for shard_id, shard in dict(shards).items():
            service = shard.metrics()
            for key, count in service.stage_fallbacks.items():
                fallbacks[key] = fallbacks.get(key, 0) + count
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
        with self._lock:
            wall_s = time.monotonic() - self._started_at
            return FleetMetrics(
                n_routed=self.n_routed,
                n_served=self.n_served,
                n_degraded=self.n_degraded,
                n_rerouted=self.n_rerouted,
                n_shed_slo=self.n_shed_slo,
                n_shed_engine=self.n_shed_engine,
                n_rejected=self.n_rejected,
                n_failed=self.n_failed,
                wall_s=wall_s,
                throughput_rps=(
                    self.n_served / wall_s if wall_s > 0 else 0.0
                ),
                latency=LatencySummary.from_samples(self._latencies),
                shards=statuses,
                stage_fallbacks=dict(fallbacks),
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
            f"shed-engine {metrics.n_shed_engine}, "
            f"rejected {metrics.n_rejected}, "
            f"failed {metrics.n_failed}"
        ),
        f"  unresolved  {metrics.n_unresolved}",
        (
            f"  throughput  {metrics.throughput_rps:.1f} rps "
            f"over {metrics.wall_s:.2f}s"
        ),
    ]
    if metrics.latency is not None:
        lines.append(
            f"  latency     p50 {metrics.latency.p50_s * 1e3:.1f} ms"
            f"  p95 {metrics.latency.p95_s * 1e3:.1f} ms"
            f"  p99 {metrics.latency.p99_s * 1e3:.1f} ms"
            f"  (n={metrics.latency.count})"
        )
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
        pairs = ", ".join(
            f"{key}={count}"
            for key, count in sorted(metrics.stage_fallbacks.items())
        )
        lines.append(f"  fallbacks   {pairs}")
    return "\n".join(lines)
