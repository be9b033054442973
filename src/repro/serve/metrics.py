"""Service metrics: a view over the service's one event aggregator.

:class:`~repro.serve.service.VerificationService` records everything
into one :class:`ServiceEvents` aggregator: the workers'
:class:`~repro.runtime.StageEvent` streams arrive unchanged, as do the
runtime's ladder events while a worker pool starts, and the service
adds one ``scope="serve"`` event per submission, request
outcome (``served`` / ``rejected`` / ``shed`` / ``failed``, plus
``degraded`` and ``queue-wait`` for served requests) and dispatched
``batch``.  :meth:`ServiceMetrics.from_events` computes the frozen
snapshot from those events; nothing is tallied twice.  Stage rows are
the workers' ``scope="pipeline"`` events — the same values each
response's ``stage_timings_s`` carries — and fallback counts come from
the same streams, so deadline skips, full-recording degrades,
sequential batch fallbacks and runtime ladder demotions are counted
the way the campaign runner counts them.
:func:`repro.eval.reporting.format_service_metrics` renders a
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional

from repro.runtime import LatencySummary, StageEvent, StageEventAggregator
from repro.serve.batching import BatchControllerStats

#: Scope of the events the service itself records.
SERVE_SCOPE = "serve"


def count(groups: Mapping[str, List[StageEvent]], stage: str) -> int:
    """Events recorded under ``stage`` in a :meth:`grouped` mapping."""
    return len(groups.get(stage, ()))


def latency(
    groups: Mapping[str, List[StageEvent]], stage: str
) -> Optional[LatencySummary]:
    """Percentiles of ``stage``'s wall times in a :meth:`grouped`
    mapping (``None`` when it has none)."""
    return LatencySummary.from_samples(
        [event.wall_s for event in groups.get(stage, ())]
    )


class ServiceEvents(StageEventAggregator):
    """The service's aggregator, with live dispatch counters.

    ``n_batches`` / ``n_batched_requests`` read the ``batch`` events
    at call time, so a caller can hold the aggregator and diff the
    counters around a traffic pass.
    """

    def _batches(self) -> List[StageEvent]:
        return self.grouped(SERVE_SCOPE).get("batch", [])

    @property
    def n_batches(self) -> int:
        """Micro-batches dispatched so far."""
        return len(self._batches())

    @property
    def n_batched_requests(self) -> int:
        """Requests dispatched in those batches."""
        return sum(event.batch_size for event in self._batches())


@dataclass(frozen=True)
class ServiceMetrics:
    """Frozen snapshot of the service's counters and distributions.

    Attributes
    ----------
    n_submitted / n_served / n_degraded / n_rejected / n_shed /
    n_failed:
        Request accounting.  Every submitted request lands in exactly
        one of served / rejected / shed / failed (degraded requests are
        a subset of served).
    n_batches / mean_batch_size:
        Micro-batching effectiveness.
    queue_depth / n_pending:
        Requests currently queued / awaiting batch formation at
        snapshot time.
    wall_s / throughput_rps:
        Time since the service started (warm-up excluded) and served
        requests per second.
    total_latency / queue_wait:
        End-to-end and queued-time percentiles.
    stage_latency:
        Percentiles per pipeline stage (see
        :data:`repro.core.pipeline.PIPELINE_STAGES`).
    """

    n_submitted: int
    n_served: int
    n_degraded: int
    n_rejected: int
    n_shed: int
    n_failed: int
    n_batches: int
    mean_batch_size: float
    queue_depth: int
    n_pending: int
    wall_s: float
    throughput_rps: float
    total_latency: Optional[LatencySummary]
    queue_wait: Optional[LatencySummary]
    stage_latency: Mapping[str, LatencySummary] = field(
        default_factory=dict
    )
    #: ``{"stage:fallback": count}`` over the workers' StageEvent
    #: streams — deadline skips, full-recording degrades, non-finite
    #: scores, sequential batch fallbacks, and runtime ladder
    #: demotions, all through one protocol.
    stage_fallbacks: Mapping[str, int] = field(default_factory=dict)
    #: Adaptive batch-size controller snapshot (``None`` when the
    #: service runs with a fixed batch size).
    batch_controller: Optional[BatchControllerStats] = None

    @property
    def n_resolved(self) -> int:
        """Requests that reached a terminal status."""
        return (
            self.n_served + self.n_rejected + self.n_shed + self.n_failed
        )

    @classmethod
    def from_events(
        cls,
        events: StageEventAggregator,
        queue_depth: int = 0,
        n_pending: int = 0,
        batch_controller: Optional[BatchControllerStats] = None,
    ) -> "ServiceMetrics":
        """The snapshot of everything ``events`` recorded so far."""
        serve = events.grouped(SERVE_SCOPE)
        batches = serve.get("batch", [])
        n_served = count(serve, "served")
        wall_s = events.wall_s
        return cls(
            n_submitted=count(serve, "submitted"),
            n_served=n_served,
            n_degraded=count(serve, "degraded"),
            n_rejected=count(serve, "rejected"),
            n_shed=count(serve, "shed"),
            n_failed=count(serve, "failed"),
            n_batches=len(batches),
            mean_batch_size=(
                sum(event.batch_size for event in batches) / len(batches)
                if batches
                else 0.0
            ),
            queue_depth=queue_depth,
            n_pending=n_pending,
            wall_s=wall_s,
            throughput_rps=n_served / wall_s if wall_s > 0 else 0.0,
            total_latency=latency(serve, "served"),
            queue_wait=latency(serve, "queue-wait"),
            stage_latency=events.summarize("pipeline"),
            stage_fallbacks=events.fallback_counts(),
            batch_controller=batch_controller,
        )
