"""StageEvent — one structured-observability protocol for every layer.

Pipeline stages, campaign units, serve workers, and the runtime's own
fallback ladder all emit the same small frozen record: stage name, wall
time, batch size, which fallback (if any) was taken, and the error
class when the stage failed.  The serving layer records request
outcomes the same way (``scope="serve"`` for the service,
``"fleet"`` for the front door, ``"client"`` for the load generator).

A :class:`StageEventAggregator` is the one metrics collector: every
per-layer snapshot (service, fleet, loadgen, campaign) is a view
computed from one aggregator's events, and
:class:`LatencySummary` is the one percentile summary they report.

Events are delivered two ways, which compose:

* an **instance sink** (e.g. ``DefensePipeline.sink``) wired by the
  owner of the emitting object;
* an **ambient sink** installed for the current context with
  :func:`capture_stage_events` — how worker functions collect the
  events of exactly one call without touching shared pipeline state
  (and therefore without races between threads).
"""

from __future__ import annotations

import contextlib
import contextvars
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.utils.stats import REPORTED_PERCENTILES, percentile_values


@dataclass(frozen=True)
class StageEvent:
    """One observed execution of a named stage.

    Attributes
    ----------
    stage:
        Stage name (``sync`` / ``segment`` / ... for pipeline stages,
        ``runtime.start`` / ``runtime.map`` for executor-ladder
        transitions, ``segment_batch`` / ``sense_batch`` for the
        pipeline's shared passes, ``execute_batch`` for a serving
        worker's whole-batch fallback).
    wall_s:
        Wall-clock seconds attributed to this stage (for batched work,
        including the emitting request's amortized share).
    batch_size:
        Number of requests the stage served at once.
    fallback:
        Name of the fallback taken, or ``None`` on the primary path
        (e.g. ``full-recording``, ``deadline-skip``, ``inline``).
    error:
        Error class name when the stage raised, else ``None``.
    scope:
        Emitting layer: ``pipeline``, ``batch``, ``runtime``,
        ``serve``, ``fleet``, or ``client``.
    """

    stage: str
    wall_s: float
    batch_size: int = 1
    fallback: Optional[str] = None
    error: Optional[str] = None
    scope: str = "pipeline"

    @property
    def ok(self) -> bool:
        """Whether the stage completed without raising."""
        return self.error is None


class StageEventSink:
    """Minimal sink interface (also usable as a no-op base)."""

    def emit(self, event: StageEvent) -> None:  # pragma: no cover
        """Receive one event."""


class NullSink(StageEventSink):
    """Discards every event (the default when nothing listens)."""

    def emit(self, event: StageEvent) -> None:
        pass


@dataclass(frozen=True)
class LatencySummary:
    """p50/p95/p99 (seconds) plus count of one latency distribution."""

    count: int
    p50_s: float
    p95_s: float
    p99_s: float

    @classmethod
    def from_samples(
        cls, samples: Sequence[float]
    ) -> Optional["LatencySummary"]:
        """Summary of ``samples``, or ``None`` when there are none."""
        if not samples:
            return None
        p50, p95, p99 = percentile_values(samples, REPORTED_PERCENTILES)
        return cls(
            count=len(samples),
            p50_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
        )


class StageEventAggregator(StageEventSink):
    """Thread-safe sink that accumulates events, plus a wall clock.

    The one collector behind every metrics surface: the service, the
    fleet front door, the load generator and the campaign runner each
    record into an aggregator, and their snapshots
    (:class:`~repro.serve.metrics.ServiceMetrics`,
    :class:`~repro.fleet.metrics.FleetMetrics`,
    :class:`~repro.serve.loadgen.LoadgenReport`,
    :class:`~repro.eval.runner.CampaignStats`) are views computed from
    its events.  The clock starts at :meth:`start_clock`, not at
    construction, so warm-up before it is not counted as serving time.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: List[StageEvent] = []
        self._started_at: Optional[float] = None

    def emit(self, event: StageEvent) -> None:
        with self._lock:
            self._events.append(event)

    def extend(self, events: Iterable[StageEvent]) -> None:
        """Emit every event of ``events`` under one lock acquisition."""
        with self._lock:
            self._events.extend(events)

    @property
    def events(self) -> List[StageEvent]:
        """Snapshot of the events observed so far."""
        with self._lock:
            return list(self._events)

    def start_clock(self) -> None:
        """Start the wall clock; later calls keep the first start."""
        with self._lock:
            if self._started_at is None:
                self._started_at = time.monotonic()

    @property
    def wall_s(self) -> float:
        """Seconds since :meth:`start_clock` (``0.0`` before it)."""
        with self._lock:
            started_at = self._started_at
        if started_at is None:
            return 0.0
        return time.monotonic() - started_at

    def grouped(
        self, scope: Optional[str] = None
    ) -> Dict[str, List[StageEvent]]:
        """Events of ``scope`` (every scope when ``None``) by stage,
        each list in emission order."""
        groups: Dict[str, List[StageEvent]] = {}
        for event in self.events:
            if scope is None or event.scope == scope:
                groups.setdefault(event.stage, []).append(event)
        return groups

    def timings(self) -> Dict[str, float]:
        """``{stage: wall_s}`` of the *latest* successful event per stage.

        Matches the shape of the pipeline's per-call timing dict when
        the aggregator captured exactly one call.
        """
        out: Dict[str, float] = {}
        for event in self.events:
            if event.ok:
                out[event.stage] = event.wall_s
        return out

    def stage_totals(self) -> Dict[str, float]:
        """Summed wall seconds per stage over successful events."""
        totals: Dict[str, float] = {}
        for event in self.events:
            if event.ok:
                totals[event.stage] = (
                    totals.get(event.stage, 0.0) + event.wall_s
                )
        return totals

    def fallback_counts(self) -> Dict[str, int]:
        """``{"stage:fallback": count}`` over events that fell back."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.fallback is not None:
                key = f"{event.stage}:{event.fallback}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def error_counts(self) -> Dict[str, int]:
        """``{"stage:ErrorClass": count}`` over failed events."""
        counts: Dict[str, int] = {}
        for event in self.events:
            if event.error is not None:
                key = f"{event.stage}:{event.error}"
                counts[key] = counts.get(key, 0) + 1
        return counts

    def summarize(
        self, scope: Optional[str] = None
    ) -> Dict[str, LatencySummary]:
        """Per-stage wall-time percentiles over successful events."""
        summaries: Dict[str, LatencySummary] = {}
        for stage, events in self.grouped(scope).items():
            summary = LatencySummary.from_samples(
                [e.wall_s for e in events if e.ok]
            )
            if summary is not None:
                summaries[stage] = summary
        return summaries


#: Ambient sink for the current execution context.  Worker functions
#: install an aggregator here around exactly one pipeline call, so
#: shared pipeline instances need no mutable sink state of their own.
_ACTIVE_SINK: "contextvars.ContextVar[Optional[StageEventSink]]" = (
    contextvars.ContextVar("repro_stage_event_sink", default=None)
)


def active_sink() -> Optional[StageEventSink]:
    """The context's ambient sink, or ``None``."""
    return _ACTIVE_SINK.get()


def emit_event(
    event: StageEvent, sink: Optional[StageEventSink] = None
) -> None:
    """Deliver ``event`` to the instance ``sink`` and the ambient sink.

    Either may be absent; when both are the same object the event is
    delivered once.
    """
    if sink is not None:
        sink.emit(event)
    ambient = _ACTIVE_SINK.get()
    if ambient is not None and ambient is not sink:
        ambient.emit(event)


@contextlib.contextmanager
def capture_stage_events(
    sink: Optional[StageEventAggregator] = None,
) -> Iterator[StageEventAggregator]:
    """Install an ambient aggregator for the ``with`` block.

    Every :func:`emit_event` inside the block (same thread/context) is
    recorded; the previous ambient sink is restored on exit.
    """
    aggregator = sink if sink is not None else StageEventAggregator()
    token = _ACTIVE_SINK.set(aggregator)
    try:
        yield aggregator
    finally:
        _ACTIVE_SINK.reset(token)
