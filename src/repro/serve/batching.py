"""Micro-batching scheduler for the verification service.

Incoming requests are grouped into batches so a warm worker amortizes
per-dispatch overhead, under two constraints: only *compatible*
requests (same :attr:`~repro.serve.request.VerificationRequest.batch_key`
— audio rate and pipeline-affecting flags) may share a batch, and no
admitted request waits longer than ``max_wait_s`` for its batch to
fill.  The scheduler is deliberately free of threads and wall-clock
reads: callers inject ``now`` timestamps, which makes the dispatch
logic directly property-testable (FIFO within a compatibility class,
no request dispatched twice, bounded wait).

Latency-adaptive mode
---------------------
A fixed ``max_batch_size`` trades throughput against tail latency
once and for all; the right operating point depends on the recording
length, worker count, and offered load actually seen in production.
Setting :attr:`BatchingConfig.p95_target_s` turns on a
:class:`BatchSizeController`: the service feeds every served request's
end-to-end latency into :meth:`MicroBatchScheduler.observe_latency`,
and the controller adjusts the *effective* batch size — AIMD-style,
growing by one while the rolling p95 sits comfortably under the
target and halving when it breaches — within
``[min_batch_size, max_batch_size]``.  The controller is clock-free
too (cooldown is counted in samples, not seconds), so the adaptive
path is as property-testable as the fixed one.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


@dataclass(frozen=True)
class BatchingConfig:
    """Micro-batch formation parameters.

    Attributes
    ----------
    max_batch_size:
        Largest number of requests dispatched together.  In adaptive
        mode this is the controller's upper bound.
    max_wait_s:
        Longest an admitted request may sit waiting for co-batchees
        before its (possibly singleton) batch is dispatched anyway.
    p95_target_s:
        Rolling end-to-end p95 the batch-size controller steers
        toward.  ``None`` (the default) keeps the classic fixed
        ``max_batch_size`` behaviour.
    min_batch_size:
        Controller lower bound (adaptive mode only).
    adapt_window:
        Latency samples in the controller's rolling window.
    adapt_cooldown:
        Served-request samples between controller decisions, so a
        resize's effect on the window is observed before the next one.
    adapt_headroom:
        Grow only while the rolling p95 is below
        ``p95_target_s * adapt_headroom`` — the gap keeps the
        controller from oscillating right at the target.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.02
    p95_target_s: Optional[float] = None
    min_batch_size: int = 1
    adapt_window: int = 64
    adapt_cooldown: int = 8
    adapt_headroom: float = 0.7

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_s < 0:
            raise ConfigurationError(
                f"max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if self.p95_target_s is not None and not self.p95_target_s > 0:
            raise ConfigurationError(
                f"p95_target_s must be > 0 (or None), "
                f"got {self.p95_target_s}"
            )
        if not 1 <= self.min_batch_size <= self.max_batch_size:
            raise ConfigurationError(
                f"need 1 <= min_batch_size <= max_batch_size, got "
                f"{self.min_batch_size} / {self.max_batch_size}"
            )
        if self.adapt_window < 1:
            raise ConfigurationError(
                f"adapt_window must be >= 1, got {self.adapt_window}"
            )
        if self.adapt_cooldown < 1:
            raise ConfigurationError(
                f"adapt_cooldown must be >= 1, got {self.adapt_cooldown}"
            )
        if not 0 < self.adapt_headroom <= 1:
            raise ConfigurationError(
                f"adapt_headroom must lie in (0, 1], "
                f"got {self.adapt_headroom}"
            )

    @property
    def adaptive(self) -> bool:
        """Whether a latency target (and thus a controller) is set."""
        return self.p95_target_s is not None


@dataclass(frozen=True)
class BatchControllerStats:
    """Snapshot of one :class:`BatchSizeController`'s state.

    ``rolling_p95_s`` is NaN while the window is empty (matching the
    stats helpers).
    """

    batch_size: int
    n_grow: int
    n_shrink: int
    n_decisions: int
    rolling_p95_s: float


class BatchSizeController:
    """AIMD effective-batch-size controller driven by a rolling p95.

    Feeds on per-request end-to-end latencies (``observe``).  Every
    ``adapt_cooldown`` samples — once the window holds at least that
    many — it compares the rolling p95 against the target: a breach
    halves the effective size (multiplicative decrease, so a latency
    cliff is escaped in O(log) decisions), while a p95 under
    ``target * headroom`` grows it by one (additive increase).  The
    size starts at ``max_batch_size`` and stays within
    ``[min_batch_size, max_batch_size]``.

    The controller never reads a clock: cooldown is counted in
    samples, and the latency window is whatever the caller feeds it —
    tests drive it with synthetic latencies and assert the exact
    decision sequence.  Thread-safe (the service observes latencies
    from pool callback threads while the scheduler thread reads
    ``batch_size``).
    """

    def __init__(self, config: BatchingConfig) -> None:
        if not config.adaptive:
            raise ConfigurationError(
                "BatchSizeController requires p95_target_s to be set"
            )
        # Imported lazily: repro.fleet pulls in repro.serve at import
        # time, so a module-level import here would be circular.
        from repro.fleet.slo import RollingLatencyWindow

        self.config = config
        self._window = RollingLatencyWindow(config.adapt_window)
        self._size = config.max_batch_size
        self._since_decision = 0
        self._n_grow = 0
        self._n_shrink = 0
        self._n_decisions = 0
        self._lock = threading.Lock()

    @property
    def batch_size(self) -> int:
        """Current effective batch size."""
        with self._lock:
            return self._size

    def observe(self, latency_s: float) -> None:
        """Record one served request's end-to-end latency."""
        self._window.record(latency_s)
        with self._lock:
            self._since_decision += 1
            if self._since_decision < self.config.adapt_cooldown:
                return
            if len(self._window) < self.config.adapt_cooldown:
                return
            self._since_decision = 0
            self._decide_locked()

    def _decide_locked(self) -> None:
        config = self.config
        p95 = self._window.p95()
        self._n_decisions += 1
        if p95 > config.p95_target_s:
            shrunk = max(config.min_batch_size, self._size // 2)
            if shrunk != self._size:
                self._size = shrunk
                self._n_shrink += 1
        elif (
            p95 <= config.p95_target_s * config.adapt_headroom
            and self._size < config.max_batch_size
        ):
            self._size += 1
            self._n_grow += 1

    def stats(self) -> BatchControllerStats:
        """Freeze the controller state for metrics reporting."""
        with self._lock:
            return BatchControllerStats(
                batch_size=self._size,
                n_grow=self._n_grow,
                n_shrink=self._n_shrink,
                n_decisions=self._n_decisions,
                rolling_p95_s=self._window.p95(),
            )


@dataclass
class Batch(Generic[T]):
    """One dispatchable group of compatible requests."""

    key: Hashable
    entries: List[T]
    formed_reason: str = "full"

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class _PendingClass(Generic[T]):
    """Requests of one compatibility class awaiting dispatch."""

    entries: List[T] = field(default_factory=list)
    arrivals: List[float] = field(default_factory=list)

    @property
    def oldest_arrival(self) -> float:
        return self.arrivals[0]


class MicroBatchScheduler(Generic[T]):
    """Groups offered entries into compatible, deadline-bounded batches.

    Usage: ``offer`` entries as they leave the request queue, then call
    ``ready_batches(now)`` to collect every batch that is either full
    or has exceeded its oldest entry's ``max_wait_s``.  ``flush()``
    empties every pending class regardless of age (shutdown / idle
    drain).

    When the config carries a ``p95_target_s``, a
    :class:`BatchSizeController` replaces the fixed
    ``max_batch_size`` with :attr:`effective_batch_size`; feed served
    latencies through :meth:`observe_latency` to drive it.
    """

    def __init__(self, config: Optional[BatchingConfig] = None) -> None:
        self.config = config or BatchingConfig()
        self.controller: Optional[BatchSizeController] = (
            BatchSizeController(self.config)
            if self.config.adaptive
            else None
        )
        self._pending: "OrderedDict[Hashable, _PendingClass[T]]" = (
            OrderedDict()
        )

    @property
    def effective_batch_size(self) -> int:
        """Batch size currently in force (controller-driven when
        adaptive, else the configured ``max_batch_size``)."""
        if self.controller is not None:
            return self.controller.batch_size
        return self.config.max_batch_size

    def observe_latency(self, latency_s: float) -> None:
        """Feed one served request's end-to-end latency to the
        controller; a no-op in fixed (non-adaptive) mode."""
        if self.controller is not None:
            self.controller.observe(latency_s)

    def controller_stats(self) -> Optional[BatchControllerStats]:
        """Controller snapshot, or ``None`` in fixed mode."""
        if self.controller is None:
            return None
        return self.controller.stats()

    def offer(self, entry: T, key: Hashable, now: float) -> None:
        """Add one entry to its compatibility class."""
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _PendingClass()
        pending.entries.append(entry)
        pending.arrivals.append(now)

    def ready_batches(
        self, now: float, limit: Optional[int] = None
    ) -> List[Batch[T]]:
        """Pop every batch whose dispatch condition holds at ``now``.

        A class dispatches when it holds ``max_batch_size`` entries
        (repeatedly, if it holds several batches' worth) or when its
        oldest entry has waited ``max_wait_s``.  Entries leave in
        arrival order, so FIFO order is preserved within a class.  At
        most ``limit`` batches are popped (``None``: no limit); the
        rest stay pending for a later call.
        """
        batches: List[Batch[T]] = []
        size = self.effective_batch_size

        def room() -> bool:
            return limit is None or len(batches) < limit

        for key in list(self._pending):
            pending = self._pending[key]
            while len(pending.entries) >= size and room():
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[:size],
                        formed_reason="full",
                    )
                )
                del pending.entries[:size]
                del pending.arrivals[:size]
            if (
                pending.entries
                and room()
                and now - pending.oldest_arrival >= self.config.max_wait_s
            ):
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[:],
                        formed_reason="deadline",
                    )
                )
                pending.entries.clear()
                pending.arrivals.clear()
            if not pending.entries:
                del self._pending[key]
        return batches

    def flush(self) -> List[Batch[T]]:
        """Dispatch everything pending, regardless of age or size."""
        batches: List[Batch[T]] = []
        size = self.effective_batch_size
        for key, pending in self._pending.items():
            for start in range(0, len(pending.entries), size):
                batches.append(
                    Batch(
                        key=key,
                        entries=pending.entries[start : start + size],
                        formed_reason="flush",
                    )
                )
        self._pending.clear()
        return batches

    def next_deadline(self, now: float) -> Optional[float]:
        """Seconds until the earliest pending class must dispatch.

        ``None`` when nothing is pending; never negative.
        """
        if not self._pending:
            return None
        earliest = min(
            pending.oldest_arrival for pending in self._pending.values()
        )
        return max(0.0, earliest + self.config.max_wait_s - now)

    @property
    def n_pending(self) -> int:
        """Entries currently awaiting batch formation."""
        return sum(
            len(pending.entries) for pending in self._pending.values()
        )

    @property
    def pending_keys(self) -> Tuple[Hashable, ...]:
        """Compatibility classes with waiting entries."""
        return tuple(self._pending.keys())
