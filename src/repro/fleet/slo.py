"""SLO machinery: rolling latency windows, shedding, autoscaling.

Three small, individually-testable pieces:

* :class:`RollingLatencyWindow` — a bounded sample window with a
  cheap rolling p95, fed by the shard on every completed request.
* :class:`SheddingPolicy` — the front door's overload valve.  When a
  shard's rolling p95 exceeds the SLO target, low-priority requests
  are shed *before* they join the queue (with a retry-after hint), so
  the work that is admitted still finishes inside the SLO.  Shedding
  is a correctness feature here: BarrierBypass-style attack floods
  arrive exactly when verification latency matters most.
* :class:`Autoscaler` — a pure decision function from a shard's load
  snapshot to a target warm-worker count, with hysteresis so the pool
  does not thrash.  The shard applies the decision via its
  service's ``resize_workers``.

All three are clock-free value objects (callers pass ``now``), so the
test suite drives them deterministically.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Tuple

from repro.errors import ConfigurationError
from repro.utils.stats import percentile


@dataclass(frozen=True)
class SloConfig:
    """Service-level objective of the fleet.

    Attributes
    ----------
    target_p95_s:
        Rolling p95 the fleet must hold.
    window:
        Samples in each shard's rolling window.
    min_samples:
        Below this many samples the window is considered cold and
        never triggers shedding (avoids shedding on startup noise).
    protected_priority:
        Requests with priority >= this are never SLO-shed.
    retry_after_s:
        Hint returned with shed/rejected responses.
    """

    target_p95_s: float = 0.15
    window: int = 256
    min_samples: int = 20
    protected_priority: int = 1
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.target_p95_s > 0:
            raise ConfigurationError(
                f"target_p95_s must be > 0, got {self.target_p95_s}"
            )
        if self.window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {self.window}"
            )
        if self.min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {self.min_samples}"
            )
        if not self.retry_after_s > 0:
            raise ConfigurationError(
                f"retry_after_s must be > 0, got {self.retry_after_s}"
            )


class RollingLatencyWindow:
    """Thread-safe bounded window of latency samples with rolling p95."""

    def __init__(self, window: int = 256) -> None:
        if int(window) < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {window}"
            )
        self._samples: Deque[float] = deque(maxlen=int(window))
        self._lock = threading.Lock()

    def record(self, latency_s: float) -> None:
        with self._lock:
            self._samples.append(float(latency_s))

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def p95(self) -> float:
        """Rolling p95 (NaN while empty, matching the stats helpers)."""
        with self._lock:
            samples = list(self._samples)
        return percentile(samples, 95)


class SheddingPolicy:
    """SLO-driven admission valve.

    ``should_shed`` is called by the front door before dispatching a
    request to its shard: it sheds exactly when (a) the shard's window
    is warm, (b) its rolling p95 exceeds the target, and (c) the
    request's priority is below the protected band.  High-priority
    work is therefore never SLO-shed; it can still be refused by the
    engine's own bounded queue, which is the hard capacity limit.
    """

    def __init__(self, config: Optional[SloConfig] = None) -> None:
        self.config = config or SloConfig()

    def should_shed(
        self, window: RollingLatencyWindow, priority: int
    ) -> bool:
        config = self.config
        if priority >= config.protected_priority:
            return False
        if len(window) < config.min_samples:
            return False
        return window.p95() > config.target_p95_s


@dataclass(frozen=True)
class AutoscalerConfig:
    """Shard-level warm-worker autoscaling bounds and thresholds.

    Scale up by one worker when the queue backlog per worker exceeds
    ``backlog_high`` (or the rolling p95 breaches the SLO target);
    scale down by one when backlog per worker falls under
    ``backlog_low`` *and* the p95 is comfortably inside the target.
    ``cooldown_s`` spaces decisions so a resize's effect is observed
    before the next one.
    """

    min_workers: int = 1
    max_workers: int = 4
    backlog_high: float = 4.0
    backlog_low: float = 0.5
    headroom: float = 0.5
    cooldown_s: float = 2.0

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ConfigurationError(
                f"min_workers must be >= 1, got {self.min_workers}"
            )
        if self.max_workers < self.min_workers:
            raise ConfigurationError(
                f"max_workers must be >= min_workers, "
                f"got {self.max_workers} < {self.min_workers}"
            )
        if not self.backlog_high > self.backlog_low >= 0:
            raise ConfigurationError(
                f"need backlog_high > backlog_low >= 0, got "
                f"{self.backlog_high} / {self.backlog_low}"
            )
        if not 0 < self.headroom <= 1:
            raise ConfigurationError(
                f"headroom must lie in (0, 1], got {self.headroom}"
            )
        if self.cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )


@dataclass(frozen=True)
class ShardLoad:
    """One shard's load snapshot, as the autoscaler sees it."""

    n_workers: int
    queue_depth: int
    rolling_p95_s: float
    window_samples: int


class Autoscaler:
    """Pure target-worker-count policy with cooldown hysteresis."""

    def __init__(
        self,
        config: Optional[AutoscalerConfig] = None,
        slo: Optional[SloConfig] = None,
    ) -> None:
        self.config = config or AutoscalerConfig()
        self.slo = slo or SloConfig()
        self._last_decision_at: Optional[float] = None

    def target_workers(self, load: ShardLoad, now: float) -> int:
        """Desired pool size; equals ``load.n_workers`` for "hold".

        Moves one worker at a time: a resize swaps the warm pool, so
        large jumps are both unnecessary and wasteful.
        """
        config = self.config
        current = max(
            config.min_workers,
            min(load.n_workers, config.max_workers),
        )
        if (
            self._last_decision_at is not None
            and now - self._last_decision_at < config.cooldown_s
        ):
            return current
        backlog_per_worker = load.queue_depth / max(load.n_workers, 1)
        window_warm = load.window_samples >= self.slo.min_samples
        p95_breach = (
            window_warm and load.rolling_p95_s > self.slo.target_p95_s
        )
        p95_healthy = not window_warm or (
            load.rolling_p95_s
            <= self.slo.target_p95_s * self.config.headroom
        )
        target = current
        if (
            backlog_per_worker > config.backlog_high or p95_breach
        ) and current < config.max_workers:
            target = current + 1
        elif (
            backlog_per_worker < config.backlog_low
            and p95_healthy
            and current > config.min_workers
        ):
            target = current - 1
        if target != current:
            self._last_decision_at = now
        return target
