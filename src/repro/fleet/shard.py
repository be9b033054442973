"""Service shards: one verification service + profile cache per shard.

A :class:`ServiceShard` is the fleet's unit of capacity and failure:
it owns a warm :class:`~repro.serve.service.VerificationService`, an
in-shard LRU :class:`~repro.fleet.profiles.ProfileCache`, a rolling
latency window feeding the SLO machinery, and an optional
:class:`~repro.fleet.slo.Autoscaler` that resizes the service's warm
pool as load moves.
"""

from __future__ import annotations

import copy
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import (
    ConfigurationError,
    ServiceOverloadError,
    ShardUnavailableError,
)
from repro.fleet.profiles import ProfileCache
from repro.fleet.slo import (
    Autoscaler,
    RollingLatencyWindow,
    ShardLoad,
    SloConfig,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import BackpressurePolicy
from repro.serve.request import (
    RequestStatus,
    VerificationRequest,
    VerificationResponse,
)
from repro.serve.service import VerificationService


@dataclass
class ScaleEvent:
    """One applied autoscaling decision (diagnostics/metrics)."""

    at_s: float
    from_workers: int
    to_workers: int


class ServiceShard:
    """One fleet shard: service + profiles + SLO window + autoscaler.

    The service must use a non-blocking backpressure policy
    (``reject`` or ``shed-oldest``): a ``block`` submit would stall the
    front door's event loop, and fleet-tier overload handling wants an
    immediate refusal it can convert into a retry-after response.
    """

    def __init__(
        self,
        shard_id: str,
        service: VerificationService,
        profiles: Optional[ProfileCache] = None,
        slo: Optional[SloConfig] = None,
        autoscaler: Optional[Autoscaler] = None,
    ) -> None:
        if not shard_id:
            raise ConfigurationError("shard_id must be non-empty")
        if service.config.backpressure is BackpressurePolicy.BLOCK:
            raise ConfigurationError(
                "fleet shards need a non-blocking backpressure policy "
                "('reject' or 'shed-oldest'); 'block' would stall the "
                "front door"
            )
        self.shard_id = shard_id
        self.service = service
        # ``is not None``, not ``or``: an empty ProfileCache has
        # len() == 0 and would be falsy, silently dropping a
        # store-backed cache in favor of a derivation-only default.
        self.profiles = (
            profiles if profiles is not None else ProfileCache()
        )
        slo = slo or SloConfig()
        self.window = RollingLatencyWindow(window=slo.window)
        self.autoscaler = autoscaler
        self.scale_events: List[ScaleEvent] = []
        self._scale_lock = threading.Lock()
        self._running = False
        self._failed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        self.service.start()
        self._running = True
        self._failed = False

    def stop(self) -> None:
        self._running = False
        self.service.stop()

    def fail(self) -> None:
        """Mark the shard down and stop its service (tests/chaos)."""
        self._failed = True
        self._running = False
        self.service.stop()

    @property
    def available(self) -> bool:
        return self._running and not self._failed

    # -- serving --------------------------------------------------------

    def submit(
        self, request: VerificationRequest
    ) -> "Future[VerificationResponse]":
        """Admit one request to this shard's service.

        Raises :class:`ShardUnavailableError` when the shard is down
        (the front door's cue to walk the failover preference list)
        and re-raises :class:`ServiceOverloadError` when the service's
        bounded queue refuses the request (the front door answers
        that with a retry-after, not a reroute — rerouting overload
        would cascade a hotspot across the fleet).
        """
        if not self.available:
            raise ShardUnavailableError(
                f"shard {self.shard_id} is not available"
            )
        try:
            future = self.service.submit(request)
        except ServiceOverloadError:
            raise
        except Exception as error:
            self._failed = True
            raise ShardUnavailableError(
                f"shard {self.shard_id} service failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        future.add_done_callback(self._record_latency)
        return future

    def _record_latency(
        self, future: "Future[VerificationResponse]"
    ) -> None:
        if future.cancelled() or future.exception() is not None:
            return
        response = future.result()
        if response.status is RequestStatus.SERVED:
            self.window.record(response.total_s)

    def metrics(self) -> ServiceMetrics:
        return self.service.metrics()

    # -- autoscaling ----------------------------------------------------

    def autoscale_tick(self, now: float) -> Optional[ScaleEvent]:
        """Apply one autoscaling decision; returns the event if any.

        Serialized by a lock so a slow resize (warming a replacement
        pool) is never stacked under a second decision.
        """
        if self.autoscaler is None or not self.available:
            return None
        with self._scale_lock:
            snapshot = self.service.metrics()
            load = ShardLoad(
                n_workers=self.service.n_workers,
                queue_depth=snapshot.queue_depth,
                rolling_p95_s=self.window.p95(),
                window_samples=len(self.window),
            )
            target = self.autoscaler.target_workers(load, now)
            if target == load.n_workers:
                return None
            self.service.resize_workers(target)
            event = ScaleEvent(
                at_s=now,
                from_workers=load.n_workers,
                to_workers=target,
            )
            self.scale_events.append(event)
            return event


def service_shard_factory(
    spec,
    config,
    profiles_capacity: int = 4096,
    profile_loader: Optional[Callable[[str], object]] = None,
    slo: Optional[SloConfig] = None,
    autoscaler_factory: Optional[Callable[[], Autoscaler]] = None,
) -> Callable[[str], ServiceShard]:
    """``shard_id -> ServiceShard`` over real verification services.

    Every shard gets its own :class:`VerificationService` (own queue,
    scheduler, warm pool) built from one shared ``(PipelineSpec,
    ServiceConfig)`` pair, plus its own profile cache and autoscaler
    instance.
    """

    def build(shard_id: str) -> ServiceShard:
        return ServiceShard(
            shard_id,
            VerificationService(spec, copy.deepcopy(config)),
            profiles=ProfileCache(
                capacity=profiles_capacity, loader=profile_loader
            ),
            slo=slo,
            autoscaler=(
                autoscaler_factory() if autoscaler_factory else None
            ),
        )

    return build
