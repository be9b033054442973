"""The unified execution layer: one place that builds pools.

Every concurrent code path in the library — campaign scoring, the warm
serve worker pool, CLI attack studies — runs its units through a
:class:`Runtime`, which walks a declarative
:class:`~repro.runtime.policies.FallbackPolicy` ladder of executor
kinds (process → thread → inline by default) instead of hand-rolling
``try/except`` around pool construction.  The concrete executors share
a tiny interface (``start`` / ``submit`` / ``shutdown`` / ``wrap``) so
the orchestration logic is written once:

* :class:`ProcessPoolRuntime` — ``ProcessPoolExecutor`` with an eager
  warm-up probe per worker, so spawn and initializer failures surface
  at ``start()`` where the ladder can still demote cheaply.
* :class:`ThreadPoolRuntime` — ``ThreadPoolExecutor``; workers spawn
  lazily, matching the latency profile callers relied on before.
* :class:`InlineExecutor` — runs units in the calling thread and
  returns already-completed futures; the ladder's floor and the
  ``n_workers <= 1`` fast path.

Per the pool-boundary contract, any exception a unit raises inside a
*process* worker is re-raised as a picklable
:class:`repro.errors.WorkerError`; thread and inline execution raise
the original exception unchanged.
"""

from __future__ import annotations

import functools
import logging
import pickle
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerError
from repro.runtime.events import StageEvent, StageEventSink, emit_event
from repro.runtime.policies import (
    INLINE,
    PROCESS,
    THREAD,
    FallbackPolicy,
    validate_kind,
)

logger = logging.getLogger(__name__)

#: Errors that indicate the *pool* (not the unit of work) failed:
#: workers could not spawn or died, or the payload could not cross the
#: process boundary.  These trigger ladder demotion; anything else is a
#: unit failure and propagates to the caller.
POOL_ERRORS: Tuple[type, ...] = (
    BrokenExecutor,
    OSError,
    pickle.PicklingError,
)


def _run_unit_wrapped(fn: Callable[..., Any], *args: Any) -> Any:
    """Run one unit in a process worker: errors become picklable.

    Module-level so it pickles into spawn workers.  Pool-infrastructure
    errors pass through untouched (the parent's ladder must see them as
    such); every other exception is re-raised as a :class:`WorkerError`
    that is guaranteed to survive the pickle trip back to the parent
    process.
    """
    try:
        return fn(*args)
    except POOL_ERRORS:
        raise
    except Exception as error:  # noqa: BLE001 - boundary wrap
        raise WorkerError.from_exception(error) from None


def _run_unit_shm(fn: Callable[..., Any], *args: Any) -> Any:
    """:func:`_run_unit_wrapped` behind the shared-memory transport.

    Materializes every :class:`~repro.runtime.shm.ShmRef` in the
    arguments (attach → copy → close) before running the unit.  A
    payload that crossed by plain pickle decodes as an identity walk.
    """
    from repro.runtime.shm import decode_payload

    return _run_unit_wrapped(fn, *[decode_payload(arg) for arg in args])


class InlineExecutor:
    """Runs every unit in the calling thread, serially.

    ``submit`` executes immediately and returns an already-completed
    :class:`~concurrent.futures.Future`, so callers written against the
    pool interface work unchanged.
    """

    kind = INLINE

    def __init__(
        self,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
    ) -> None:
        self._initializer = initializer
        self._initargs = initargs

    def start(self) -> None:
        if self._initializer is not None:
            self._initializer(*self._initargs)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        future: "Future[Any]" = Future()
        try:
            future.set_result(fn(*args))
        except BaseException as error:  # noqa: BLE001 - future carries it
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True) -> None:
        pass


class ThreadPoolRuntime:
    """Thread-pool executor rung.

    Threads spawn lazily on first submission (the stdlib behavior),
    which keeps warm-up cheap; the initializer runs once per spawned
    thread, exactly as it would per process on the process rung.
    """

    kind = THREAD

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        thread_name_prefix: str = "repro-runtime",
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self._n_workers = n_workers
        self._initializer = initializer
        self._initargs = initargs
        self._thread_name_prefix = thread_name_prefix
        self._pool: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self._n_workers,
            initializer=self._initializer,
            initargs=self._initargs,
            thread_name_prefix=self._thread_name_prefix,
        )

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return fn

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        if self._pool is None:
            raise ConfigurationError("executor not started")
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None


class ProcessPoolRuntime:
    """Process-pool executor rung with eager spawn validation.

    ``start()`` optionally submits a cheap ``probe`` callable once per
    worker and waits for the results.  This forces worker spawn and the
    initializer to run *now*, so environments where fork/spawn is
    unavailable — or where the initializer itself fails — surface a
    :data:`POOL_ERRORS` member while demotion is still cheap, instead
    of breaking mid-run with work in flight.
    """

    kind = PROCESS

    def __init__(
        self,
        n_workers: int,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        probe: Optional[Tuple[Callable[..., Any], Tuple[Any, ...]]] = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self._n_workers = n_workers
        self._initializer = initializer
        self._initargs = initargs
        self._probe = probe
        self._pool: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        pool = ProcessPoolExecutor(
            max_workers=self._n_workers,
            initializer=self._initializer,
            initargs=self._initargs,
        )
        if self._probe is not None:
            probe_fn, probe_args = self._probe
            try:
                futures = [
                    pool.submit(probe_fn, *probe_args)
                    for _ in range(self._n_workers)
                ]
                for future in futures:
                    future.result()
            except BaseException:
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        self._pool = pool

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        return functools.partial(_run_unit_wrapped, fn)

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        if self._pool is None:
            raise ConfigurationError("executor not started")
        return self._pool.submit(fn, *args)

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None


class Runtime:
    """Executes units of work, demoting down a fallback ladder on pool
    failure.

    The runtime resolves the requested executor ``kind`` against the
    :class:`FallbackPolicy` into a ladder of rungs.  ``start()`` builds
    the first rung that comes up; :meth:`map_units` additionally demotes
    *mid-run* when the active pool breaks, keeping the results already
    collected and re-submitting only the remaining units — so a broken
    pool costs the tail of the batch, never the whole batch.

    Each demotion emits a ``runtime``-scoped :class:`StageEvent`
    recording the failed rung, the error class, and the rung demoted
    to, so fallbacks are visible in the same observability stream as
    pipeline stage timings.
    """

    def __init__(
        self,
        kind: str,
        n_workers: Optional[int] = None,
        fallback: Optional[FallbackPolicy] = None,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        probe: Optional[Tuple[Callable[..., Any], Tuple[Any, ...]]] = None,
        thread_name_prefix: str = "repro-runtime",
        sink: Optional[StageEventSink] = None,
        transport: Optional[Any] = None,
    ) -> None:
        validate_kind(kind)
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        self.kind = kind
        self.n_workers = n_workers if n_workers is not None else 1
        self.fallback = fallback if fallback is not None else FallbackPolicy()
        self._initializer = initializer
        self._initargs = initargs
        self._probe = probe
        self._thread_name_prefix = thread_name_prefix
        self._sink = sink
        #: Optional :class:`~repro.runtime.shm.ShmTransport` moving
        #: large arrays to process workers via shared memory.  Only
        #: consulted when the realized rung is a process pool; thread
        #: and inline rungs share the parent's memory already.
        self.transport = transport
        self._rungs = self.fallback.rungs(kind)
        self._rung_index = 0
        self._executor: Optional[Any] = None
        self.fallbacks: List[str] = []

    # -- rung management -------------------------------------------------

    def _build(self, kind: str) -> Any:
        if kind == PROCESS:
            return ProcessPoolRuntime(
                n_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
                probe=self._probe,
            )
        if kind == THREAD:
            return ThreadPoolRuntime(
                n_workers=self.n_workers,
                initializer=self._initializer,
                initargs=self._initargs,
                thread_name_prefix=self._thread_name_prefix,
            )
        return InlineExecutor(
            initializer=self._initializer, initargs=self._initargs
        )

    def _emit_fallback(
        self, stage: str, failed: str, error: BaseException, to: str
    ) -> None:
        logger.warning(
            "%s executor failed (%s: %s); falling back to %s",
            failed,
            type(error).__name__,
            error,
            to,
        )
        emit_event(
            StageEvent(
                stage=stage,
                wall_s=0.0,
                fallback=to,
                error=type(error).__name__,
                scope="runtime",
            ),
            sink=self._sink,
        )

    def start(self) -> None:
        """Bring up the first rung that starts cleanly.

        Walks the ladder from the current rung, demoting on
        :data:`POOL_ERRORS`; re-raises only when the last rung fails.
        """
        while True:
            kind = self._rungs[self._rung_index]
            executor = self._build(kind)
            try:
                executor.start()
            except POOL_ERRORS as error:
                if self._rung_index + 1 >= len(self._rungs):
                    raise
                next_kind = self._rungs[self._rung_index + 1]
                self._emit_fallback("runtime.start", kind, error, next_kind)
                self.fallbacks.append(next_kind)
                self._rung_index += 1
                continue
            self._executor = executor
            return

    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def realized_kind(self) -> str:
        """The executor kind actually running (after any demotion)."""
        if self._executor is not None:
            return self._executor.kind
        return self._rungs[self._rung_index]

    @property
    def fell_back(self) -> bool:
        """Whether any demotion occurred (at start or mid-run)."""
        return bool(self.fallbacks)

    # -- execution -------------------------------------------------------

    def _transport_active(self) -> bool:
        """Whether payloads should ride the shared-memory transport."""
        return (
            self.transport is not None
            and self._executor is not None
            and self._executor.kind == PROCESS
            and self.transport.available
        )

    def _wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        if self._transport_active():
            return functools.partial(_run_unit_shm, fn)
        assert self._executor is not None
        return self._executor.wrap(fn)

    def _submit_encoded(
        self, wrapped: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        """Submit with args parked in shared memory (creator cleans up).

        The lease releases from the future's done-callback, which fires
        on normal completion, cancellation, and pool breakage alike —
        segments are reclaimed on every path.
        """
        assert self.transport is not None and self._executor is not None
        encoded, lease = self.transport.encode(args)
        try:
            future = self._executor.submit(wrapped, *encoded)
        except BaseException:
            lease.release()
            raise
        if len(lease):
            future.add_done_callback(
                lambda _future, lease=lease: lease.release()
            )
        return future

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Submit one unit to the active rung (starting it if needed).

        ``submit`` does not ladder mid-flight: a pool that breaks after
        submission surfaces through the returned future.  Callers that
        want automatic demotion use :meth:`map_units`.
        """
        if self._executor is None:
            self.start()
        assert self._executor is not None
        wrapped = self._wrap(fn)
        if self._transport_active():
            return self._submit_encoded(wrapped, args)
        return self._executor.submit(wrapped, *args)

    def map_units(
        self, fn: Callable[..., Any], units: Sequence[Any]
    ) -> List[Any]:
        """Run ``fn(unit)`` for every unit, in submission order.

        Results are collected in order, which is what makes parallel
        campaign runs bitwise-identical to serial ones.  If the active
        pool raises a :data:`POOL_ERRORS` member — at start, on submit,
        or while collecting — the completed prefix is kept and the
        remaining units continue on the next rung down.
        """
        units = list(units)
        results: List[Any] = []
        while len(results) < len(units):
            try:
                if self._executor is None:
                    self.start()
                assert self._executor is not None
                executor = self._executor
                wrapped = self._wrap(fn)
                use_transport = self._transport_active()
                pending = []
                for unit in units[len(results):]:
                    if use_transport:
                        pending.append(
                            self._submit_encoded(wrapped, (unit,))
                        )
                    else:
                        pending.append(executor.submit(wrapped, unit))
                for future in pending:
                    results.append(future.result())
            except POOL_ERRORS as error:
                failed = self.realized_kind
                self.shutdown(wait=False)
                if self._rung_index + 1 >= len(self._rungs):
                    raise
                next_kind = self._rungs[self._rung_index + 1]
                self._emit_fallback("runtime.map", failed, error, next_kind)
                self.fallbacks.append(next_kind)
                self._rung_index += 1
        return results

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def __enter__(self) -> "Runtime":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
