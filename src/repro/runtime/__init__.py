"""Unified execution layer: executors, the fallback policy, and
the StageEvent observability protocol.

All pool construction in the library lives here; ``core``, ``eval``,
``serve``, and the CLI submit units of work through a
:class:`Runtime` and observe them through :class:`StageEvent` sinks.
"""

from repro.runtime.events import (
    LatencySummary,
    NullSink,
    StageEvent,
    StageEventAggregator,
    StageEventSink,
    active_sink,
    capture_stage_events,
    emit_event,
)
from repro.runtime.executor import (
    POOL_ERRORS,
    InlineExecutor,
    ProcessPoolRuntime,
    Runtime,
    ThreadPoolRuntime,
)
from repro.runtime.policies import (
    EXECUTOR_KINDS,
    INLINE,
    PROCESS,
    THREAD,
    FallbackPolicy,
    validate_kind,
)
from repro.runtime.shm import (
    ShmLease,
    ShmRef,
    ShmTransport,
    decode_payload,
    shm_available,
)

__all__ = [
    "EXECUTOR_KINDS",
    "FallbackPolicy",
    "INLINE",
    "InlineExecutor",
    "LatencySummary",
    "NullSink",
    "POOL_ERRORS",
    "PROCESS",
    "ProcessPoolRuntime",
    "Runtime",
    "ShmLease",
    "ShmRef",
    "ShmTransport",
    "StageEvent",
    "StageEventAggregator",
    "StageEventSink",
    "THREAD",
    "ThreadPoolRuntime",
    "active_sink",
    "capture_stage_events",
    "decode_payload",
    "emit_event",
    "shm_available",
    "validate_kind",
]
