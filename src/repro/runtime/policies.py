"""Declarative execution policies for the runtime layer.

A :class:`FallbackPolicy` names the ordered ladder of executor kinds a
:class:`~repro.runtime.executor.Runtime` may demote through when a pool
cannot spawn (restricted environments) or breaks mid-run (workers
killed, unpicklable payloads).  It is a small frozen dataclass, so it
pickles cleanly into worker processes and prints usefully in logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError

#: Executor kinds understood by the runtime, fastest-isolation first.
INLINE = "inline"
THREAD = "thread"
PROCESS = "process"
EXECUTOR_KINDS: Tuple[str, ...] = (PROCESS, THREAD, INLINE)


def validate_kind(kind: str) -> str:
    """Reject unknown executor kinds with a uniform error."""
    if kind not in EXECUTOR_KINDS:
        choices = ", ".join(EXECUTOR_KINDS)
        raise ConfigurationError(
            f"unknown executor kind {kind!r}; choose one of: {choices}"
        )
    return kind


@dataclass(frozen=True)
class FallbackPolicy:
    """Ordered executor-kind ladder a runtime may demote through.

    The default ladder is the library-wide contract: process pools fall
    back to threads, threads fall back to inline (in-process, serial)
    execution.  Callers that must never cross a rung declare a shorter
    ladder — e.g. the campaign runner uses ``("process", "inline")``
    because its units are CPU-bound pure Python, where a thread rung
    adds GIL contention without isolation.
    """

    ladder: Tuple[str, ...] = (PROCESS, THREAD, INLINE)

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ConfigurationError("fallback ladder must be non-empty")
        seen = set()
        for kind in self.ladder:
            validate_kind(kind)
            if kind in seen:
                raise ConfigurationError(
                    f"fallback ladder repeats kind {kind!r}"
                )
            seen.add(kind)

    def rungs(self, kind: str) -> Tuple[str, ...]:
        """Sub-ladder starting at the requested ``kind``.

        A kind absent from the ladder gets a single-rung ladder — it
        runs with no fallback at all (e.g. an explicitly requested
        ``thread`` executor under a ``("process", "inline")`` ladder).
        """
        validate_kind(kind)
        if kind not in self.ladder:
            return (kind,)
        index = self.ladder.index(kind)
        return self.ladder[index:]
