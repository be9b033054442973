"""Run-time call tracing for the per-layer metrics.

The benchmark never edits the program.  A :class:`Tracer` wraps the
public functions of each layer at run time (class attributes and module
attributes are swapped for timing wrappers) and restores them on
:meth:`Tracer.uninstall`.  Each wrapped call is a span; spans nest per
thread, so every span name has an inclusive total and a self time (its
total minus the spans it directly encloses).  The self time of a root
span (one worker batch, one campaign unit) is the time no layer span
accounts for, which the benchmark reports as unattributed.

A nested call to a span of the *same* name is folded into the outer
call, so several entry points can feed one layer name without double
counting (a batch-of-rows stage call that loops over single-row calls).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, class or None, attribute, span name).  Every entry is a
#: public entry point of one layer; the span name is ``layer.metric``.
SPANS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serve.workers", None, "execute_batch", "serve.execute_batch"),
    ("repro.core.stages", "SyncStage", "run", "core.sync"),
    ("repro.core.stages", "SegmentStage", "run", "core.segment"),
    ("repro.core.segmentation", "PhonemeSegmenter", "segments_batch",
     "core.segment"),
    ("repro.core.stages", "SenseStage", "run", "core.sense"),
    ("repro.sensing.cross_domain", "CrossDomainSensor", "convert_batch",
     "core.sense"),
    ("repro.core.stages", "FeatureStage", "run", "core.features"),
    ("repro.core.stages", "DetectStage", "run", "core.detect"),
    ("repro.nn.model", "SequenceClassifier", "forward", "nn.forward"),
    ("repro.channels.stages", "LoudspeakerStage", "apply",
     "channels.loudspeaker"),
    ("repro.channels.stages", "LoudspeakerStage", "apply_batch",
     "channels.loudspeaker"),
    ("repro.channels.stages", "BarrierStage", "apply", "channels.barrier"),
    ("repro.channels.stages", "BarrierStage", "apply_batch",
     "channels.barrier"),
    ("repro.channels.stages", "AirPropagationStage", "apply",
     "channels.air"),
    ("repro.channels.stages", "AirPropagationStage", "apply_batch",
     "channels.air"),
    # Attack and legitimate recordings propagate through air with the
    # function the air stage wraps, bound into the scenario module.
    ("repro.attacks.scenario", None, "propagate", "channels.air"),
    ("repro.channels.stages", "ConductionStage", "apply",
     "channels.conduction"),
    ("repro.channels.stages", "ConductionStage", "apply_batch",
     "channels.conduction"),
    ("repro.channels.stages", "AccelerometerStage", "apply",
     "channels.accelerometer"),
    ("repro.channels.stages", "AccelerometerStage", "apply_batch",
     "channels.accelerometer"),
    ("numpy.fft", None, "rfft", "dsp.fft"),
    ("numpy.fft", None, "irfft", "dsp.fft"),
    ("numpy.fft", None, "fft", "dsp.fft"),
    ("numpy.fft", None, "ifft", "dsp.fft"),
    ("scipy.signal", None, "sosfiltfilt", "dsp.sosfiltfilt"),
    ("repro.phonemes.corpus", "SyntheticCorpus", "utterance",
     "phonemes.synth"),
    ("repro.attacks.scenario", "AttackScenario", "attack_recordings",
     "attacks.record"),
    ("repro.attacks.scenario", "AttackScenario", "legitimate_recordings",
     "attacks.record"),
    ("repro.core.baselines", "AudioDomainBaseline", "score",
     "eval.baseline"),
    ("repro.core.baselines", "VibrationBaselineNoSelection", "score",
     "eval.baseline"),
)

#: Span names whose calls also count processed rows (``name.rows``).
_CHANNEL_SPANS = frozenset(
    name for _, _, _, name in SPANS if name.startswith("channels.")
)


def _is_5_smooth(n: int) -> bool:
    if n < 1:
        return False
    for prime in (2, 3, 5):
        while n % prime == 0:
            n //= prime
    return n == 1


def _fft_counts(
    attribute: str, args: tuple, kwargs: dict, result: np.ndarray
) -> Dict[str, float]:
    """Transform length, 5-smoothness and bytes of one FFT call."""
    signal = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    if n is None:
        n = signal.shape[axis]
        if attribute == "irfft":
            n = 2 * (n - 1)
    return {
        "dsp.fft.fastlen": float(_is_5_smooth(int(n))),
        "dsp.fft.bytes": float(signal.nbytes + np.asarray(result).nbytes),
    }


def _rows(signal) -> int:
    """Rows of a channel call: one signal is one, a batch is many."""
    signal = np.asarray(signal)
    return 1 if signal.ndim == 1 else int(signal.shape[0])


@dataclass
class _Frame:
    name: str
    child_s: float = 0.0


@dataclass
class Snapshot:
    """Accumulated span totals; picklable so workers can return it."""

    total_s: Dict[str, float] = field(default_factory=dict)
    self_s: Dict[str, float] = field(default_factory=dict)
    calls: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)

    def minus(self, earlier: "Snapshot") -> "Snapshot":
        diff = Snapshot()
        for mine, theirs, out in (
            (self.total_s, earlier.total_s, diff.total_s),
            (self.self_s, earlier.self_s, diff.self_s),
            (self.calls, earlier.calls, diff.calls),
            (self.counts, earlier.counts, diff.counts),
        ):
            for key, value in mine.items():
                out[key] = value - theirs.get(key, 0.0)
        return diff


class Tracer:
    """Installs span wrappers and accumulates their timings.

    Wrappers stay installed between :meth:`install` and
    :meth:`uninstall` but record only while :attr:`active` is set, so
    set-up work (segmenter training) never enters the per-layer totals.
    """

    def __init__(self) -> None:
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._totals: Dict[str, float] = defaultdict(float)
        self._self: Dict[str, float] = defaultdict(float)
        self._calls: Dict[str, float] = defaultdict(float)
        self._counts: Dict[str, float] = defaultdict(float)
        self._patched: List[Tuple[object, str, object]] = []
        #: Per-batch records of ``serve.execute_batch``:
        #: ``(batch size, wall seconds, request ids)``.
        self.batches: List[Tuple[int, float, Tuple[str, ...]]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, value: float) -> None:
        with self._lock:
            self._counts[key] += value

    def _wrap(
        self,
        original: Callable,
        name: str,
        attribute: str,
        method: bool,
    ) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active or tracer._open(name):
                return original(*args, **kwargs)
            start = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = tracer._exit(start)
            tracer._measure(
                name, attribute, method, args, kwargs, result, elapsed
            )
            return result

        return wrapper

    def _open(self, name: str) -> bool:
        """Whether a span called ``name`` is already open on this thread."""
        return any(frame.name == name for frame in self._stack())

    def _enter(self, name: str) -> float:
        self._stack().append(_Frame(name))
        return time.perf_counter()

    def _exit(self, start: float) -> float:
        elapsed = time.perf_counter() - start
        stack = self._stack()
        frame = stack.pop()
        if stack:
            stack[-1].child_s += elapsed
        with self._lock:
            self._totals[frame.name] += elapsed
            self._self[frame.name] += elapsed - frame.child_s
            self._calls[frame.name] += 1
        return elapsed

    def _measure(
        self,
        name: str,
        attribute: str,
        method: bool,
        args: tuple,
        kwargs: dict,
        result: object,
        elapsed: float,
    ) -> None:
        if name == "dsp.fft":
            for key, value in _fft_counts(
                attribute, args, kwargs, result
            ).items():
                self.count(key, value)
        elif name in _CHANNEL_SPANS:
            # Stage methods take (self, signal, ...); functions (signal, ...).
            self.count("channels.rows", _rows(args[1 if method else 0]))
        elif name == "nn.forward":
            self.count("nn.forward.rows", int(np.asarray(args[1]).shape[0]))
        elif name == "serve.execute_batch":
            _, _, items = args[0]
            if items:
                with self._lock:
                    self.batches.append(
                        (
                            len(items),
                            elapsed,
                            tuple(req.request_id for req, _ in items),
                        )
                    )

    # -- lifecycle --------------------------------------------------------

    def install(self) -> None:
        """Swap every :data:`SPANS` entry point for its wrapper."""
        if self._patched:
            return
        for module_name, class_name, attribute, name in SPANS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(
                module, class_name
            )
            # An inherited method is wrapped on the subclass and deleted
            # again on uninstall, so the base class is never touched.
            own = owner.__dict__.get(attribute)
            original = getattr(owner, attribute)
            setattr(
                owner,
                attribute,
                self._wrap(original, name, attribute, class_name is not None),
            )
            self._patched.append((owner, attribute, own))

    @contextlib.contextmanager
    def recording(self):
        """Install the wrappers and record for the ``with`` body only."""
        self.install()
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    def uninstall(self) -> None:
        """Restore every wrapped attribute (idempotent)."""
        while self._patched:
            owner, attribute, own = self._patched.pop()
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)

    def snapshot(self) -> Snapshot:
        with self._lock:
            return Snapshot(
                total_s=dict(self._totals),
                self_s=dict(self._self),
                calls=dict(self._calls),
                counts=dict(self._counts),
            )

    def absorb(self, snapshot: Snapshot) -> None:
        """Fold a snapshot recorded in a worker process into this one."""
        with self._lock:
            for mine, theirs in (
                (self._totals, snapshot.total_s),
                (self._self, snapshot.self_s),
                (self._calls, snapshot.calls),
                (self._counts, snapshot.counts),
            ):
                for key, value in theirs.items():
                    mine[key] += value


# ----------------------------------------------------------------------
# Campaign units run in worker processes.  The runner looks its unit
# function up by module attribute, so the traced campaign swaps in
# :func:`traced_unit`, which records the unit's spans in whichever
# process runs it and returns them with the unit's scores.  Forked
# workers inherit the parent's installed tracer; spawned ones install
# their own on first use.
# ----------------------------------------------------------------------

_PROCESS_TRACER: Optional[Tracer] = None
_ORIGINAL_UNIT: Optional[Callable] = None


def set_process_tracer(tracer: Optional[Tracer]) -> None:
    """Make ``tracer`` the one :func:`traced_unit` records into."""
    global _PROCESS_TRACER
    _PROCESS_TRACER = tracer


def _original_unit() -> Callable:
    if _ORIGINAL_UNIT is not None:
        return _ORIGINAL_UNIT
    from repro.eval import runner

    return runner._score_unit_in_worker


@dataclass
class TracedUnit:
    """One unit's scores plus the spans recorded while scoring it."""

    scores: object
    trace: Snapshot
    pid: int


def traced_unit(unit):
    """The runner's unit function, with the unit's spans attached.

    Returns the runner's ``(scores, wall_s, stage_s)`` triple with
    ``scores`` wrapped in a :class:`TracedUnit`; the caller unwraps it
    and folds the snapshot in when it came from another process.
    """
    global _PROCESS_TRACER
    if _PROCESS_TRACER is None:
        _PROCESS_TRACER = Tracer()
        _PROCESS_TRACER.install()
        _PROCESS_TRACER.active = True
    tracer = _PROCESS_TRACER
    before = tracer.snapshot()
    start = tracer._enter("eval.unit")
    try:
        scores, wall_s, stage_s = _original_unit()(unit)
    finally:
        tracer._exit(start)
    traced = TracedUnit(
        scores=scores,
        trace=tracer.snapshot().minus(before),
        pid=os.getpid(),
    )
    return traced, wall_s, stage_s


def install_unit_wrapper() -> None:
    """Point the campaign runner at :func:`traced_unit`."""
    global _ORIGINAL_UNIT
    from repro.eval import runner

    if _ORIGINAL_UNIT is None:
        _ORIGINAL_UNIT = runner._score_unit_in_worker
        runner._score_unit_in_worker = traced_unit


def uninstall_unit_wrapper() -> None:
    global _ORIGINAL_UNIT
    from repro.eval import runner

    if _ORIGINAL_UNIT is not None:
        runner._score_unit_in_worker = _ORIGINAL_UNIT
        _ORIGINAL_UNIT = None
