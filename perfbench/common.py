"""Shared helpers: statistics, result records and environment stamps.

The statistics here are the benchmark's own (NumPy percentiles and a
rank-sum AUC), so a change to the program's helpers cannot change how
the program is measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics as ``name -> unit``; the JSON result line of an
#: untraced run carries exactly these (see BENCHMARK.json).
END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "verdicts_per_s": "1/s",
    "auc": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; NaN on an empty sample."""
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def auc(legit: Sequence[float], attack: Sequence[float]) -> float:
    """P(legit score > attack score), ties counted half (rank-sum AUC).

    The detector scores a legitimate pair by a *high* correlation, so
    an AUC of 1 separates every attack from every legitimate command.
    """
    legit = np.asarray(legit, dtype=np.float64)
    attack = np.asarray(attack, dtype=np.float64)
    if legit.size == 0 or attack.size == 0:
        return float("nan")
    greater = (legit[:, None] > attack[None, :]).sum()
    ties = (legit[:, None] == attack[None, :]).sum()
    return float((greater + 0.5 * ties) / (legit.size * attack.size))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    ``ru_maxrss`` is in KiB on Linux.  Children count once they have
    been waited for, which the campaign's worker pool is by the time
    this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_sha() -> Optional[str]:
    """HEAD commit read from ``.git`` inside the checkout, if present."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over every ``src/**/*.py`` (path and bytes), sorted.

    Identifies the measured code where the checkout has no ``.git``.
    """
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _openblas_version() -> Optional[str]:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):  # pragma: no cover - older NumPy
        return None


def stamp() -> Dict[str, object]:
    """Where and on what the numbers were measured."""
    import scipy

    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


@dataclass
class Outcome:
    """What one run of a workload measured and whether it was correct."""

    metrics: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Human-readable lines printed before the result line.
    lines: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, condition: bool, problem: str) -> None:
        """Record ``problem`` unless ``condition`` holds."""
        if not condition:
            self.problems.append(problem)


def log(message: str) -> None:
    """Progress to stderr, so stdout holds only the report."""
    print(message, file=sys.stderr, flush=True)
