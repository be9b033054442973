"""Benchmark launcher.

Usage, from the repository root::

    python3 perfbench/run.py --workload {live-mixed,campaign} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the workload once untraced and once with the
layer wrappers of ``perfbench/trace.py`` installed, and reports the
per-layer metrics.  Progress goes to stderr.  Stdout ends with a
stamped record line and then the result line::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

The exit code is non-zero when a correctness check fails or the
program cannot be imported (``src/`` missing).
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("live-mixed", "campaign")
#: Workers every workload runs (serve threads, campaign processes).
LOAD_WORKERS = 2
#: Extra fresh-process set-ups per untraced run; ``setup_s`` is the
#: median of these and the run's own set-up.
SETUP_PROBES = 2
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up, print the set-up time and exit",
    )
    return parser.parse_args(argv)


def _pin_blas_threads() -> None:
    """Cap BLAS/OpenMP pools before NumPy loads.

    Each of the load's workers gets an equal share of the CPUs this
    process may use, so workers x BLAS threads never exceeds ``nproc``
    (oversubscribed BLAS threads spin and delay the load generator).
    """
    limit = max(1, len(os.sched_getaffinity(0)) // LOAD_WORKERS)
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= limit:
            os.environ[var] = str(limit)


def _setup_probes(args) -> list:
    """Set-up times of the workload in fresh interpreters.

    The probes run side by side: each set-up is single-threaded (BLAS
    is pinned), so on two or more CPUs they do not slow each other.
    """
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-probe",
    ]
    probes = [
        subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        for _ in range(SETUP_PROBES)
    ]
    times = []
    try:
        for probe in probes:
            out, err = probe.communicate(timeout=150)
            if probe.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{err}")
            times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    finally:
        for probe in probes:
            if probe.poll() is None:
                probe.kill()
                probe.wait()
    return times


def _children() -> list:
    """Process ids whose parent is this process, read from ``/proc``."""
    own = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; the parent id follows the
        # state field after its closing parenthesis.
        if int(stat.rsplit(")", 1)[1].split()[1]) == own:
            pids.append(int(entry.name))
    return pids


def _stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Shared memory starts multiprocessing's resource tracker, which
    otherwise outlives the launcher until it notices its closed pipe.
    It is stopped through its own pipe, so it can still unlink any
    segment left registered; anything else still running is killed.
    """
    gc.collect()
    if "multiprocessing.resource_tracker" in sys.modules:
        tracker = sys.modules["multiprocessing.resource_tracker"]
        tracker._resource_tracker._stop()
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.campaign import CAMPAIGN
    from perfbench.common import END_TO_END, Outcome, log, peak_rss_mb, stamp
    from perfbench.layers import PER_LAYER
    from perfbench.serving import LIVE_MIXED
    from perfbench.trace import Tracer

    workload = {"live-mixed": LIVE_MIXED, "campaign": CAMPAIGN}[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        workload.teardown(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    outcome = Outcome()
    try:
        workload.run(
            state,
            args.seed,
            args.seconds,
            Tracer() if args.trace else None,
            outcome,
        )
    finally:
        workload.teardown(state)

    if args.trace:
        reported, units = outcome.per_layer, PER_LAYER
    else:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        setups = [setup_s] + _setup_probes(args)
        log(f"set-up times: {', '.join(f'{s:.3f}' for s in setups)} s")
        outcome.metrics["setup_s"] = statistics.median(setups)
        reported, units = outcome.metrics, END_TO_END
    metrics = {
        name: {"value": float(reported.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }

    for name, entry in metrics.items():
        print(f"{name}: {entry['value']:.6g} {entry['unit']}")
    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "record": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **stamp(),
        }
    }))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        _stop_children()
    sys.exit(code)
