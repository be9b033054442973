"""End-to-end and per-layer benchmark of the repro defense.

Run it from the repository root::

    python3 perfbench/run.py --workload live-mixed --seed 1 --seconds 45 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and which
layer metric is expected to move which end-to-end metric.
"""
