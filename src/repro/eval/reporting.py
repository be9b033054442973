"""Plain-text reporting helpers for benchmarks and examples.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers format them consistently without any plotting
dependency.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.runtime import LatencySummary


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render a fixed-width ASCII table."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    separator = "-+-".join("-" * width for width in widths)
    lines.append(
        " | ".join(
            header.ljust(width) for header, width in zip(headers, widths)
        )
    )
    lines.append(separator)
    for row in rendered_rows:
        lines.append(
            " | ".join(
                cell.ljust(width) for cell, width in zip(row, widths)
            )
        )
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    x_values: Sequence[object],
    y_values: Sequence[float],
    title: str = "",
    y_format: str = "{:.3f}",
) -> str:
    """Render an (x, y) series as the rows behind a figure panel."""
    rows = [
        (x, y_format.format(y)) for x, y in zip(x_values, y_values)
    ]
    return format_table([x_label, y_label], rows, title=title)


def format_roc_summary(
    title: str,
    metrics_by_detector: Mapping[str, object],
    paper_auc: Mapping[str, float] = None,
    paper_eer: Mapping[str, float] = None,
) -> str:
    """Render the AUC/EER comparison block of a Fig. 9/10 panel."""
    headers = ["detector", "AUC", "EER"]
    if paper_auc:
        headers += ["paper AUC", "paper EER"]
    rows = []
    for detector, metrics in metrics_by_detector.items():
        row = [
            detector,
            f"{metrics.auc:.3f}",
            f"{metrics.eer * 100:.1f}%",
        ]
        if paper_auc:
            row += [
                f"{paper_auc.get(detector, float('nan')):.3f}",
                f"{paper_eer.get(detector, float('nan')) * 100:.1f}%",
            ]
        rows.append(row)
    return format_table(headers, rows, title=title)


def ordered_stages(stages: Iterable[str]) -> List[str]:
    """Stage names in pipeline order: the
    :data:`~repro.core.pipeline.PIPELINE_STAGES` present in
    ``stages`` first, then any others sorted by name."""
    from repro.core.pipeline import PIPELINE_STAGES

    present = set(stages)
    pipeline = [stage for stage in PIPELINE_STAGES if stage in present]
    return pipeline + sorted(present.difference(PIPELINE_STAGES))


def _stage_rows(
    summaries: Mapping[str, LatencySummary]
) -> List[Tuple[str, Optional[LatencySummary]]]:
    """``(stage, summary)`` latency-table rows in pipeline order."""
    return [(stage, summaries[stage]) for stage in ordered_stages(summaries)]


def format_latency_table(
    rows: Iterable[Tuple[str, Optional[LatencySummary]]],
    title: str = "latency percentiles",
) -> str:
    """The one latency table: a ``stage | n | p50 ms | p95 ms | p99 ms``
    row per ``(label, summary)``; rows without a summary are skipped,
    and no rows renders as the empty string."""
    rendered = [
        (
            label,
            summary.count,
            f"{summary.p50_s * 1e3:.1f}",
            f"{summary.p95_s * 1e3:.1f}",
            f"{summary.p99_s * 1e3:.1f}",
        )
        for label, summary in rows
        if summary is not None
    ]
    if not rendered:
        return ""
    return format_table(
        ["stage", "n", "p50 ms", "p95 ms", "p99 ms"], rendered, title=title
    )


def format_fallbacks(counts: Mapping[str, int]) -> str:
    """``stage:fallback xN`` pairs, sorted by key."""
    return ", ".join(f"{key} x{n}" for key, n in sorted(counts.items()))


def format_runner_stats(stats, max_units: int = 12) -> str:
    """Render a :class:`repro.eval.runner.CampaignStats` block.

    Shows the end-to-end wall clock, throughput, and realized speedup
    (summed per-unit time over outer wall time), followed by the
    slowest per-unit rows (all rows when there are at most
    ``max_units``).
    """
    lines = [
        (
            f"campaign: {stats.n_units} units, {stats.n_samples} samples "
            f"in {stats.wall_s:.2f}s "
            f"({stats.samples_per_s:.2f} samples/s, "
            f"{stats.n_workers} worker(s), {stats.mode})"
        )
    ]
    if stats.units and stats.wall_s > 0:
        lines.append(
            f"unit work {stats.unit_wall_s:.2f}s -> speedup "
            f"{stats.unit_wall_s / stats.wall_s:.2f}x"
        )
    stage_totals = stats.stage_totals
    if stage_totals:
        lines.append(
            "stages: "
            + ", ".join(
                f"{stage} {stage_totals[stage]:.2f}s"
                for stage in ordered_stages(stage_totals)
            )
        )
        lines.append(
            format_latency_table(
                _stage_rows(stats.stage_latency),
                title="per-unit stage time percentiles",
            )
        )
    units = sorted(stats.units, key=lambda u: u.wall_s, reverse=True)
    shown = units[:max_units]
    if shown:
        rows = [
            (
                unit.label,
                f"{unit.wall_s:.2f}",
                unit.n_samples,
                f"{unit.samples_per_s:.2f}",
            )
            for unit in shown
        ]
        title = (
            "per-unit wall clock"
            if len(shown) == len(units)
            else f"slowest {len(shown)} of {len(units)} units"
        )
        lines.append(
            format_table(
                ["unit", "wall s", "samples", "samples/s"],
                rows,
                title=title,
            )
        )
    return "\n".join(lines)


def format_service_metrics(metrics) -> str:
    """Render a :class:`repro.serve.metrics.ServiceMetrics` snapshot.

    Mirrors :func:`format_runner_stats`: a headline counters block
    followed by a fixed-width latency-percentile table with one row per
    pipeline stage plus queue wait and end-to-end latency (all in
    milliseconds).
    """
    degraded = (
        f" ({metrics.n_degraded} degraded)" if metrics.n_degraded else ""
    )
    lines = [
        (
            f"service: {metrics.n_submitted} submitted, "
            f"{metrics.n_served} served{degraded}, "
            f"{metrics.n_rejected} rejected, {metrics.n_shed} shed, "
            f"{metrics.n_failed} failed"
        ),
        (
            f"batches: {metrics.n_batches} "
            f"(mean size {metrics.mean_batch_size:.2f}); "
            f"queue depth {metrics.queue_depth}, "
            f"pending {metrics.n_pending}; "
            f"{metrics.wall_s:.2f}s wall, "
            f"{metrics.throughput_rps:.2f} req/s"
        ),
    ]
    controller = metrics.batch_controller
    if controller is not None:
        p95 = controller.rolling_p95_s
        p95_text = f"{p95 * 1e3:.1f} ms" if p95 == p95 else "n/a"
        lines.append(
            f"adaptive batching: size {controller.batch_size}, "
            f"{controller.n_grow} grows, {controller.n_shrink} shrinks "
            f"({controller.n_decisions} decisions); "
            f"rolling p95 {p95_text}"
        )
    if metrics.stage_fallbacks:
        lines.append(
            f"fallbacks: {format_fallbacks(metrics.stage_fallbacks)}"
        )
    table = format_latency_table(
        _stage_rows(metrics.stage_latency)
        + [
            ("queue-wait", metrics.queue_wait),
            ("total", metrics.total_latency),
        ]
    )
    if table:
        lines.append(table)
    return "\n".join(lines)


def format_loadgen_report(report, label: str) -> str:
    """Render a :class:`repro.serve.loadgen.LoadgenReport`: one
    headline of client-side tallies plus the client latency table."""
    degraded = (
        f" ({report.n_degraded} degraded)" if report.n_degraded else ""
    )
    rerouted = (
        f", {report.n_rerouted} rerouted" if report.n_rerouted else ""
    )
    lines = [
        f"{label}: {report.n_issued} issued, "
        f"{report.n_served} served{degraded}{rerouted}, "
        f"{report.n_rejected} rejected, {report.n_shed} shed, "
        f"{report.n_failed} failed in {report.wall_s:.2f}s "
        f"({report.throughput_rps:.2f} req/s)"
    ]
    table = format_latency_table(
        [("client", report.latency)],
        title="client latency p50/p95/p99",
    )
    if table:
        lines.append(table)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Tiny unicode sparkline for quick visual sanity checks."""
    blocks = "▁▂▃▄▅▆▇█"
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return ""
    if array.size > width:
        indices = np.linspace(0, array.size - 1, width).astype(int)
        array = array[indices]
    low, high = float(array.min()), float(array.max())
    span = high - low if high > low else 1.0
    return "".join(
        blocks[int((value - low) / span * (len(blocks) - 1))]
        for value in array
    )
