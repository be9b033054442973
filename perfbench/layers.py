"""Per-layer metric names and their derivation from a trace snapshot.

Times are busy milliseconds per item (served request or scored
campaign sample), summed over every thread and process that did the
work, so they are comparable between a 1-request batch and an 8-request
one.  Shares are fractions of the workload's busy time (worker batch
time when serving, campaign unit time otherwise).  A layer that does
not run on a workload reports 0.
"""

from __future__ import annotations

from typing import Dict

from perfbench.trace import Snapshot

#: Every per-layer metric as ``name -> unit`` (see BENCHMARK.json).
PER_LAYER = {
    "serve.queue_wait_ms.p50": "ms",
    "serve.queue_wait_ms.p95": "ms",
    "serve.batch_size.mean": "requests",
    "serve.batches": "count",
    "serve.exec_ms.per_request": "ms",
    "serve.overhead_ms.p50": "ms",
    "serve.execute_batch_rps.b1": "1/s",
    "serve.execute_batch_rps.b8": "1/s",
    "serve.execute_batch_rps.b16": "1/s",
    "loadgen.gen_lag_p95_ms": "ms",
    "core.sync_ms": "ms",
    "core.segment_ms": "ms",
    "core.sense_ms": "ms",
    "core.features_ms": "ms",
    "core.detect_ms": "ms",
    "core.sense_share": "ratio",
    "core.unattributed_ms": "ms",
    "nn.forward_ms": "ms",
    "nn.forward_rows.mean": "rows",
    "channels.loudspeaker_ms": "ms",
    "channels.barrier_ms": "ms",
    "channels.air_ms": "ms",
    "channels.conduction_ms": "ms",
    "channels.accelerometer_ms": "ms",
    "channels.rows_per_call.mean": "rows",
    "dsp.fft_ms": "ms",
    "dsp.fft_calls": "count",
    "dsp.fft_share": "ratio",
    "dsp.fft_mb": "MB",
    "dsp.fft_fastlen_share": "ratio",
    "dsp.sosfiltfilt_ms": "ms",
    "dsp.sosfiltfilt_calls": "count",
    "phonemes.synth_ms": "ms",
    "attacks.record_ms": "ms",
    "eval.baseline_ms": "ms",
    "eval.unit_ms": "ms",
    "eval.unattributed_ms": "ms",
    "runtime.parallel_efficiency": "ratio",
    "trace.overhead": "ratio",
}

#: Per-item busy time of each span name.
_TIMED = {
    "core.sync_ms": "core.sync",
    "core.segment_ms": "core.segment",
    "core.sense_ms": "core.sense",
    "core.features_ms": "core.features",
    "core.detect_ms": "core.detect",
    "nn.forward_ms": "nn.forward",
    "channels.loudspeaker_ms": "channels.loudspeaker",
    "channels.barrier_ms": "channels.barrier",
    "channels.air_ms": "channels.air",
    "channels.conduction_ms": "channels.conduction",
    "channels.accelerometer_ms": "channels.accelerometer",
    "dsp.fft_ms": "dsp.fft",
    "dsp.sosfiltfilt_ms": "dsp.sosfiltfilt",
    "phonemes.synth_ms": "phonemes.synth",
    "attacks.record_ms": "attacks.record",
    "eval.baseline_ms": "eval.baseline",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def span_metrics(
    snapshot: Snapshot, n_items: int, work_span: str
) -> Dict[str, float]:
    """Layer metrics shared by every workload.

    ``work_span`` names the root span whose total is the workload's
    busy time and whose self time is the unattributed remainder.
    """
    total = snapshot.total_s
    calls = snapshot.calls
    counts = snapshot.counts
    per_item_ms = 1e3 / max(n_items, 1)
    metrics = {
        name: total.get(span, 0.0) * per_item_ms
        for name, span in _TIMED.items()
    }
    work_s = total.get(work_span, 0.0)
    unattributed_ms = snapshot.self_s.get(work_span, 0.0) * per_item_ms
    if work_span == "eval.unit":
        metrics["eval.unit_ms"] = work_s * per_item_ms
        metrics["eval.unattributed_ms"] = unattributed_ms
    else:
        metrics["core.unattributed_ms"] = unattributed_ms
    channel_calls = sum(
        value for key, value in calls.items() if key.startswith("channels.")
    )
    fft_calls = calls.get("dsp.fft", 0.0)
    metrics.update(
        {
            "core.sense_share": _ratio(total.get("core.sense", 0.0), work_s),
            "nn.forward_rows.mean": _ratio(
                counts.get("nn.forward.rows", 0.0), calls.get("nn.forward", 0.0)
            ),
            "channels.rows_per_call.mean": _ratio(
                counts.get("channels.rows", 0.0), channel_calls
            ),
            "dsp.fft_calls": fft_calls / max(n_items, 1),
            "dsp.fft_share": _ratio(total.get("dsp.fft", 0.0), work_s),
            "dsp.fft_mb": counts.get("dsp.fft.bytes", 0.0)
            / 1e6
            / max(n_items, 1),
            "dsp.fft_fastlen_share": _ratio(
                counts.get("dsp.fft.fastlen", 0.0), fft_calls
            ),
            "dsp.sosfiltfilt_calls": calls.get("dsp.sosfiltfilt", 0.0)
            / max(n_items, 1),
        }
    )
    return metrics
