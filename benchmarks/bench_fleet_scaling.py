"""Fleet horizontal scaling on real work: served throughput vs shards.

Not a paper figure — this measures the serving fleet itself.  The same
heavy-tailed open-loop workload (Zipf-skewed traffic over a 10^5-user
population, offered above one shard's capacity) is replayed against
fleets of 1, 2, and 4 shards.  Every shard is a real warm
:class:`~repro.serve.VerificationService` (one worker, rate-distortion
segmenter, ``reject`` backpressure over an 8-slot queue) serving the
canonical recording pool (``build_recording_pool(seed=0)``), so the
table reports what the fleet tier delivers on the DSP it ships with.
Every request is protected priority, which keeps the SLO valve out of
the measurement: excess load is refused only at each shard's admission
queue, and served throughput is the fleet's capacity on this machine.

Shards share the machine's cores, so the speedup column is bounded by
the core count, not by the fleet tier; the table header records it.
Pinned claims: zero requests left unresolved, and every issued request
is served, rejected, shed or failed exactly once.  No scaling floor is
asserted: the measured table is the result.
"""

from __future__ import annotations

import os

from benchmarks.conftest import emit, run_once
from repro.eval.reporting import format_table
from repro.fleet import (
    FleetConfig,
    FleetFrontDoor,
    FleetLoadgenConfig,
    SloConfig,
    run_fleet_loadgen,
    service_shard_factory,
)
from repro.serve import PipelineSpec, ServiceConfig
from repro.serve.loadgen import build_recording_pool

SHARD_COUNTS = (1, 2, 4)
SPEC = PipelineSpec(segmenter_backend="rd")
SERVICE = ServiceConfig(
    n_workers=1, queue_capacity=8, backpressure="reject"
)
SLO = SloConfig(target_p95_s=0.15)
WORKLOAD = FleetLoadgenConfig(
    n_requests=300,
    users=100_000,
    zipf_s=1.1,
    rate_rps=40.0,  # ~2x one shard's capacity on 2 cores
    pareto_alpha=2.5,
    priority_fraction=1.0,
    seed=9200,
)


def _fleet(n_shards):
    factory = service_shard_factory(SPEC, SERVICE, slo=SLO)
    return FleetFrontDoor(
        factory,
        FleetConfig(n_shards=n_shards, slo=SLO, autoscale_interval_s=0.0),
    )


def _run_all():
    pool = build_recording_pool(seed=0)
    results = {}
    for n_shards in SHARD_COUNTS:
        with _fleet(n_shards) as fleet:
            report = run_fleet_loadgen(fleet, WORKLOAD, pool=pool)
            results[n_shards] = (report, fleet.metrics())
    return results


def test_fleet_scaling(benchmark):
    results = run_once(benchmark, _run_all)

    baseline_rps = results[SHARD_COUNTS[0]][0].throughput_rps
    rows = []
    for n_shards in SHARD_COUNTS:
        report, metrics = results[n_shards]
        assert metrics.n_unresolved == 0
        assert report.n_issued == (
            report.n_served
            + report.n_rejected
            + report.n_shed
            + report.n_failed
        )
        rows.append(
            (
                n_shards,
                report.n_served,
                report.n_rejected,
                report.n_shed,
                report.n_failed,
                f"{report.throughput_rps:.1f}",
                f"{report.latency_percentile(50) * 1e3:.0f}",
                f"{report.latency_percentile(95) * 1e3:.0f}",
                f"{report.throughput_rps / baseline_rps:.2f}x",
            )
        )

    body = format_table(
        [
            "shards", "served", "rejected", "shed", "failed",
            "served rps", "p50 ms", "p95 ms", "vs 1 shard",
        ],
        rows,
        title=(
            f"fleet scaling on real services — {WORKLOAD.n_requests} "
            f"requests, {WORKLOAD.users} Zipf(s={WORKLOAD.zipf_s}) "
            f"users, offered {WORKLOAD.rate_rps:.0f} rps; 1 worker/shard, "
            f"rd segmenter, queue {SERVICE.queue_capacity} (reject), "
            f"{os.cpu_count()} cores"
        ),
    )
    speedup = results[SHARD_COUNTS[-1]][0].throughput_rps / baseline_rps
    body += (
        f"\n\n1 -> {SHARD_COUNTS[-1]} shards served-throughput ratio: "
        f"{speedup:.2f}x"
    )
    emit("fleet_scaling", body)
