"""The serving workload ``live-mixed``: per-command latency.

It drives one in-process :class:`repro.serve.VerificationService` at
the ``repro serve`` defaults (2 thread workers, batch 8, 20 ms batching
window, block backpressure) with the paper-recipe BLSTM segmenter and
no artifact store.  Load is open loop: this module sends every request
at its scheduled time from one thread and times each verdict from that
schedule, so a stalled generator or a growing backlog shows up in the
latency instead of hiding behind the submit time.

Arrivals are seeded Poisson at 6 req/s (about 60 % of batch-1 capacity
on 2 cores).  Each request is a recording-pool pair with an independent
0-0.25 s trim at the head and the tail of each side, so requests almost
never share a length: batches stay near 1 and every per-length cache
misses.  This is the latency one user sees.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from perfbench.common import Outcome, auc, log, percentile
from perfbench.layers import span_metrics

AUDIO_RATE = 16_000.0
LIVE_RATE_RPS = 6.0
TRIM_MAX_S = 0.25
#: Served requests re-scored sequentially by the correctness check.
RESCORE_SAMPLE = 6
#: Batch sizes of the direct ``execute_batch`` probe (traced runs).
DIRECT_BATCH_SIZES = (1, 8, 16)
#: Share of ``--seconds`` each direct probe batch size runs for.
DIRECT_PROBE_SHARE = 1 / 12
#: Longest a run waits for its last verdict.
DRAIN_TIMEOUT_S = 120.0


def setup():
    """Start the service and return once it has answered a request.

    Thread workers train the segmenter when they first run, so ready
    means one answered batch: two requests of seeded noise.
    """
    from repro.serve import PipelineSpec, ServiceConfig, VerificationService

    service = VerificationService(PipelineSpec(), ServiceConfig())
    service.start()
    noise = np.random.default_rng(0).standard_normal((4, int(2 * AUDIO_RATE)))
    futures = [
        service.submit(_request(noise[i], noise[i + 2], i, f"warm-{i}"))
        for i in range(2)
    ]
    for future in futures:
        future.result()
    return service


@dataclass
class Plan:
    """Requests of one pass, their send schedule and ground truth."""

    requests: list
    offsets_s: np.ndarray
    is_attack: List[bool]


def _rng(seed: int, *labels: int) -> np.random.Generator:
    return np.random.default_rng([seed, *labels])


def _request(va, wearable, seed: int, request_id: str):
    from repro.serve import VerificationRequest

    return VerificationRequest(
        va_audio=va,
        wearable_audio=wearable,
        seed=int(seed),
        request_id=request_id,
        audio_rate=AUDIO_RATE,
    )


#: Seed of the ROADMAP's canonical recording pool.  Fixed: the pool's
#: six lengths decide the FFT cost, and pools of other seeds differ in
#: capacity by up to 30 %, which would drown a code change in input
#: noise.  ``--seed`` drives arrivals, pair order, trims and request
#: seeds instead.
CANONICAL_POOL_SEED = 0


def build_pool():
    from repro.serve import build_recording_pool

    return build_recording_pool(seed=CANONICAL_POOL_SEED)


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1), one per stratum, in random order.

    Every seed then draws the same distribution of gaps, pairs and
    trims, and only their order differs.
    """
    return (rng.permutation(n) + rng.random(n)) / n


def live_mixed_plan(pool, seed: int, seconds: float, pass_index: int) -> Plan:
    """Trimmed pool pairs on a stratified Poisson schedule.

    The ``n - 1`` inter-arrival gaps are exponential quantiles, one per
    stratum, shuffled, and rescaled to a mean of exactly
    ``1 / LIVE_RATE_RPS``; each pool pair is used equally often.
    """
    rng = _rng(seed, 1, pass_index)
    n = max(2, int(round(LIVE_RATE_RPS * seconds)))
    gaps = -np.log1p(-_stratified(rng, n - 1))
    gaps *= (n - 1) / LIVE_RATE_RPS / gaps.sum()
    offsets = np.concatenate([[0.0], np.cumsum(gaps)])
    pair_of = rng.permutation(np.arange(n) % len(pool.pairs))
    max_trim = TRIM_MAX_S * AUDIO_RATE
    trims = [(_stratified(rng, n) * max_trim).astype(int) for _ in range(4)]
    requests, labels = [], []
    for index in range(n):
        va, wearable, is_attack = pool.pairs[pair_of[index]]
        va_head, va_tail, wear_head, wear_tail = (t[index] for t in trims)
        requests.append(
            _request(
                va[va_head : va.size - va_tail],
                wearable[wear_head : wearable.size - wear_tail],
                rng.integers(2**31),
                f"live-{pass_index}-{index}",
            )
        )
        labels.append(bool(is_attack))
    return Plan(requests, offsets, labels)


def pool_requests(pool, seed: int, n: int) -> list:
    """``n`` untrimmed pool pairs, round robin, with seeded request seeds."""
    rng = _rng(seed, 2)
    requests = []
    for index in range(n):
        va, wearable, _ = pool.pairs[index % len(pool.pairs)]
        requests.append(
            _request(va, wearable, rng.integers(2**31), f"pool-{index}")
        )
    return requests


@dataclass
class PassResult:
    """Raw observations of one open-loop pass."""

    plan: Plan
    start: float
    lags_s: np.ndarray
    done_at: List[Optional[float]]
    #: ``None`` where ``submit`` refused the request (rejected).
    futures: list
    responses: list
    #: Mean micro-batch size over the pass, from the service's counters.
    mean_batch: float


def drive(service, plan: Plan) -> PassResult:
    """Send ``plan`` on its schedule and wait for every verdict."""
    from repro.errors import ServiceOverloadError

    n = len(plan.requests)
    done_at: List[Optional[float]] = [None] * n
    futures: list = [None] * n
    lags = np.zeros(n)
    pending = [0]
    finished = threading.Condition()

    def stamp(index: int, _future) -> None:
        with finished:
            done_at[index] = time.monotonic()
            pending[0] -= 1
            finished.notify_all()

    counters = service.metrics_collector
    batches_before = counters.n_batches
    batched_before = counters.n_batched_requests
    start = time.monotonic() + 0.05
    for index, request in enumerate(plan.requests):
        target = start + plan.offsets_s[index]
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        lags[index] = time.monotonic() - target
        try:
            future = service.submit(request)
        except ServiceOverloadError:
            continue
        with finished:
            pending[0] += 1
        future.add_done_callback(functools.partial(stamp, index))
        futures[index] = future
    with finished:
        finished.wait_for(lambda: pending[0] == 0, timeout=DRAIN_TIMEOUT_S)
    responses = [
        None if future is None or not future.done() else future.result()
        for future in futures
    ]
    mean_batch = (counters.n_batched_requests - batched_before) / max(
        counters.n_batches - batches_before, 1
    )
    return PassResult(
        plan, start, lags, done_at, futures, responses, mean_batch
    )


def _served(result: PassResult):
    from repro.serve import RequestStatus

    for index, response in enumerate(result.responses):
        if response is not None and response.status is RequestStatus.SERVED:
            yield index, response


def account(result: PassResult, outcome: Outcome) -> dict:
    """Check one pass and reduce it to its end-to-end figures."""
    from repro.serve import RequestStatus

    plan = result.plan
    n = len(plan.requests)
    terminal = [r for r in result.responses if r is not None]
    outcome.check(
        all(
            future is None or future.done() for future in result.futures
        ),
        f"a request got no verdict within {DRAIN_TIMEOUT_S:.0f} s",
    )
    outcome.check(
        all(isinstance(r.status, RequestStatus) for r in terminal),
        "a response has no terminal status",
    )
    outcome.check(
        all(
            r.request_id == plan.requests[i].request_id
            for i, r in enumerate(result.responses)
            if r is not None
        ),
        "a response answers another request",
    )
    served = list(_served(result))
    finite = [
        (i, r) for i, r in served if r.verdict is not None
        and np.isfinite(r.verdict.score)
    ]
    outcome.check(
        len(finite) == len(served), "a served score is not finite"
    )
    outcome.check(
        not any(r.degraded for _, r in served),
        "a request without a deadline was degraded",
    )
    latencies_ms = [
        (result.done_at[i] - (result.start + plan.offsets_s[i])) * 1e3
        for i, _ in finite
    ]
    last = max((t for t in result.done_at if t is not None), default=None)
    wall = (last - result.start) if last is not None else float("nan")
    legit = [r.verdict.score for i, r in finite if not plan.is_attack[i]]
    attack = [r.verdict.score for i, r in finite if plan.is_attack[i]]
    outcome.attempted += n
    outcome.failed += n - len(finite)
    return {
        "latencies_ms": latencies_ms,
        "verdicts_per_s": len(finite) / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "legit": legit,
        "attack": attack,
        "fail_rate": (n - len(finite)) / n,
        "gen_lag_p95_ms": percentile(result.lags_s * 1e3, 95),
        "mean_batch": result.mean_batch,
    }


def rescore(
    service, result: PassResult, seed: int, outcome: Outcome
) -> None:
    """Sequential ``DefensePipeline.analyze`` must match served scores bitwise."""
    pipeline = service.spec.build_pipeline(AUDIO_RATE, False)
    served = list(_served(result))
    rng = _rng(seed, 9)
    picks = rng.choice(
        len(served), size=min(RESCORE_SAMPLE, len(served)), replace=False
    )
    for pick in sorted(int(p) for p in picks):
        index, response = served[pick]
        request = result.plan.requests[index]
        expected = pipeline.analyze(
            request.va_audio, request.wearable_audio, rng=int(request.seed)
        ).score
        outcome.check(
            float(expected).hex() == float(response.verdict.score).hex(),
            f"{request.request_id}: served score {response.verdict.score!r}"
            f" != sequential {expected!r}",
        )


def warm_up(service, pool) -> None:
    """One untimed verdict per pool pair, so caches keyed by the pool's
    lengths are filled before timing, as in a service that has been up
    for a while."""
    futures = [
        service.submit(_request(va, wearable, index, f"warm-pool-{index}"))
        for index, (va, wearable, _) in enumerate(pool.pairs)
    ]
    for future in futures:
        future.result()


def direct_rps(service, requests: list, batch: int, seconds: float) -> float:
    """Requests/s of ``execute_batch`` called directly at ``batch``."""
    from repro.serve.workers import execute_batch

    key = (AUDIO_RATE, False)
    done = offset = 0
    start = time.perf_counter()
    while done < 2 * batch or time.perf_counter() - start < seconds:
        items = [
            (requests[(offset + k) % len(requests)], 0.0)
            for k in range(batch)
        ]
        offset += batch
        results = execute_batch((service.spec, key, items))
        done += sum(1 for r in results if r.error is None)
    return done / (time.perf_counter() - start)


class LiveMixedWorkload:
    """Set-up, measurement and checks of ``live-mixed``."""

    name = "live-mixed"

    @staticmethod
    def setup(seed: int):
        return setup()

    @staticmethod
    def teardown(service) -> None:
        service.stop()

    def run(self, service, seed, seconds, tracer, outcome: Outcome) -> None:
        pool = build_pool()
        if tracer is None:
            plans = [live_mixed_plan(pool, seed, seconds, 0)]
        else:
            plans = [
                live_mixed_plan(pool, seed, seconds / 2, 0),
                live_mixed_plan(pool, seed, seconds / 2, 1),
            ]
        warm_up(service, pool)
        log(f"{self.name}: {len(plans[0].requests)} requests per pass")
        first = drive(service, plans[0])
        figures = account(first, outcome)
        rescore(service, first, seed, outcome)
        if tracer is None:
            self._report(figures, outcome)
            return
        with tracer.recording():
            traced = drive(service, plans[1])
        traced_figures = account(traced, outcome)
        rescore(service, traced, seed, outcome)
        layers = self._layers(service, traced, tracer)
        layers["loadgen.gen_lag_p95_ms"] = traced_figures["gen_lag_p95_ms"]
        layers["trace.overhead"] = (
            traced_figures["verdicts_per_s"] / figures["verdicts_per_s"]
        )
        # On the untrimmed pool, as the ROADMAP measured it: 6 lengths,
        # so exact-length bucketing can batch.
        requests = pool_requests(pool, seed, max(DIRECT_BATCH_SIZES))
        for size in DIRECT_BATCH_SIZES:
            layers[f"serve.execute_batch_rps.b{size}"] = direct_rps(
                service, requests, size, seconds * DIRECT_PROBE_SHARE
            )
        outcome.per_layer.update(layers)

    def _report(self, figures: dict, outcome: Outcome) -> None:
        latencies = figures["latencies_ms"]
        outcome.metrics.update(
            {
                "latency_p50_ms": percentile(latencies, 50),
                "latency_p95_ms": percentile(latencies, 95),
                "verdicts_per_s": figures["verdicts_per_s"],
                "auc": auc(figures["legit"], figures["attack"]),
            }
        )
        outcome.lines.append(f"latency samples: {len(latencies)}")
        outcome.lines.append(f"fail_rate: {figures['fail_rate']:.4f} ratio")
        outcome.lines.append(
            f"gen_lag_p95_ms: {figures['gen_lag_p95_ms']:.3f} ms"
        )
        outcome.lines.append(
            f"mean batch size: {figures['mean_batch']:.3f} requests"
        )

    @staticmethod
    def _layers(service, result: PassResult, tracer) -> dict:
        snapshot = tracer.snapshot()
        served = list(_served(result))
        n = max(len(served), 1)
        batches = list(tracer.batches)
        exec_s = {}
        for _, wall, request_ids in batches:
            for request_id in request_ids:
                exec_s[request_id] = wall
        waits_ms = [r.queue_wait_s * 1e3 for _, r in served]
        overheads_ms = [
            (r.total_s - r.queue_wait_s - exec_s.get(r.request_id, 0.0)) * 1e3
            for _, r in served
        ]
        busy_s = sum(wall for _, wall, _ in batches)
        wall_s = max(t for t in result.done_at if t is not None) - result.start
        layers = span_metrics(snapshot, n, "serve.execute_batch")
        layers.update(
            {
                "serve.queue_wait_ms.p50": percentile(waits_ms, 50),
                "serve.queue_wait_ms.p95": percentile(waits_ms, 95),
                "serve.batch_size.mean": (
                    sum(size for size, _, _ in batches) / max(len(batches), 1)
                ),
                "serve.batches": float(len(batches)),
                "serve.exec_ms.per_request": busy_s * 1e3 / n,
                "serve.overhead_ms.p50": percentile(overheads_ms, 50),
                "runtime.parallel_efficiency": busy_s
                / (wall_s * service.n_workers),
            }
        )
        return layers


LIVE_MIXED = LiveMixedWorkload()
