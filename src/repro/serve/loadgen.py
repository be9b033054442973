"""Synthetic load generator for the verification service.

Builds a deterministic pool of (VA, wearable) recording pairs — a mix
of legitimate commands and thru-barrier replay attacks from the
synthetic corpus — then replays them against a
:class:`~repro.serve.service.VerificationService` in one of two
classic load-testing shapes:

``closed``
    ``concurrency`` clients issue requests back-to-back; offered load
    adapts to service speed (throughput measurement).
``open``
    Requests arrive on a fixed schedule at ``rate_rps`` regardless of
    completions (latency-under-offered-load measurement; backpressure
    behaviour becomes visible here).

Request seeds are derived per index with
:func:`repro.utils.rng.derive_seed`, so a loadgen run's verdicts are
reproducible and independent of scheduling order.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ServiceOverloadError
from repro.runtime import LatencySummary, StageEvent, StageEventAggregator
from repro.serve.metrics import count
from repro.serve.request import RequestStatus, VerificationRequest
from repro.serve.service import VerificationService
from repro.utils.rng import derive_seed
from repro.utils.stats import percentile as _shared_percentile

#: Command texts cycled through when generating the recording pool
#: (all phonemizable with the command lexicon).
_POOL_COMMANDS = (
    "alexa unlock the back door",
    "ok google open the garage door",
    "ok google lock the front door",
)


class UserActivityModel:
    """Deterministic Zipf-skewed synthetic-user population.

    One shared model for the single-service and fleet load generators:
    user ``user-<k>`` has activity weight ``(k+1)^-s`` (Zipf with
    exponent ``s``), and the mapping from request index to user id is a
    pure function of ``(users, zipf_s, seed)`` — the same config always
    produces the same per-user arrival stream, regardless of how the
    requests are later scheduled or sharded.

    ``interarrival_s`` additionally derives a heavy-tailed (Pareto,
    shape ``alpha``) open-loop arrival process with the requested mean
    rate; the fleet load generator uses it to model bursty arrivals at
    the front door.
    """

    def __init__(
        self, users: int, zipf_s: float = 1.1, seed: int = 0
    ) -> None:
        if users < 1:
            raise ConfigurationError(
                f"users must be >= 1, got {users}"
            )
        if not zipf_s >= 0:
            raise ConfigurationError(
                f"zipf_s must be >= 0, got {zipf_s}"
            )
        self.users = int(users)
        self.zipf_s = float(zipf_s)
        self.seed = int(seed)
        ranks = np.arange(1, self.users + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        self._weights = weights / weights.sum()
        self._cdf = np.cumsum(self._weights)
        self._rng = np.random.default_rng(
            derive_seed(self.seed, "user-activity")
        )

    def weight(self, rank: int) -> float:
        """Activity share of the user at zero-based ``rank``."""
        return float(self._weights[rank])

    def user_rank(self, index: int) -> int:
        """Zero-based rank of the user issuing request ``index``.

        Derived from ``(seed, index)`` alone — not from generator
        state — so any subset of the request stream can be regenerated
        independently.
        """
        rng = np.random.default_rng(
            derive_seed(self.seed, "user-draw", index)
        )
        point = rng.random()
        return int(np.searchsorted(self._cdf, point, side="left"))

    def user_id(self, index: int) -> str:
        """User id (``user-<rank>``) issuing request ``index``."""
        return f"user-{self.user_rank(index)}"

    def interarrival_s(
        self, index: int, rate_rps: float, alpha: float = 2.5
    ) -> float:
        """Heavy-tailed gap (seconds) before request ``index``.

        Pareto(``alpha``) with the scale chosen so the mean gap is
        ``1 / rate_rps``; smaller ``alpha`` means burstier arrivals
        (``alpha <= 1`` has no finite mean and is rejected).
        """
        if not rate_rps > 0:
            raise ConfigurationError(
                f"rate_rps must be > 0, got {rate_rps}"
            )
        if not alpha > 1:
            raise ConfigurationError(
                f"alpha must be > 1 for a finite mean, got {alpha}"
            )
        rng = np.random.default_rng(
            derive_seed(self.seed, "arrival", index)
        )
        mean = 1.0 / rate_rps
        scale = mean * (alpha - 1.0) / alpha
        return float(scale / rng.random() ** (1.0 / alpha))


@dataclass
class LoadgenConfig:
    """Shape and size of one load-generation run.

    ``users``/``zipf_s`` select the synthetic-user population: with
    ``users == 0`` (default) the legacy single-user stream is kept
    bit-for-bit; with ``users >= 1`` every request is attributed to a
    Zipf-skewed user id via :class:`UserActivityModel` (the same model
    the fleet loadgen shards by) and its seed is derived per
    ``(user, index)``.
    """

    n_requests: int = 50
    mode: str = "closed"
    concurrency: int = 4
    rate_rps: float = 20.0
    seed: int = 0
    pool_size: int = 6
    attack_fraction: float = 0.5
    deadline_s: Optional[float] = None
    users: int = 0
    zipf_s: float = 1.1

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.mode not in ("closed", "open"):
            raise ConfigurationError(
                f"mode must be 'closed' or 'open', got {self.mode!r}"
            )
        if self.concurrency < 1:
            raise ConfigurationError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if not self.rate_rps > 0:
            raise ConfigurationError(
                f"rate_rps must be > 0, got {self.rate_rps}"
            )
        if self.pool_size < 1:
            raise ConfigurationError(
                f"pool_size must be >= 1, got {self.pool_size}"
            )
        if not 0.0 <= self.attack_fraction <= 1.0:
            raise ConfigurationError(
                f"attack_fraction must lie in [0, 1], "
                f"got {self.attack_fraction}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 (or None), got {self.deadline_s}"
            )
        if self.users < 0:
            raise ConfigurationError(
                f"users must be >= 0, got {self.users}"
            )
        if not self.zipf_s >= 0:
            raise ConfigurationError(
                f"zipf_s must be >= 0, got {self.zipf_s}"
            )

    def user_model(self) -> Optional[UserActivityModel]:
        """The run's user population, or ``None`` in single-user mode."""
        if self.users == 0:
            return None
        return UserActivityModel(
            users=self.users, zipf_s=self.zipf_s, seed=self.seed
        )


@dataclass
class RecordingPool:
    """Pre-generated request material cycled through by the clients."""

    pairs: List[Tuple[np.ndarray, np.ndarray, bool]] = field(
        default_factory=list
    )

    def pair(self, index: int) -> Tuple[np.ndarray, np.ndarray, bool]:
        """(va, wearable, is_attack) for request ``index``."""
        return self.pairs[index % len(self.pairs)]


def build_recording_pool(
    seed: int = 0,
    pool_size: int = 6,
    attack_fraction: float = 0.5,
) -> RecordingPool:
    """Generate a deterministic mix of legitimate and attack pairs."""
    from repro.attacks import AttackScenario, ReplayAttack
    from repro.eval.rooms import ROOM_A
    from repro.phonemes import SyntheticCorpus, phonemize

    corpus = SyntheticCorpus(
        n_speakers=2, seed=derive_seed(seed, "loadgen-corpus")
    )
    user = corpus.speakers[0]
    scenario = AttackScenario(room_config=ROOM_A)
    replay = ReplayAttack(corpus, user)
    n_attacks = int(round(pool_size * attack_fraction))
    pairs: List[Tuple[np.ndarray, np.ndarray, bool]] = []
    for index in range(pool_size):
        is_attack = index < n_attacks
        command = _POOL_COMMANDS[index % len(_POOL_COMMANDS)]
        if is_attack:
            attack = replay.generate(
                command=command,
                rng=derive_seed(seed, "loadgen-attack", index),
            )
            va, wearable = scenario.attack_recordings(
                attack,
                spl_db=75.0,
                rng=derive_seed(seed, "loadgen-attack-rec", index),
            )
        else:
            utterance = corpus.utterance(
                phonemize(command),
                speaker=user,
                text=command,
                rng=derive_seed(seed, "loadgen-utt", index),
            )
            va, wearable = scenario.legitimate_recordings(
                utterance,
                spl_db=70.0,
                rng=derive_seed(seed, "loadgen-legit-rec", index),
            )
        pairs.append((va, wearable, is_attack))
    return RecordingPool(pairs=pairs)


#: Scope of the events a load generator records.
CLIENT_SCOPE = "client"


@dataclass
class LoadgenReport:
    """Client-side view of one load-generation run (service or fleet).

    The client records one ``scope="client"`` event per issued request
    and per response (its status, with the caller-observed latency as
    wall time, plus ``degraded`` / ``rerouted`` flags) into ``events``;
    every count is computed from them.  After the run,
    ``n_issued == n_served + n_rejected + n_shed + n_failed`` — a
    request has exactly one terminal status (pinned by the serving and
    fleet tests).
    """

    mode: str = "open"
    wall_s: float = 0.0
    events: StageEventAggregator = field(
        default_factory=StageEventAggregator
    )

    def _count(self, stage: str) -> int:
        return count(self.events.grouped(CLIENT_SCOPE), stage)

    @property
    def n_issued(self) -> int:
        return self._count("issued")

    @property
    def n_served(self) -> int:
        return self._count("served")

    @property
    def n_degraded(self) -> int:
        return self._count("degraded")

    @property
    def n_rerouted(self) -> int:
        """Served by a fleet failover shard (always 0 for a service)."""
        return self._count("rerouted")

    @property
    def n_rejected(self) -> int:
        return self._count("rejected")

    @property
    def n_shed(self) -> int:
        return self._count("shed")

    @property
    def n_failed(self) -> int:
        return self._count("failed")

    @property
    def latencies_s(self) -> List[float]:
        """Caller-observed latencies (seconds) of served requests."""
        return [
            event.wall_s
            for event in self.events.grouped(CLIENT_SCOPE).get("served", ())
        ]

    @property
    def latency(self) -> Optional[LatencySummary]:
        """p50/p95/p99 over served requests (``None`` before any)."""
        return LatencySummary.from_samples(self.latencies_s)

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of loadgen wall clock."""
        if self.wall_s <= 0:
            return 0.0
        return self.n_served / self.wall_s

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (seconds) over served requests."""
        return _shared_percentile(self.latencies_s, percentile)

    def record(self, stage: str, wall_s: float = 0.0) -> None:
        """Record one client event (``issued``, or a refusal raised at
        submit time such as ``rejected``)."""
        self.events.emit(
            StageEvent(stage=stage, wall_s=wall_s, scope=CLIENT_SCOPE)
        )

    def account(self, response) -> None:
        """Fold one :class:`VerificationResponse` (or fleet response)
        into the report."""
        self.record(response.status.value, response.total_s)
        if response.status is RequestStatus.SERVED:
            if response.degraded:
                self.record("degraded")
            if getattr(response, "rerouted", False):
                self.record("rerouted")


def _make_request(
    config: LoadgenConfig,
    pool: RecordingPool,
    index: int,
    users: Optional[UserActivityModel] = None,
) -> VerificationRequest:
    va, wearable, is_attack = pool.pair(index)
    kind = "attack" if is_attack else "legit"
    if users is None:
        # Legacy single-user stream: derivation unchanged so existing
        # runs stay bit-for-bit reproducible.
        seed = derive_seed(config.seed, "request", index)
        request_id = f"{kind}-{index}"
    else:
        user = users.user_id(index)
        seed = derive_seed(config.seed, "request", user, index)
        request_id = f"{user}/{kind}-{index}"
    return VerificationRequest(
        va_audio=va,
        wearable_audio=wearable,
        seed=seed,
        request_id=request_id,
        deadline_s=config.deadline_s,
    )


def run_loadgen(
    service: VerificationService,
    config: Optional[LoadgenConfig] = None,
    pool: Optional[RecordingPool] = None,
) -> LoadgenReport:
    """Drive ``service`` with synthetic traffic and tally outcomes.

    The service must already be started.  Returns the client-side
    report; compare with ``service.metrics()`` for the server-side
    view.
    """
    config = config or LoadgenConfig()
    pool = pool or build_recording_pool(
        seed=config.seed,
        pool_size=config.pool_size,
        attack_fraction=config.attack_fraction,
    )
    report = LoadgenReport(mode=config.mode)
    users = config.user_model()
    start = time.monotonic()

    def issue(index: int) -> Optional[object]:
        request = _make_request(config, pool, index, users=users)
        report.record("issued")
        try:
            return service.submit(request)
        except ServiceOverloadError:
            report.record("rejected")
            return None

    if config.mode == "closed":
        counter = {"next": 0}
        counter_lock = threading.Lock()

        def client() -> None:
            while True:
                with counter_lock:
                    index = counter["next"]
                    if index >= config.n_requests:
                        return
                    counter["next"] = index + 1
                future = issue(index)
                if future is None:
                    continue
                report.account(future.result())

        threads = [
            threading.Thread(target=client, name=f"loadgen-{i}")
            for i in range(config.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    else:  # open loop
        interval = 1.0 / config.rate_rps
        futures = []
        for index in range(config.n_requests):
            target = start + index * interval
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            future = issue(index)
            if future is not None:
                futures.append(future)
        for future in futures:
            report.account(future.result())

    report.wall_s = time.monotonic() - start
    return report
