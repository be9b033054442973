"""Fleet load generator: heavy-tailed open-loop Zipf-user traffic.

Extends the single-service generator
(:mod:`repro.serve.loadgen`) to the fleet's scale model: requests are
attributed to a population of 10^5+ synthetic users whose activity
follows a Zipf law (a few chatty wearers, a long quiet tail), and
arrive open-loop with Pareto (heavy-tailed) interarrival gaps — load
keeps arriving whether or not the fleet keeps up, which is exactly
when the SLO valve and the autoscaler earn their keep.

Everything is derived per request index from the configured seed
(:class:`~repro.serve.loadgen.UserActivityModel`), so a run's user
stream, arrival schedule, and request seeds are fully reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.frontdoor import FleetFrontDoor, FleetRequest
from repro.serve.loadgen import (
    LoadgenReport,
    RecordingPool,
    UserActivityModel,
    build_recording_pool,
)
from repro.utils.rng import derive_seed


@dataclass
class FleetLoadgenConfig:
    """Shape of one fleet load-generation run.

    Attributes
    ----------
    n_requests:
        Total requests issued.
    users / zipf_s:
        Synthetic-user population and its Zipf skew (the fleet's
        scale target is ``users >= 10**5``).
    rate_rps / pareto_alpha:
        Mean offered rate and the Pareto shape of the interarrival
        gaps (smaller alpha ⇒ burstier; must be > 1).
    priority_fraction:
        Fraction of requests marked protected-priority (never
        SLO-shed), drawn deterministically per index.
    seed / pool_size / attack_fraction / deadline_s:
        As in :class:`~repro.serve.loadgen.LoadgenConfig`.
    """

    n_requests: int = 200
    users: int = 100_000
    zipf_s: float = 1.1
    rate_rps: float = 200.0
    pareto_alpha: float = 2.5
    priority_fraction: float = 0.1
    seed: int = 0
    pool_size: int = 6
    attack_fraction: float = 0.5
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ConfigurationError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if self.users < 1:
            raise ConfigurationError(
                f"users must be >= 1, got {self.users}"
            )
        if not self.zipf_s >= 0:
            raise ConfigurationError(
                f"zipf_s must be >= 0, got {self.zipf_s}"
            )
        if not self.rate_rps > 0:
            raise ConfigurationError(
                f"rate_rps must be > 0, got {self.rate_rps}"
            )
        if not self.pareto_alpha > 1:
            raise ConfigurationError(
                f"pareto_alpha must be > 1, got {self.pareto_alpha}"
            )
        if not 0.0 <= self.priority_fraction <= 1.0:
            raise ConfigurationError(
                f"priority_fraction must lie in [0, 1], "
                f"got {self.priority_fraction}"
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

    def user_model(self) -> UserActivityModel:
        return UserActivityModel(
            users=self.users, zipf_s=self.zipf_s, seed=self.seed
        )


def make_fleet_request(
    config: FleetLoadgenConfig,
    pool: RecordingPool,
    users: UserActivityModel,
    index: int,
) -> FleetRequest:
    """The ``index``-th request of the run (pure in the config)."""
    va, wearable, is_attack = pool.pair(index)
    user = users.user_id(index)
    kind = "attack" if is_attack else "legit"
    priority_rng = np.random.default_rng(
        derive_seed(config.seed, "priority", index)
    )
    priority = (
        1 if priority_rng.random() < config.priority_fraction else 0
    )
    return FleetRequest(
        user_id=user,
        va_audio=va,
        wearable_audio=wearable,
        priority=priority,
        request_id=f"{user}/{kind}-{index}",
        seed=derive_seed(config.seed, "request", user, index),
        deadline_s=config.deadline_s,
    )


def run_fleet_loadgen(
    front_door: FleetFrontDoor,
    config: Optional[FleetLoadgenConfig] = None,
    pool: Optional[RecordingPool] = None,
) -> LoadgenReport:
    """Drive a started front door with Zipf-user heavy-tailed traffic.

    Open-loop: request ``index`` is issued at the cumulative sum of
    the model's Pareto gaps, regardless of completions.  Returns the
    client-side report (its ``n_rerouted`` counts failover answers);
    compare with ``front_door.metrics()`` for the fleet-side view (their
    terminal counts agree request-for-request).
    """
    config = config or FleetLoadgenConfig()
    pool = pool or build_recording_pool(
        seed=config.seed,
        pool_size=config.pool_size,
        attack_fraction=config.attack_fraction,
    )
    users = config.user_model()
    report = LoadgenReport(mode="open")
    futures = []
    start = time.monotonic()
    next_at = start
    for index in range(config.n_requests):
        next_at += users.interarrival_s(
            index, config.rate_rps, alpha=config.pareto_alpha
        )
        delay = next_at - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        request = make_fleet_request(config, pool, users, index)
        report.record("issued")
        futures.append(front_door.submit_threadsafe(request))
    for future in futures:
        report.account(future.result())
    report.wall_s = time.monotonic() - start
    return report
