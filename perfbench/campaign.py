"""The ``campaign`` workload: offline scoring for the ROC/AUC figures.

A :class:`repro.eval.runner.CampaignRunner` with 2 process workers
scores every room (4 participants, 2 commands and 2 replay attacks per
victim) with the full system and both baselines, back to back until
the run's time is up; each campaign has its own seed.  Attack injection
goes through the channel graph, and scoring takes the per-item
``convert``/``apply`` path instead of the batched one, so this
exercises the same layers as serving in a different way: phoneme
synthesis, attack rendering and the process runtime carry most of the
work.  Each campaign forks its own worker pool, as ``repro evaluate``
does, so pool start-up is part of the measured time.
"""

from __future__ import annotations

import os
import time

import numpy as np

from perfbench.common import Outcome, auc, log, percentile
from perfbench.layers import span_metrics
from perfbench import trace as tracing

N_PARTICIPANTS = 4
N_COMMANDS = 2
N_ATTACKS = 2
N_WORKERS = 2


class Setup:
    """Everything a campaign needs before its first unit runs."""

    def __init__(self, seed: int) -> None:
        from repro.core.segmentation import default_segmenter
        from repro.eval.campaign import DetectorBank
        from repro.eval.participants import ParticipantPool
        from repro.eval.rooms import ROOMS
        from repro.eval.runner import CampaignRunner
        from repro.phonemes.corpus import SyntheticCorpus

        self.pool = ParticipantPool(n_participants=N_PARTICIPANTS, seed=seed)
        self.corpus = SyntheticCorpus(speakers=self.pool.speakers, seed=seed)
        self.detectors = DetectorBank(segmenter=default_segmenter(seed=0))
        self.rooms = list(ROOMS.values())
        self.runner = CampaignRunner(n_workers=N_WORKERS, executor="process")


def _units(setup: Setup, campaign_seed: int):
    from repro.attacks.base import AttackKind
    from repro.eval.campaign import CampaignConfig, build_campaign_units

    config = CampaignConfig(
        n_commands_per_participant=N_COMMANDS,
        n_attacks_per_kind=N_ATTACKS,
        seed=campaign_seed,
    )
    return build_campaign_units(
        setup.rooms, setup.pool, [AttackKind.REPLAY], config
    )


class CampaignWorkload:
    name = "campaign"

    @staticmethod
    def setup(seed: int) -> Setup:
        return Setup(seed)

    @staticmethod
    def teardown(setup: Setup) -> None:
        """Each campaign shuts its own pool down; nothing is left."""

    def run(self, setup: Setup, seed, seconds, tracer, outcome: Outcome) -> None:
        rng = np.random.default_rng([seed, 3])
        if tracer is None:
            figures = self._measure(setup, rng, seconds, outcome)
            self._report(figures, outcome)
            return
        figures = self._measure(setup, rng, seconds / 2, outcome)
        tracing.set_process_tracer(tracer)
        tracing.install_unit_wrapper()
        try:
            with tracer.recording():
                traced = self._measure(
                    setup, rng, seconds / 2, outcome, tracer
                )
        finally:
            tracing.uninstall_unit_wrapper()
            tracing.set_process_tracer(None)
        layers = span_metrics(tracer.snapshot(), traced["samples"], "eval.unit")
        layers["runtime.parallel_efficiency"] = traced["unit_wall_s"] / (
            traced["wall_s"] * N_WORKERS
        )
        layers["trace.overhead"] = (
            traced["verdicts_per_s"] / figures["verdicts_per_s"]
        )
        outcome.per_layer.update(layers)

    def _measure(
        self, setup: Setup, rng, seconds: float, outcome: Outcome, tracer=None
    ):
        """Campaigns back to back until ``seconds`` have passed."""
        from repro.eval.campaign import FULL_SYSTEM

        legit, attack, per_sample_ms = [], [], []
        samples = campaigns = 0
        unit_wall_s = 0.0
        start = time.perf_counter()
        while True:
            units = _units(setup, int(rng.integers(2**31)))
            score_sets, stats = setup.runner.run_units(
                units, setup.detectors, setup.corpus
            )
            score_sets = [self._unwrap(s, tracer) for s in score_sets]
            for unit, scores, unit_stats in zip(units, score_sets, stats.units):
                self._check_unit(unit, scores, outcome)
                legit += scores.legit.get(FULL_SYSTEM, [])
                for buckets in scores.attacks.values():
                    attack += buckets.get(FULL_SYSTEM, [])
                per_sample_ms.append(
                    unit_stats.wall_s * 1e3 / unit_stats.n_samples
                )
            samples += stats.n_samples
            unit_wall_s += stats.unit_wall_s
            outcome.attempted += sum(unit.n_samples for unit in units)
            if campaigns == 0:
                pick = int(rng.integers(len(units)))
                rescored = (units[pick], score_sets[pick])
            # Stop before a campaign that would overrun the window.
            campaigns += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / campaigns >= seconds:
                break
        wall_s = time.perf_counter() - start
        log(f"campaign: {samples} samples in {wall_s:.2f} s")
        self._rescore(setup, *rescored, outcome)
        return {
            "legit": legit,
            "attack": attack,
            "per_sample_ms": per_sample_ms,
            "samples": samples,
            "wall_s": wall_s,
            "unit_wall_s": unit_wall_s,
            "verdicts_per_s": samples / wall_s,
        }

    @staticmethod
    def _unwrap(scores, tracer):
        """Strip a traced unit, folding in spans recorded elsewhere."""
        if not isinstance(scores, tracing.TracedUnit):
            return scores
        if scores.pid != os.getpid():
            tracer.absorb(scores.trace)
        return scores.scores

    @staticmethod
    def _check_unit(unit, scores, outcome: Outcome) -> None:
        """Every sample scored once by every detector, every score finite."""
        from repro.eval.campaign import (
            AUDIO_BASELINE,
            FULL_SYSTEM,
            VIBRATION_BASELINE,
        )

        for detector in (FULL_SYSTEM, VIBRATION_BASELINE, AUDIO_BASELINE):
            legit = scores.legit.get(detector, [])
            attack = [
                x for b in scores.attacks.values() for x in b.get(detector, [])
            ]
            outcome.check(
                len(legit) == N_COMMANDS and len(attack) == N_ATTACKS,
                f"{unit.label}: {detector} scored {len(legit)} legit and "
                f"{len(attack)} attack samples",
            )
            finite = np.isfinite(legit + attack)
            outcome.check(
                bool(finite.all()),
                f"{unit.label}: a {detector} score is not finite",
            )
            if detector == FULL_SYSTEM:
                outcome.failed += int((~finite).sum())

    @staticmethod
    def _rescore(setup: Setup, unit, scores, outcome: Outcome) -> None:
        """One unit scored inline must match the pool's scores bitwise."""
        from repro.eval.campaign import score_campaign_unit

        expected = score_campaign_unit(unit, setup.detectors, setup.corpus)
        outcome.check(
            expected.legit == scores.legit and expected.attacks == scores.attacks,
            f"{unit.label}: pool scores differ from an inline re-score",
        )

    @staticmethod
    def _report(figures: dict, outcome: Outcome) -> None:
        per_sample = figures["per_sample_ms"]
        outcome.metrics.update(
            {
                "latency_p50_ms": percentile(per_sample, 50),
                "latency_p95_ms": percentile(per_sample, 95),
                "verdicts_per_s": figures["verdicts_per_s"],
                "auc": auc(figures["legit"], figures["attack"]),
            }
        )
        outcome.lines.append(f"latency samples: {len(per_sample)} units")
        outcome.lines.append(
            f"fail_rate: {outcome.failed / max(outcome.attempted, 1):.4f} ratio"
        )
        outcome.lines.append("gen_lag_p95_ms: n/a (no arrival schedule)")


CAMPAIGN = CampaignWorkload()
