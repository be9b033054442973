"""Thru-barrier attack detector based on 2-D correlation (paper § VI-C).

The detector computes the 2-D Pearson correlation (Eq. (6)) between the
normalized vibration-domain features of the VA's and the wearable's
recordings.  Legitimate voices produce strong, repeatable vibration
signatures → high correlation; thru-barrier attack sounds are dominated
by low frequencies, so the accelerometer injects random noise into each
replay → low correlation.  A threshold on the score decides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.dsp.correlate import correlation_2d
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator


@dataclass
class DetectorConfig:
    """Detector parameters.

    Attributes
    ----------
    threshold:
        Correlation score below which a voice command is declared a
        thru-barrier attack.  ``None`` leaves the detector in scoring
        mode (thresholds are usually calibrated by the evaluation
        harness at the EER operating point).
    """

    threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.threshold is not None and not -1.0 <= self.threshold <= 1.0:
            raise ConfigurationError(
                f"threshold must lie in [-1, 1], got {self.threshold}"
            )


class CorrelationDetector:
    """Scores and classifies feature pairs by 2-D correlation."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()

    def score(
        self,
        features_va: np.ndarray,
        features_wearable: np.ndarray,
    ) -> float:
        """2-D correlation between the two devices' vibration features.

        Higher means more consistent (more likely legitimate).
        """
        return correlation_2d(features_va, features_wearable)

    def is_attack(
        self,
        features_va: np.ndarray,
        features_wearable: np.ndarray,
    ) -> bool:
        """Thresholded decision; requires a configured threshold."""
        return self.decide(self.score(features_va, features_wearable))

    def decide(self, score: float) -> bool:
        """Apply the threshold rule to an already-computed score.

        The single place the boundary semantics live (attack iff
        ``score < threshold``); :meth:`is_attack` and
        :meth:`repro.core.pipeline.DefensePipeline.analyze` both
        delegate here so the two can never drift.  A non-finite score
        (``nan``, ``±inf``) decides "attack": the defense fails closed.
        """
        if self.config.threshold is None:
            raise ConfigurationError(
                "detector has no threshold; set DetectorConfig.threshold "
                "or calibrate one with repro.eval"
            )
        return not np.isfinite(score) or score < self.config.threshold

    def with_threshold(self, threshold: float) -> "CorrelationDetector":
        """A copy of this detector with ``threshold`` set."""
        return CorrelationDetector(DetectorConfig(threshold=threshold))

    def with_randomized_threshold(
        self, rng: SeedLike, jitter: float
    ) -> "CorrelationDetector":
        """A copy deciding at ``threshold + U(-jitter, +jitter)``.

        The randomized sibling of :meth:`with_threshold`, used by the
        hardened pipeline (:class:`repro.core.HardeningConfig`) to
        perturb the operating point per session: attacks optimized to
        sit just above the calibrated threshold are caught on the
        sessions whose draw lands above their score, while legitimate
        commands (and static attacks far below threshold) are decided
        as before on average.

        Raises :class:`ConfigurationError` when no base threshold is
        configured, when ``jitter`` is negative, or when the jitter
        band ``threshold ± jitter`` leaves the detector's ``[-1, 1]``
        score bounds — a misconfiguration that would otherwise be
        masked by clipping only the unlucky draws.
        """
        base = self.config.threshold
        if base is None:
            raise ConfigurationError(
                "with_randomized_threshold requires a calibrated base "
                "threshold; set DetectorConfig.threshold first"
            )
        if jitter < 0:
            raise ConfigurationError(
                f"jitter must be >= 0, got {jitter}"
            )
        if base - jitter < -1.0 or base + jitter > 1.0:
            raise ConfigurationError(
                f"threshold {base} ± jitter {jitter} leaves the "
                f"detector's [-1, 1] score bounds"
            )
        draw = float(as_generator(rng).uniform(-jitter, jitter))
        return self.with_threshold(base + draw)
