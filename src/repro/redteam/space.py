"""Parameterized attack space for adaptive waveform shaping.

The optimizing attacker cannot touch the defense internals — it can
only reshape the sound it plays behind the barrier.  The search space
is therefore a deterministic waveform transform with a small, bounded
parameter vector θ:

* **Spectral-envelope shaping** — per-band gains (dB) over
  log-spaced frequency bands.  The barrier is a frequency-selective
  filter and the detector correlates *vibration-domain* features, so
  moving energy between bands is exactly the lever a thru-barrier
  attacker has.
* **Phoneme-timing emphasis** — per-slice gains (dB) over equal time
  slices of the utterance, linearly interpolated between slice
  centers.  This lets the attacker emphasize the command's sensitive
  phoneme regions (which drive segmentation and the correlation)
  without *warping* time: slice gains preserve the utterance's
  alignment, so the oracle's segmentation stays valid and the
  transform stays differentiable-in-spirit for the surrogate mode.

Absolute level is deliberately **not** a parameter: the scenario
re-calibrates playback to the configured SPL
(:func:`repro.acoustics.spl.scale_to_spl`), so only spectral and
temporal *shape* can move the score — a uniform gain is the identity.
θ = 0 is exactly the static attack (the zero-budget baseline).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.attacks.base import AttackSound
from repro.dsp.spectrum import apply_spectral_gain
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class AttackSpace:
    """Bounded parameterization of the waveform transform.

    Attributes
    ----------
    n_bands:
        Number of log-spaced spectral bands between ``band_low_hz``
        and ``band_high_hz``.
    band_low_hz / band_high_hz:
        Frequency range the spectral gains cover; energy outside is
        left untouched.
    max_band_gain_db:
        Box bound on each spectral gain (±dB).
    n_slices:
        Number of temporal slices across the waveform.
    max_slice_gain_db:
        Box bound on each temporal gain (±dB).
    """

    n_bands: int = 8
    band_low_hz: float = 50.0
    band_high_hz: float = 4000.0
    max_band_gain_db: float = 18.0
    n_slices: int = 4
    max_slice_gain_db: float = 9.0

    def __post_init__(self) -> None:
        if self.n_bands < 1 or self.n_slices < 0:
            raise ConfigurationError(
                "need n_bands >= 1 and n_slices >= 0"
            )
        if not 0 < self.band_low_hz < self.band_high_hz:
            raise ConfigurationError(
                "need 0 < band_low_hz < band_high_hz"
            )
        if self.max_band_gain_db <= 0 or (
            self.n_slices > 0 and self.max_slice_gain_db <= 0
        ):
            raise ConfigurationError("gain bounds must be > 0 dB")

    # ------------------------------------------------------------------
    # Parameter-vector geometry
    # ------------------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Length of the parameter vector θ."""
        return self.n_bands + self.n_slices

    @property
    def band_edges_hz(self) -> np.ndarray:
        """The ``n_bands + 1`` log-spaced band edges."""
        return np.geomspace(
            self.band_low_hz, self.band_high_hz, self.n_bands + 1
        )

    @property
    def lower_bounds(self) -> np.ndarray:
        """Element-wise lower box bound on θ (dB)."""
        return -self.upper_bounds

    @property
    def upper_bounds(self) -> np.ndarray:
        """Element-wise upper box bound on θ (dB)."""
        return np.concatenate(
            [
                np.full(self.n_bands, self.max_band_gain_db),
                np.full(self.n_slices, self.max_slice_gain_db),
            ]
        )

    def identity(self) -> np.ndarray:
        """θ = 0: the transform that returns the waveform unchanged."""
        return np.zeros(self.dimension)

    def clip(self, params: np.ndarray) -> np.ndarray:
        """Project θ into the box bounds."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.dimension,):
            raise ConfigurationError(
                f"params must have shape ({self.dimension},), "
                f"got {params.shape}"
            )
        return np.clip(params, self.lower_bounds, self.upper_bounds)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """A uniform random θ inside the box bounds."""
        return rng.uniform(self.lower_bounds, self.upper_bounds)

    # ------------------------------------------------------------------
    # The waveform transform
    # ------------------------------------------------------------------

    def apply(
        self,
        waveform: np.ndarray,
        sample_rate: float,
        params: np.ndarray,
    ) -> np.ndarray:
        """Apply the θ-parameterized transform to ``waveform``.

        Deterministic (no RNG anywhere) and exactly the identity at
        θ = 0, which is what makes the zero-budget attacker degenerate
        bitwise to the static attack baseline.
        """
        params = self.clip(params)
        if not np.any(params):
            return np.asarray(waveform, dtype=np.float64)
        shaped = np.asarray(waveform, dtype=np.float64)

        band_gains_db = params[: self.n_bands]
        if np.any(band_gains_db):

            def band_gain(frequencies: np.ndarray) -> np.ndarray:
                gain = np.ones_like(frequencies)
                edges = self.band_edges_hz
                for index in range(self.n_bands):
                    band = (frequencies >= edges[index]) & (
                        frequencies < edges[index + 1]
                    )
                    gain[band] = 10.0 ** (band_gains_db[index] / 20.0)
                return gain

            shaped = apply_spectral_gain(shaped, sample_rate, band_gain)

        slice_gains_db = params[self.n_bands:]
        if slice_gains_db.size and np.any(slice_gains_db):
            # Linear interpolation between slice-center gains keeps the
            # temporal envelope smooth (no clicks at slice boundaries)
            # while preserving the utterance's time alignment.
            centers = (
                (np.arange(self.n_slices) + 0.5) / self.n_slices
            ) * shaped.size
            positions = np.arange(shaped.size)
            envelope_db = np.interp(
                positions, centers, slice_gains_db
            )
            shaped = shaped * 10.0 ** (envelope_db / 20.0)
        return shaped

    def mutate(
        self, attack: AttackSound, params: np.ndarray
    ) -> AttackSound:
        """The θ-shaped variant of a static :class:`AttackSound`."""
        return dataclasses.replace(
            attack,
            waveform=self.apply(
                attack.waveform, attack.sample_rate, params
            ),
            description=(
                f"{attack.description} [redteam-shaped "
                f"|θ|={float(np.linalg.norm(params)):.2f} dB]"
            ),
        )

    def describe(self, params: np.ndarray) -> str:
        """Human-readable summary of θ for reports."""
        params = self.clip(params)
        edges = self.band_edges_hz
        bands = ", ".join(
            f"{edges[i]:.0f}-{edges[i + 1]:.0f}Hz:"
            f"{params[i]:+.1f}dB"
            for i in range(self.n_bands)
        )
        if self.n_slices:
            slices = ", ".join(
                f"t{i}:{params[self.n_bands + i]:+.1f}dB"
                for i in range(self.n_slices)
            )
            return f"bands[{bands}] slices[{slices}]"
        return f"bands[{bands}]"

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe config (checkpoint and report headers)."""
        return {
            "n_bands": self.n_bands,
            "band_low_hz": self.band_low_hz,
            "band_high_hz": self.band_high_hz,
            "max_band_gain_db": self.max_band_gain_db,
            "n_slices": self.n_slices,
            "max_slice_gain_db": self.max_slice_gain_db,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "AttackSpace":
        """Inverse of :meth:`to_dict`."""
        return cls(
            n_bands=int(payload["n_bands"]),
            band_low_hz=float(payload["band_low_hz"]),
            band_high_hz=float(payload["band_high_hz"]),
            max_band_gain_db=float(payload["max_band_gain_db"]),
            n_slices=int(payload["n_slices"]),
            max_slice_gain_db=float(payload["max_slice_gain_db"]),
        )
