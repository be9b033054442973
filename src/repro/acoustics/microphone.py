"""Microphone models for VA devices and wearables.

A microphone applies a band-pass frequency response, adds self-noise, and
(for far-field VA arrays) applies extra capture gain — the property that
makes smart speakers *more* susceptible to faint thru-barrier sounds than
phones (paper § III-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.acoustics.spl import REFERENCE_RMS_AT_65_DB, db_to_gain
from repro.dsp.spectrum import apply_spectral_gain
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d


@dataclass(frozen=True)
class MicrophoneSpec:
    """Static microphone parameters.

    Attributes
    ----------
    name:
        Identifier for reports.
    low_cut_hz, high_cut_hz:
        −3 dB band edges of the capture response.
    noise_floor_db:
        Equivalent input noise in dB SPL.
    far_field_gain_db:
        Additional gain from beamforming / high-sensitivity front ends
        (smart-speaker arrays ≈ +6 dB; phones ≈ 0 dB).
    clip_level:
        Full-scale amplitude at which the ADC clips.
    """

    name: str
    low_cut_hz: float = 60.0
    high_cut_hz: float = 7800.0
    noise_floor_db: float = 30.0
    far_field_gain_db: float = 0.0
    clip_level: float = 1.0

    def __post_init__(self) -> None:
        if self.low_cut_hz <= 0 or self.high_cut_hz <= self.low_cut_hz:
            raise ConfigurationError(
                f"{self.name}: need 0 < low_cut_hz < high_cut_hz"
            )


#: Far-field array of a smart speaker (Google Home / Echo class).
SMART_SPEAKER_MIC = MicrophoneSpec(
    name="far-field array", far_field_gain_db=6.0, noise_floor_db=28.0
)

#: Laptop microphone (MacBook class).
LAPTOP_MIC = MicrophoneSpec(
    name="laptop mic", far_field_gain_db=3.0, noise_floor_db=30.0
)

#: Smartphone microphone.
PHONE_MIC = MicrophoneSpec(
    name="phone mic", far_field_gain_db=0.0, noise_floor_db=32.0
)

#: Smartwatch / wearable microphone.
WEARABLE_MIC = MicrophoneSpec(
    name="wearable mic", far_field_gain_db=0.0, noise_floor_db=33.0,
    high_cut_hz=7500.0,
)


class Microphone:
    """Capture a sound field into a digital recording."""

    def __init__(self, spec: MicrophoneSpec) -> None:
        self.spec = spec

    def frequency_response(self, frequencies: np.ndarray) -> np.ndarray:
        """Linear gain of the capture chain at each frequency."""
        frequencies = np.asarray(frequencies, dtype=np.float64)
        safe = np.maximum(frequencies, 1e-3)
        low = 1.0 / (1.0 + (self.spec.low_cut_hz / safe) ** 4)
        high = 1.0 / (1.0 + (safe / self.spec.high_cut_hz) ** 8)
        overall = db_to_gain(self.spec.far_field_gain_db)
        return overall * np.sqrt(low * high)

    def capture(
        self,
        sound_field: np.ndarray,
        sample_rate: float,
        rng: SeedLike = None,
    ) -> np.ndarray:
        """Record the sound field arriving at the microphone.

        Applies the frequency response, adds self-noise at the spec'd
        equivalent input level, and clips at full scale.
        """
        samples = ensure_1d(sound_field)
        generator = as_generator(rng)
        shaped = apply_spectral_gain(
            samples, sample_rate, self.frequency_response
        )
        noise_rms = REFERENCE_RMS_AT_65_DB * db_to_gain(
            self.spec.noise_floor_db - 65.0
        )
        shaped = shaped + noise_rms * generator.standard_normal(samples.size)
        return np.clip(shaped, -self.spec.clip_level, self.spec.clip_level)
