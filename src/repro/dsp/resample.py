"""Sample-rate conversion: anti-aliased and deliberately aliasing paths.

Commercial wearable accelerometers sample at ~200 Hz with no acoustic
anti-aliasing in the conductive path, so audio content above 100 Hz folds
into the 0–100 Hz band.  :func:`alias_decimate` reproduces that folding
exactly (raw decimation), while :func:`resample_poly_safe` is the clean
path used elsewhere in the library.
"""

from __future__ import annotations

from math import gcd

import numpy as np
from scipy import signal as sp_signal

from repro.errors import ConfigurationError, SignalError
from repro.utils.validation import ensure_1d, ensure_positive, ensure_rows


def alias_decimate(
    signal: np.ndarray,
    input_rate: float,
    output_rate: float,
) -> np.ndarray:
    """Decimate *without* an anti-aliasing filter.

    Content above the output Nyquist folds back, mirroring the ambiguous
    signal conversion the paper identifies as a core challenge of
    cross-domain sensing (§ IV-B).  The input rate must be an integer
    multiple of the output rate.  ``signal`` is one signal or a
    ``(rows, time)`` stack, decimated along the last axis.
    """
    samples = ensure_rows(signal)
    ensure_positive(input_rate, "input_rate")
    ensure_positive(output_rate, "output_rate")
    ratio = input_rate / output_rate
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigurationError(
            f"input_rate ({input_rate}) must be an integer multiple of "
            f"output_rate ({output_rate})"
        )
    step = int(round(ratio))
    if step < 1:
        raise ConfigurationError(
            "output_rate must not exceed input_rate for decimation"
        )
    return samples[..., ::step].copy()


def resample_poly_safe(
    signal: np.ndarray,
    input_rate: float,
    output_rate: float,
) -> np.ndarray:
    """Anti-aliased polyphase resampling between arbitrary rational rates."""
    samples = ensure_1d(signal)
    ensure_positive(input_rate, "input_rate")
    ensure_positive(output_rate, "output_rate")
    if samples.size < 2:
        raise SignalError("signal must have at least 2 samples to resample")
    up = int(round(output_rate))
    down = int(round(input_rate))
    if abs(output_rate - up) > 1e-6 or abs(input_rate - down) > 1e-6:
        # Fall back to a common scaled integer pair for non-integer rates.
        up = int(round(output_rate * 1000))
        down = int(round(input_rate * 1000))
    divisor = gcd(up, down)
    up //= divisor
    down //= divisor
    return sp_signal.resample_poly(samples, up, down)


def folded_frequency(frequency_hz: float, sample_rate: float) -> float:
    """Frequency (Hz) to which ``frequency_hz`` aliases at ``sample_rate``.

    Implements the textbook folding rule: the observed frequency is the
    distance from ``frequency_hz`` to the nearest integer multiple of the
    sampling rate, which always lies within [0, sample_rate / 2].
    """
    ensure_positive(sample_rate, "sample_rate")
    frequency_hz = abs(float(frequency_hz))
    remainder = frequency_hz % sample_rate
    return min(remainder, sample_rate - remainder)
