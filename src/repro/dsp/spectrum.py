"""Single-shot spectral analysis and the spectral-gain filter kernel.

These are the primitives behind the paper's Figures 3, 4, and 6, which all
plot (averaged or quartile) FFT magnitudes of phoneme sounds, plus the one
FFT filter that every linear, time-invariant channel stage runs through.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.fft import next_fast_len

from repro.errors import ConfigurationError, SignalError
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d, ensure_positive


def fft_frequencies(n_samples: int, sample_rate: float) -> np.ndarray:
    """Frequency axis (Hz) for the one-sided FFT of an n-sample signal."""
    if n_samples <= 0:
        raise ConfigurationError(f"n_samples must be > 0, got {n_samples}")
    ensure_positive(sample_rate, "sample_rate")
    return np.fft.rfftfreq(n_samples, d=1.0 / sample_rate)


def apply_spectral_gain(
    samples: np.ndarray,
    sample_rate: float,
    gain: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Filter the last axis of ``samples`` by a zero-phase spectral gain.

    ``samples`` is one ``n``-sample signal or a ``(rows, n)`` stack.  The
    last axis is zero-padded to ``next_fast_len(n, real=True)``; ``gain``
    is called on that length's ``rfftfreq`` grid and returns one response
    ``(bins,)`` or one per row ``(rows, bins)``; the filtered signal is
    truncated back to ``n``.  The 5-smooth length keeps the FFTs fast
    (39566 = 2·73·271 samples transforms ~7× slower than 40000) and the
    zero pad absorbs most of the circular wrap-around.  At a 5-smooth
    ``n`` nothing is padded and the result is bitwise the circular
    filter's; each row of a stack is bitwise equal to filtering it alone.
    """
    samples = np.asarray(samples, dtype=np.float64)
    ensure_positive(sample_rate, "sample_rate")
    n_samples = samples.shape[-1]
    n_fft = next_fast_len(n_samples, real=True)
    spectrum = np.fft.rfft(samples, n=n_fft, axis=-1)
    frequencies = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    filtered = np.fft.irfft(spectrum * gain(frequencies), n=n_fft, axis=-1)
    return np.ascontiguousarray(filtered[..., :n_samples])


def random_ripple(
    frequencies: np.ndarray,
    rng: SeedLike,
    n_modes: int,
    min_center_hz: float,
    width_divisors: Tuple[float, float],
    sigma_db: float,
) -> np.ndarray:
    """Smooth random gain: ``n_modes`` Gaussian bumps in dB over frequency.

    Each mode draws, in order, a center ``U(min_center_hz, span)``, a
    width ``U(span / width_divisors[0], span / width_divisors[1])`` and a
    height ``N(0, sigma_db)``, where ``span`` is the top of the grid.
    """
    generator = as_generator(rng)
    span = max(float(frequencies[-1]), 1.0)
    ripple_db = np.zeros_like(frequencies)
    for _ in range(n_modes):
        center = generator.uniform(min_center_hz, span)
        width = generator.uniform(
            span / width_divisors[0], span / width_divisors[1]
        )
        amplitude = generator.normal(0.0, sigma_db)
        ripple_db += amplitude * np.exp(
            -0.5 * ((frequencies - center) / width) ** 2
        )
    return 10.0 ** (ripple_db / 20.0)


def fft_magnitude(
    signal: np.ndarray,
    sample_rate: float,
    n_fft: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One-sided FFT magnitude spectrum, normalized by signal length.

    Returns ``(frequencies, magnitudes)``.  Normalizing by the number of
    samples makes magnitudes comparable across signals of different
    durations, which the phoneme-selection criteria rely on.
    """
    samples = ensure_1d(signal)
    ensure_positive(sample_rate, "sample_rate")
    if n_fft is None:
        n_fft = samples.size
    if n_fft <= 0:
        raise ConfigurationError(f"n_fft must be > 0, got {n_fft}")
    spectrum = np.fft.rfft(samples, n=n_fft)
    magnitudes = np.abs(spectrum) * (2.0 / samples.size)
    frequencies = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    return frequencies, magnitudes


def mean_fft_magnitude(
    signals: Sequence[np.ndarray],
    sample_rate: float,
    n_fft: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Average one-sided FFT magnitude over a collection of signals.

    Reproduces the paper's averaging over 100 recorded segments per
    phoneme (Fig. 3 / Fig. 4).  Signals are truncated or zero-padded to
    ``n_fft`` samples so spectra share one frequency axis.
    """
    if not signals:
        raise SignalError("signals must be a non-empty sequence")
    accumulated = np.zeros(n_fft // 2 + 1)
    for signal in signals:
        samples = ensure_1d(signal)
        if samples.size > n_fft:
            samples = samples[:n_fft]
        _, magnitude = fft_magnitude(samples, sample_rate, n_fft=n_fft)
        accumulated += magnitude
    frequencies = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    return frequencies, accumulated / len(signals)


def power_spectral_density(
    signal: np.ndarray,
    sample_rate: float,
    n_fft: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Periodogram power spectral density (one-sided)."""
    samples = ensure_1d(signal)
    ensure_positive(sample_rate, "sample_rate")
    if n_fft is None:
        n_fft = samples.size
    spectrum = np.fft.rfft(samples, n=n_fft)
    psd = (np.abs(spectrum) ** 2) / (sample_rate * samples.size)
    # One-sided correction: double every bin except DC (and Nyquist when
    # n_fft is even).
    if n_fft % 2 == 0:
        psd[1:-1] *= 2.0
    else:
        psd[1:] *= 2.0
    frequencies = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate)
    return frequencies, psd


def band_energy(
    signal: np.ndarray,
    sample_rate: float,
    low_hz: float,
    high_hz: float,
) -> float:
    """Total spectral energy of ``signal`` between ``low_hz`` and ``high_hz``."""
    if low_hz < 0 or high_hz <= low_hz:
        raise ConfigurationError(
            f"invalid band [{low_hz}, {high_hz}]; need 0 <= low < high"
        )
    frequencies, psd = power_spectral_density(signal, sample_rate)
    mask = (frequencies >= low_hz) & (frequencies < high_hz)
    return float(np.sum(psd[mask]))


def band_energy_ratio(
    signal: np.ndarray,
    sample_rate: float,
    split_hz: float,
) -> float:
    """Fraction of total spectral energy above ``split_hz``.

    The paper's audio-domain heuristic: thru-barrier sounds keep little
    energy above ~500 Hz.  Returns a value in [0, 1]; 0 when the signal
    has no energy at all.
    """
    ensure_positive(split_hz, "split_hz")
    frequencies, psd = power_spectral_density(signal, sample_rate)
    total = float(np.sum(psd))
    if total <= 0:
        return 0.0
    high = float(np.sum(psd[frequencies >= split_hz]))
    return high / total
