"""FFT magnitude, PSD, band energies."""

import numpy as np
import pytest
from scipy.fft import next_fast_len

from repro.dsp.generators import tone, white_noise
from repro.dsp.spectrum import (
    apply_spectral_gain,
    band_energy,
    band_energy_ratio,
    fft_frequencies,
    fft_magnitude,
    mean_fft_magnitude,
    power_spectral_density,
)
from repro.errors import ConfigurationError, SignalError

RATE = 1000.0


def test_fft_frequencies_span():
    freqs = fft_frequencies(100, RATE)
    assert freqs[0] == 0.0
    assert freqs[-1] == pytest.approx(RATE / 2)


def test_fft_magnitude_of_sinusoid_peaks_at_its_frequency():
    signal = tone(100.0, 1.0, RATE, amplitude=2.0)
    freqs, mags = fft_magnitude(signal, RATE)
    assert freqs[np.argmax(mags)] == pytest.approx(100.0, abs=1.0)


def test_fft_magnitude_amplitude_calibration():
    # A unit sinusoid should give magnitude ~1 at its bin.
    signal = tone(100.0, 1.0, RATE, amplitude=1.0)
    _, mags = fft_magnitude(signal, RATE)
    assert mags.max() == pytest.approx(1.0, rel=0.05)


def test_fft_magnitude_rejects_empty():
    with pytest.raises(SignalError):
        fft_magnitude(np.array([]), RATE)


def test_mean_fft_magnitude_averages():
    signals = [tone(50.0, 0.5, RATE) for _ in range(3)]
    freqs, mean_mag = mean_fft_magnitude(signals, RATE, n_fft=512)
    _, single = fft_magnitude(signals[0][:512], RATE, n_fft=512)
    assert mean_mag.shape == single.shape
    assert freqs[np.argmax(mean_mag)] == pytest.approx(50.0, abs=2.0)


def test_mean_fft_magnitude_rejects_empty_population():
    with pytest.raises(SignalError):
        mean_fft_magnitude([], RATE, 128)


def test_psd_parseval():
    signal = white_noise(1.0, RATE, amplitude=1.0, rng=0)
    _, psd = power_spectral_density(signal, RATE)
    # Integral of one-sided PSD over frequency ~ signal variance.
    df = RATE / signal.size
    assert psd.sum() * df == pytest.approx(np.var(signal), rel=0.05)


def test_band_energy_concentrated_for_tone():
    signal = tone(200.0, 1.0, RATE)
    inside = band_energy(signal, RATE, 150.0, 250.0)
    outside = band_energy(signal, RATE, 300.0, 450.0)
    assert inside > 100 * outside


def test_band_energy_invalid_band():
    with pytest.raises(ConfigurationError):
        band_energy(tone(100.0, 0.1, RATE), RATE, 200.0, 100.0)


def test_band_energy_ratio_tone_above_split():
    signal = tone(400.0, 1.0, RATE)
    assert band_energy_ratio(signal, RATE, 300.0) > 0.95


def test_band_energy_ratio_tone_below_split():
    signal = tone(100.0, 1.0, RATE)
    assert band_energy_ratio(signal, RATE, 300.0) < 0.05


def test_band_energy_ratio_of_silence_is_zero():
    assert band_energy_ratio(np.zeros(256) + 0.0, RATE, 100.0) == 0.0


# ----------------------------------------------------------------------
# apply_spectral_gain: the zero-phase filtering kernel
# ----------------------------------------------------------------------

AUDIO_RATE = 16_000.0


def _bandpass(frequencies):
    """A speaker-like band-pass response (smooth, real, non-negative)."""
    safe = np.maximum(frequencies, 1e-3)
    return np.sqrt(
        1.0 / (1.0 + (400.0 / safe) ** 4) / (1.0 + (safe / 6000.0) ** 8)
    )


@pytest.mark.parametrize("n", [4_000, 8_000, 12_000, 16_000])
def test_spectral_gain_matches_circular_filter_at_5_smooth_length(n):
    signal = np.random.default_rng(n).normal(size=n)
    circular = np.fft.irfft(
        np.fft.rfft(signal)
        * _bandpass(np.fft.rfftfreq(n, d=1.0 / AUDIO_RATE)),
        n=n,
    )
    got = apply_spectral_gain(signal, AUDIO_RATE, _bandpass)
    np.testing.assert_array_equal(got, circular)


@pytest.mark.parametrize("n", [39_566, 38_571, 12_345])
def test_spectral_gain_zero_pads_hostile_length(n):
    n_fft = next_fast_len(n, real=True)
    assert n_fft > n
    signal = np.random.default_rng(n).normal(size=n)
    padded = np.concatenate([signal, np.zeros(n_fft - n)])
    reference = np.fft.irfft(
        np.fft.rfft(padded)
        * _bandpass(np.fft.rfftfreq(n_fft, d=1.0 / AUDIO_RATE)),
        n=n_fft,
    )[:n]
    got = apply_spectral_gain(signal, AUDIO_RATE, _bandpass)
    assert got.shape == (n,)
    np.testing.assert_array_equal(got, reference)


@pytest.mark.parametrize("n", [16_000, 39_566, 12_345])
def test_spectral_gain_rows_match_single_calls(n):
    stack = np.random.default_rng(7).normal(size=(3, n))
    batched = apply_spectral_gain(stack, AUDIO_RATE, _bandpass)
    assert batched.shape == stack.shape
    assert batched.flags["C_CONTIGUOUS"]
    for row in range(stack.shape[0]):
        single = apply_spectral_gain(stack[row], AUDIO_RATE, _bandpass)
        np.testing.assert_array_equal(batched[row], single)


def test_spectral_gain_accepts_per_row_gains():
    stack = np.random.default_rng(8).normal(size=(2, 39_566))
    scales = np.array([[0.5], [2.0]])
    batched = apply_spectral_gain(
        stack, AUDIO_RATE, lambda f: scales * _bandpass(f)
    )
    for row, scale in enumerate(scales[:, 0]):
        single = apply_spectral_gain(
            stack[row], AUDIO_RATE, lambda f: scale * _bandpass(f)
        )
        np.testing.assert_array_equal(batched[row], single)


def test_spectral_gain_padding_keeps_the_tail_off_the_head():
    # An impulse at the last sample: a circular filter wraps its
    # non-causal half onto the first samples; the zero pad absorbs it.
    n = 39_566
    signal = np.zeros(n)
    signal[-1] = 1.0
    circular = np.fft.irfft(
        np.fft.rfft(signal)
        * _bandpass(np.fft.rfftfreq(n, d=1.0 / AUDIO_RATE)),
        n=n,
    )
    padded = apply_spectral_gain(signal, AUDIO_RATE, _bandpass)
    head = slice(0, 16)
    assert np.max(np.abs(padded[head])) < 1e-3 * np.max(
        np.abs(circular[head])
    )


def test_spectral_gain_rejects_bad_rate():
    with pytest.raises(ConfigurationError):
        apply_spectral_gain(np.ones(8), 0.0, _bandpass)
