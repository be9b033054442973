"""Digital signal processing substrate.

Everything the paper's pipeline needs from a DSP toolbox: FFT spectra,
short-time Fourier transforms, mel-frequency cepstral coefficients,
filtering, (deliberately) aliasing decimation for the accelerometer model,
cross-correlation alignment, 2-D Pearson correlation, and test-signal
generators.
"""

from repro.dsp.correlate import (
    align_by_cross_correlation,
    correlation_2d,
    cross_correlation_delay,
    normalized_cross_correlation,
)
from repro.dsp.filters import (
    butter_bandpass,
    butter_highpass,
    butter_lowpass,
    fir_lowpass,
)
from repro.dsp.generators import (
    linear_chirp,
    pink_noise,
    silence,
    tone,
    white_noise,
)
from repro.dsp.mel import hz_to_mel, mel_filterbank, mel_to_hz, mfcc
from repro.dsp.quantiles import spectral_quartile_profile
from repro.dsp.resample import alias_decimate, resample_poly_safe
from repro.dsp.spectrum import (
    apply_spectral_gain,
    band_energy,
    band_energy_ratio,
    fft_frequencies,
    fft_magnitude,
    mean_fft_magnitude,
    power_spectral_density,
)
from repro.dsp.stft import (
    power_spectrogram,
    stft,
    stft_frequencies,
    stft_times,
)
from repro.dsp.windows import frame_signal, get_window

__all__ = [
    "align_by_cross_correlation",
    "correlation_2d",
    "cross_correlation_delay",
    "normalized_cross_correlation",
    "butter_bandpass",
    "butter_highpass",
    "butter_lowpass",
    "fir_lowpass",
    "linear_chirp",
    "pink_noise",
    "silence",
    "tone",
    "white_noise",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "mfcc",
    "spectral_quartile_profile",
    "alias_decimate",
    "resample_poly_safe",
    "apply_spectral_gain",
    "band_energy",
    "band_energy_ratio",
    "fft_frequencies",
    "fft_magnitude",
    "mean_fft_magnitude",
    "power_spectral_density",
    "power_spectrogram",
    "stft",
    "stft_frequencies",
    "stft_times",
    "frame_signal",
    "get_window",
]
