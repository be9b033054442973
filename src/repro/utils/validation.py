"""Input-validation helpers shared across the library.

These raise :class:`repro.errors.SignalError` / ``ConfigurationError`` with
actionable messages instead of letting numpy raise opaque shape errors deep
inside a pipeline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SignalError


def ensure_1d(signal: np.ndarray, name: str = "signal") -> np.ndarray:
    """Return ``signal`` as a contiguous 1-D float64 array or raise."""
    array = np.asarray(signal, dtype=np.float64)
    if array.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {array.shape}")
    if array.size == 0:
        raise SignalError(f"{name} must be non-empty")
    return np.ascontiguousarray(array)


def ensure_2d(matrix: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``matrix`` as a contiguous 2-D float64 array or raise."""
    array = np.asarray(matrix, dtype=np.float64)
    if array.ndim != 2:
        raise SignalError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise SignalError(f"{name} must be non-empty")
    return np.ascontiguousarray(array)


def ensure_rows(signal: np.ndarray, name: str = "signal") -> np.ndarray:
    """Return one signal or a ``(rows, time)`` stack as contiguous
    float64, or raise."""
    array = np.asarray(signal, dtype=np.float64)
    if array.ndim == 2:
        return ensure_2d(array, name)
    if array.ndim != 1:
        raise SignalError(
            f"{name} must be 1-D or (rows, time), got shape {array.shape}"
        )
    return ensure_1d(array, name)


def ensure_positive(value: float, name: str) -> float:
    """Validate that a scalar configuration value is strictly positive."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
    return value


def ensure_probability(value: float, name: str) -> float:
    """Validate that a scalar lies in the closed interval [0, 1]."""
    value = float(value)
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
    return value


def ensure_sample_rate(value: float, name: str = "sample_rate") -> float:
    """Validate a sampling rate (finite, > 0)."""
    return ensure_positive(value, name)
