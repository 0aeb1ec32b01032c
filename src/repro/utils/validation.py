"""Argument-validation helpers.

Every public constructor in the library validates its inputs eagerly and
raises :class:`~repro.utils.errors.ConfigurationError` with a message that
names the offending parameter -- failures at construction time are much
easier to debug than NaNs surfacing deep inside a simulation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.errors import ConfigurationError


def check_probability(value: float, name: str, *, allow_zero: bool = True,
                      allow_one: bool = True) -> float:
    """Validate that ``value`` is a probability in ``[0, 1]``.

    Parameters
    ----------
    value:
        The candidate probability.
    name:
        Parameter name used in the error message.
    allow_zero, allow_one:
        Whether the closed endpoints are acceptable.

    Returns
    -------
    float
        ``value`` coerced to ``float``.
    """
    value = _check_finite_number(value, name)
    low_ok = value > 0.0 or (allow_zero and value == 0.0)
    high_ok = value < 1.0 or (allow_one and value == 1.0)
    if not (low_ok and high_ok):
        lo = "[0" if allow_zero else "(0"
        hi = "1]" if allow_one else "1)"
        raise ConfigurationError(f"{name} must be in {lo}, {hi}, got {value}")
    return value


def check_probability_array(values, name: str) -> np.ndarray:
    """Validate a 1-D array of probabilities; returns a float ndarray."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ConfigurationError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{name} must be finite, got {arr!r}")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ConfigurationError(f"{name} entries must be in [0, 1], got {arr!r}")
    return arr


def check_positive(value: float, name: str, *, allow_zero: bool = False) -> float:
    """Validate that ``value`` is a positive (or non-negative) finite number."""
    value = _check_finite_number(value, name)
    if allow_zero:
        if value < 0.0:
            raise ConfigurationError(f"{name} must be >= 0, got {value}")
    elif value <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    return value


def check_in_range(value: float, name: str, low: float, high: float, *,
                   inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[low, high]`` (or ``(low, high)``)."""
    value = _check_finite_number(value, name)
    if inclusive:
        if not (low <= value <= high):
            raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
    elif not (low < value < high):
        raise ConfigurationError(f"{name} must be in ({low}, {high}), got {value}")
    return value


def _check_finite_number(value, name: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value}")
    return value
