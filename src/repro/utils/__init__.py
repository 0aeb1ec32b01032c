"""Shared low-level utilities: validation, RNG handling, and statistics.

These helpers are deliberately free of any domain knowledge so that every
domain package (:mod:`repro.spectrum`, :mod:`repro.sensing`, ...) can rely
on them without creating import cycles.
"""

from repro.utils.errors import (
    ConfigurationError,
    ConvergenceError,
    ReproError,
)
from repro.utils.rng import RandomState, as_generator, spawn_streams
from repro.utils.stats import (
    ConfidenceInterval,
    mean_confidence_interval,
)
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_probability_array,
)

__all__ = [
    "ConfidenceInterval",
    "ConfigurationError",
    "ConvergenceError",
    "RandomState",
    "ReproError",
    "as_generator",
    "check_in_range",
    "check_positive",
    "check_probability",
    "check_probability_array",
    "mean_confidence_interval",
    "spawn_streams",
]
