"""Tests for the exception hierarchy."""

import pytest

from repro.utils.errors import (
    AllocationFailedError,
    CheckpointError,
    ConfigurationError,
    ConvergenceError,
    NumericalError,
    ReproError,
)


def test_all_derive_from_repro_error():
    for exc_type in (ConfigurationError, ConvergenceError, NumericalError,
                     AllocationFailedError, CheckpointError):
        assert issubclass(exc_type, ReproError)


def test_allocation_failed_error_carries_events():
    err = AllocationFailedError("all failed", events=("a", "b"))
    assert err.events == ("a", "b")
    assert AllocationFailedError("no events").events == ()


def test_configuration_error_is_value_error():
    # Callers validating scalars can catch ValueError idiomatically.
    with pytest.raises(ValueError):
        raise ConfigurationError("bad input")


def test_convergence_error_carries_diagnostics():
    err = ConvergenceError("did not converge", iterations=100, residual=0.5)
    assert err.iterations == 100
    assert err.residual == 0.5
    assert "did not converge" in str(err)


def test_convergence_error_defaults():
    err = ConvergenceError("msg")
    assert err.iterations is None
    assert err.residual is None


def test_single_except_clause_catches_library_errors():
    for exc in (ConfigurationError("a"), ConvergenceError("b"),
                NumericalError("c")):
        try:
            raise exc
        except ReproError:
            pass
