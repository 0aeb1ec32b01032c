"""Tests for the scheme registry."""

import pytest

from repro.core.allocator import ProposedAllocator, get_allocator
from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.registry import scheme_registry
from repro.utils.errors import ConfigurationError
from tests.conftest import make_problem


class TestRegistry:
    def test_all_schemes_instantiable(self):
        for scheme in scheme_registry().names():
            allocator = get_allocator(scheme)
            assert allocator.name == scheme

    def test_types(self):
        assert isinstance(get_allocator("proposed"), ProposedAllocator)
        assert isinstance(get_allocator("heuristic1"), EqualAllocationHeuristic)
        assert isinstance(get_allocator("heuristic2"), MultiuserDiversityHeuristic)

    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            get_allocator("magic")

    def test_heuristics_reject_options(self):
        with pytest.raises(ConfigurationError):
            get_allocator("heuristic1", step_size=0.1)

    def test_proposed_accepts_solver_options(self):
        allocator = get_allocator("proposed", max_iterations=100)
        assert allocator.name == "proposed"


class TestEquivalence:
    def test_proposed_and_fast_agree(self):
        problem = make_problem(4, n_fbss=2, seed=21)
        slow = get_allocator("proposed").allocate(problem)
        fast = get_allocator("proposed-fast").allocate(problem)
        assert slow.objective == pytest.approx(fast.objective, abs=1e-7)

    def test_every_scheme_produces_feasible_allocations(self):
        from tests.reference import check_feasible
        problem = make_problem(5, n_fbss=2, seed=22)
        for scheme in scheme_registry().names():
            allocation = get_allocator(scheme).allocate(problem)
            check_feasible(problem, allocation)

    def test_proposed_dominates_heuristics_in_objective(self):
        problem = make_problem(5, n_fbss=2, seed=23)
        proposed = get_allocator("proposed-fast").allocate(problem).objective
        for scheme in ("heuristic1", "heuristic2"):
            assert get_allocator(scheme).allocate(problem).objective <= proposed + 1e-9
