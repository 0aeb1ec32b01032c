"""Built-in allocation schemes and their registry entries.

The simulation engine is scheme-agnostic -- it hands each slot's
:class:`~repro.core.problem.SlotProblem` to an *allocator* and applies the
returned :class:`~repro.core.problem.Allocation`.  This module defines the
paper's allocators and registers them with the process-wide
:class:`~repro.registry.schemes.SchemeRegistry`:

* ``"proposed"`` -- the paper's algorithm (dual decomposition; combined
  with greedy channel allocation by the engine when FBSs interfere).
* ``"proposed-fast"`` -- same optimisation problem solved by the fast
  exact-inner-solve variant, used for large sweeps.  The subgradient
  iteration stops near the optimum rather than at it, so the two
  schemes' results differ slightly.
* ``"heuristic1"`` / ``"heuristic2"`` -- the comparison schemes.

The ``"graph-coloring"`` scheme lives in :mod:`repro.core.coloring`,
imported at the bottom of this module so one import completes the
built-in set.
"""

from __future__ import annotations

from repro.core.batch import SolveRequest, drive, fast_solve_iter
from repro.core.dual import DualDecompositionSolver
from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.core.problem import Allocation, SlotProblem
from repro.registry.schemes import SchemeInfo, register_scheme, scheme_registry
from repro.utils.errors import ConfigurationError


class ProposedAllocator:
    """The paper's optimum-achieving allocator (Tables I/II).

    Parameters
    ----------
    fast:
        Use the fast exact-inner solver instead of the literal subgradient
        iteration.  Both solve the same convex program; the subgradient
        version is the faithful distributed protocol, the fast version is
        preferable inside parameter sweeps.
    solver_kwargs:
        Forwarded to :class:`DualDecompositionSolver`; the fast solver
        takes none.
    """

    def __init__(self, *, fast: bool = False, **solver_kwargs) -> None:
        self.fast = bool(fast)
        if self.fast and solver_kwargs:
            raise ConfigurationError(
                f"the fast solver accepts no options, got {solver_kwargs}")
        self._solver = None if self.fast else DualDecompositionSolver(**solver_kwargs)

    @property
    def name(self) -> str:
        """Registry name of this allocator."""
        return "proposed-fast" if self.fast else "proposed"

    def allocate(self, problem: SlotProblem) -> Allocation:
        """Solve one slot problem to (near-)optimality."""
        return drive(self.allocate_iter(problem))

    def allocate_iter(self, problem: SlotProblem):
        """Generator form of :meth:`allocate` (lockstep batching).

        Yields the slot solve as a :class:`~repro.core.batch.SolveRequest`
        and returns the :class:`~repro.core.problem.Allocation`.  Strict
        and trace-recording solvers solve inline instead -- they need the
        solver instance's own bookkeeping (raising
        :class:`~repro.utils.errors.ConvergenceError`, multiplier
        traces), which an answered request does not carry.
        """
        if self.fast:
            return (yield from fast_solve_iter(problem))
        solver = self._solver
        if solver.strict or solver.record_trace:
            solution = solver.solve(problem)
        else:
            solution = yield SolveRequest(
                problem=problem,
                max_iterations=solver.max_iterations,
                step_size=solver.step_size,
                threshold=solver.threshold,
                decay_after=solver.decay_after)
        return solution.allocation


def _proposed_factory(**kwargs):
    return ProposedAllocator(fast=False, **kwargs)


def _proposed_fast_factory():
    return ProposedAllocator(fast=True)


register_scheme(SchemeInfo(
    name="proposed",
    factory=_proposed_factory,
    greedy_channels=True,
    accepts_options=True,
    description="Dual-decomposition optimum (Tables I/II) with greedy "
                "channel allocation under interference.",
))
register_scheme(SchemeInfo(
    name="proposed-fast",
    factory=_proposed_fast_factory,
    greedy_channels=True,
    description="Same convex program via the fast exact-inner solver; "
                "results differ slightly, preferred for large sweeps.",
))
register_scheme(SchemeInfo(
    name="heuristic1",
    factory=EqualAllocationHeuristic,
    fallback_eligible=True,
    description="Equal-share comparison heuristic; closed-form, so it "
                "terminates every fallback chain.",
))
register_scheme(SchemeInfo(
    name="heuristic2",
    factory=MultiuserDiversityHeuristic,
    description="Multiuser-diversity comparison heuristic.",
))

# Complete the built-in set: the graph-coloring scheme registers itself
# at import.  Must be a direct submodule import (this module runs during
# ``repro.core`` package init).
import repro.core.coloring  # noqa: E402,F401


def get_allocator(scheme: str, **kwargs):
    """Instantiate an allocator by registered scheme name.

    Parameters
    ----------
    scheme:
        Any name in :func:`~repro.registry.schemes.scheme_registry`.
    kwargs:
        Forwarded to the allocator factory; schemes without the
        ``accepts_options`` capability reject any options.
    """
    return scheme_registry().create(scheme, **kwargs)
