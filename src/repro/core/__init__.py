"""Resource-allocation core: the paper's primary contribution.

* :mod:`repro.core.problem` -- the per-slot convex program (problems (12)
  and (17)) decomposed from the multistage stochastic program (10).
* :mod:`repro.core.dual` -- the optimum-achieving distributed algorithm
  (Tables I and II) via dual decomposition and projected subgradients.
* :mod:`repro.core.greedy` -- the greedy FBS-channel allocation for
  interfering FBSs (Table III).
* :mod:`repro.core.bounds` -- Theorem 2's ``1/(1+D_max)`` guarantee and the
  tighter data-dependent upper bound of eq. (23).
* :mod:`repro.core.heuristics` -- the paper's two comparison schemes.
* :mod:`repro.core.reference` -- the exact water-filling solve of a
  fixed base-station assignment (the exhaustive oracles built on it,
  which validate the distributed algorithm, live in ``tests/reference.py``).
* :mod:`repro.core.allocator` -- scheme registry / facade used by the
  simulation engine.
"""

from repro.core.allocator import get_allocator
from repro.core.bounds import GreedyTrace, theorem2_factor, tighter_upper_bound
from repro.core.dual import DualDecompositionSolver, DualSolution, fast_solve, flip_polish
from repro.core.greedy import GreedyChannelAllocator, GreedyResult
from repro.core.heuristics import EqualAllocationHeuristic, MultiuserDiversityHeuristic
from repro.core.problem import Allocation, SlotProblem, UserDemand

__all__ = [
    "Allocation",
    "DualDecompositionSolver",
    "DualSolution",
    "EqualAllocationHeuristic",
    "GreedyChannelAllocator",
    "GreedyResult",
    "GreedyTrace",
    "MultiuserDiversityHeuristic",
    "SlotProblem",
    "UserDemand",
    "fast_solve",
    "flip_polish",
    "get_allocator",
    "theorem2_factor",
    "tighter_upper_bound",
]
