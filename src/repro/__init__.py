"""repro: MGS scalable video over femtocell cognitive radio networks.

A from-scratch reproduction of Hu & Mao, "Resource Allocation for Medium
Grain Scalable Videos over Femtocell Cognitive Radio Networks"
(ICDCS 2011).  See DESIGN.md for the system inventory and EXPERIMENTS.md
for the reproduced tables/figures.

Public API highlights
---------------------
Core algorithms
    :class:`repro.core.DualDecompositionSolver` (Tables I/II),
    :class:`repro.core.GreedyChannelAllocator` (Table III),
    :func:`repro.core.tighter_upper_bound` (eq. 23),
    and the comparison heuristics.
Substrates
    :mod:`repro.spectrum` (Markov occupancy), :mod:`repro.sensing`
    (fusion eqs. 2-4, access policy eqs. 5-7), :mod:`repro.phy`
    (block fading, eq. 8), :mod:`repro.video` (MGS model, eq. 9),
    :mod:`repro.net` (topology + interference graphs).
Simulation
    :class:`repro.sim.SimulationEngine`, :class:`repro.sim.MonteCarloRunner`,
    and the scenario builders in :mod:`repro.experiments`.
"""

__version__ = "1.0.0"

from repro.core import (
    Allocation,
    DualDecompositionSolver,
    GreedyChannelAllocator,
    SlotProblem,
    UserDemand,
    fast_solve,
    get_allocator,
    theorem2_factor,
    tighter_upper_bound,
)
from repro.net import build_interference_graph, build_topology
from repro.sensing import AccessPolicy, SpectrumSensor, fuse_posterior
from repro.sensing.belief import ChannelBeliefTracker
from repro.sim import MonteCarloRunner, ScenarioConfig, SimulationEngine
from repro.spectrum import OccupancyChain, Spectrum
from repro.video import get_sequence

__all__ = [
    "Allocation",
    "AccessPolicy",
    "ChannelBeliefTracker",
    "DualDecompositionSolver",
    "GreedyChannelAllocator",
    "MonteCarloRunner",
    "OccupancyChain",
    "ScenarioConfig",
    "SimulationEngine",
    "SlotProblem",
    "Spectrum",
    "SpectrumSensor",
    "UserDemand",
    "__version__",
    "build_interference_graph",
    "build_topology",
    "fast_solve",
    "fuse_posterior",
    "get_allocator",
    "get_sequence",
    "theorem2_factor",
    "tighter_upper_bound",
]
