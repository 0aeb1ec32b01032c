"""Slotted Monte-Carlo simulation of the femtocell CR network.

Mirrors the paper's evaluation methodology (Section V): each slot runs a
sensing phase (noisy observations, Bayesian fusion, collision-capped
access), an allocation phase (one of the four schemes), a transmission
phase (block-fading Bernoulli deliveries) and an ACK phase (assumed
error-free); GOP deadlines of ``T`` slots gate the PSNR accounting, and
each experiment point averages several independent runs with 95%
confidence intervals.
"""

from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.config import ScenarioConfig
from repro.sim.engine import SimulationEngine, SlotRecord
from repro.sim.fallback import DegradationEvent, FallbackChain
from repro.sim.metrics import FailedRun, RunMetrics, summarize_runs
from repro.sim.runner import MonteCarloRunner, SweepResult, sweep

__all__ = [
    "DegradationEvent",
    "FailedRun",
    "FallbackChain",
    "MonteCarloRunner",
    "RunMetrics",
    "ScenarioConfig",
    "SimulationEngine",
    "SlotRecord",
    "SweepCheckpoint",
    "SweepResult",
    "summarize_runs",
    "sweep",
]
