"""Scenario configuration for the simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.net.topology import Topology
from repro.registry.schemes import scheme_registry
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything the engine needs to simulate one scenario.

    Defaults follow the paper's first evaluation scenario (Section V-A):
    ``M = 8`` channels with ``P01 = 0.4``, ``P10 = 0.3`` (utilisation
    ``eta ~ 0.571``), collision cap ``gamma = 0.2``, sensing errors
    ``epsilon = delta = 0.3``, GOP deadline ``T = 10`` slots, and 0.3 Mbps
    per channel.

    Attributes
    ----------
    topology:
        The resolved network (nodes, association, link budgets,
        interference graph).
    scheme:
        Allocation scheme; any name in
        :func:`~repro.registry.schemes.scheme_registry` (built-ins:
        ``proposed``, ``proposed-fast``, ``heuristic1``, ``heuristic2``,
        ``graph-coloring``).
    n_channels:
        Number of licensed channels ``M``.
    p01, p10:
        Occupancy-chain transition probabilities (identical across
        channels, as in the paper's evaluation).
    channel_utilizations:
        Optional per-channel stationary utilisations ``eta_m`` (length
        ``n_channels``).  When set, channel ``m``'s ``p01`` is derived
        from its utilisation and the shared ``p10`` as
        ``eta_m * p10 / (1 - eta_m)`` -- heterogeneous occupancy as in
        Chowdhury's adaptive femtocell/macrocell resource management.
        ``None`` (default) keeps the paper's homogeneous chain.
    gamma:
        Maximum allowable collision probability with primary users.
    common_bandwidth_mbps, licensed_bandwidth_mbps:
        ``B0`` and ``B1``.
    false_alarm, miss_detection:
        Sensing error probabilities ``epsilon`` and ``delta`` (identical
        across sensors, as in the paper's evaluation).
    deadline_slots:
        GOP delivery deadline ``T``.
    n_gops:
        Simulation horizon in GOP windows (total slots =
        ``n_gops * deadline_slots``).
    realized_throughput:
        ``False`` (paper mode): the PSNR recursion uses the expected
        channel count ``G_t`` exactly as written under problem (10).
        ``True`` (ablation): licensed-channel throughput counts only
        channels that were truly idle, so misdetected collisions destroy
        the slot's licensed payload.
    access_policy:
        ``"probabilistic"`` (paper, eq. 7) or ``"threshold"`` (A1
        ablation: deterministic access iff the busy posterior clears the
        cap).
    single_observation_fusion:
        A2 ablation: fuse only the first sensing result per channel
        instead of all of them (quantifies the value of cooperative
        multi-sensor fusion, eqs. 3-4).
    belief_tracking:
        Extension: carry each channel's posterior across slots through
        the Markov transition matrix instead of restarting from the
        stationary prior ``eta_m`` every slot (see
        :mod:`repro.sensing.belief`).
    rd_variability:
        Extension: per-GOP encoding-complexity variation (sigma of the
        lognormal AR(1) trace in :mod:`repro.video.traces`); 0 (default)
        reproduces the paper's constant R-D model.
    rd_trace_phi:
        AR(1) correlation of the complexity trace between GOPs.
    nal_quantized:
        Extension: record each GOP's quality at NAL-unit granularity (the
        defining property of MGS, Section I) -- only fully received
        enhancement units count.  ``False`` keeps the paper's fluid
        rate model.
    nal_packet_bits:
        Nominal NAL-unit payload when ``nal_quantized`` is on.
    seed:
        Root RNG seed; ``None`` for fresh entropy.
    fault_plan:
        Optional fault-injection schedule (duck-typed; see
        :class:`repro.testing.faults.FaultPlan`).  ``None`` (the default)
        injects nothing.  The engine consults it through three hooks --
        ``forces_nonconvergence(slot)``, ``poisons_fading(slot)`` and
        ``sensing_outage(slot, n_channels)`` -- and the Monte-Carlo
        runner announces replications via ``begin_run(run_index,
        attempt)`` when the plan defines it.
    generator, generator_params:
        Identity stamp set by
        :meth:`~repro.registry.scenarios.ScenarioRegistry.build`: the
        registered scenario generator's name and its (sorted) build
        parameters.  Part of ``scenario_hash``/``config_hash``, so two
        generators can never alias one hash; ``None`` for configs built
        directly (hash identity unchanged from before the registry).
    """

    topology: Topology
    scheme: str = "proposed"
    n_channels: int = 8
    p01: float = 0.4
    p10: float = 0.3
    gamma: float = 0.2
    common_bandwidth_mbps: float = 0.3
    licensed_bandwidth_mbps: float = 0.3
    false_alarm: float = 0.3
    miss_detection: float = 0.3
    deadline_slots: int = 10
    n_gops: int = 3
    realized_throughput: bool = False
    access_policy: str = "probabilistic"
    single_observation_fusion: bool = False
    belief_tracking: bool = False
    rd_variability: float = 0.0
    rd_trace_phi: float = 0.8
    nal_quantized: bool = False
    nal_packet_bits: int = 8000
    seed: Optional[int] = 7
    fault_plan: Optional[object] = None
    channel_utilizations: Optional[Tuple[float, ...]] = None
    generator: Optional[str] = None
    generator_params: Optional[Tuple[Tuple[str, object], ...]] = None

    def __post_init__(self) -> None:
        registry = scheme_registry()
        if self.scheme not in registry:
            raise ConfigurationError(
                f"scheme must be one of {registry.names()}, "
                f"got {self.scheme!r}")
        if self.access_policy not in ("probabilistic", "threshold"):
            raise ConfigurationError(
                f"access_policy must be 'probabilistic' or 'threshold', "
                f"got {self.access_policy!r}")
        if self.n_channels < 1:
            raise ConfigurationError(
                f"n_channels must be >= 1, got {self.n_channels}")
        if self.deadline_slots < 1:
            raise ConfigurationError(
                f"deadline_slots must be >= 1, got {self.deadline_slots}")
        if self.n_gops < 1:
            raise ConfigurationError(f"n_gops must be >= 1, got {self.n_gops}")
        check_probability(self.p01, "p01")
        check_probability(self.p10, "p10")
        check_probability(self.gamma, "gamma")
        check_probability(self.false_alarm, "false_alarm")
        check_probability(self.miss_detection, "miss_detection")
        check_positive(self.common_bandwidth_mbps, "common_bandwidth_mbps")
        check_positive(self.licensed_bandwidth_mbps, "licensed_bandwidth_mbps")
        check_positive(self.rd_variability, "rd_variability", allow_zero=True)
        check_probability(self.rd_trace_phi, "rd_trace_phi", allow_one=False)
        if self.nal_packet_bits <= 0:
            raise ConfigurationError(
                f"nal_packet_bits must be positive, got {self.nal_packet_bits}")
        if self.channel_utilizations is not None:
            etas = tuple(float(eta) for eta in self.channel_utilizations)
            object.__setattr__(self, "channel_utilizations", etas)
            if len(etas) != self.n_channels:
                raise ConfigurationError(
                    f"channel_utilizations must have n_channels="
                    f"{self.n_channels} entries, got {len(etas)}")
            for index, eta in enumerate(etas):
                check_probability(eta, f"channel_utilizations[{index}]",
                                  allow_zero=False, allow_one=False)
                p01 = eta * self.p10 / (1.0 - eta)
                if p01 > 1.0:
                    raise ConfigurationError(
                        f"channel_utilizations[{index}]={eta} implies "
                        f"p01={p01:.4f} > 1 with p10={self.p10}; lower the "
                        f"utilisation or p10")
            if self.belief_tracking:
                raise ConfigurationError(
                    "channel_utilizations is incompatible with "
                    "belief_tracking (the belief tracker assumes one "
                    "shared transition chain)")
        if self.generator_params is not None:
            params = tuple((str(key), value)
                           for key, value in self.generator_params)
            object.__setattr__(self, "generator_params", params)

    @property
    def n_slots(self) -> int:
        """Total simulated slots."""
        return self.n_gops * self.deadline_slots

    @property
    def utilization(self) -> float:
        """Stationary channel utilisation ``eta`` implied by (p01, p10)."""
        return self.p01 / (self.p01 + self.p10)

    @property
    def channel_p01(self):
        """Per-channel ``p01``: the scalar, or the tuple derived from
        ``channel_utilizations`` (``eta_m * p10 / (1 - eta_m)``)."""
        if self.channel_utilizations is None:
            return self.p01
        return tuple(eta * self.p10 / (1.0 - eta)
                     for eta in self.channel_utilizations)

    def with_scheme(self, scheme: str) -> "ScenarioConfig":
        """Copy of this config running a different allocation scheme."""
        return replace(self, scheme=scheme)

    def with_seed(self, seed: Optional[int]) -> "ScenarioConfig":
        """Copy of this config with a different root seed."""
        return replace(self, seed=seed)

    def replace(self, **changes) -> "ScenarioConfig":
        """General-purpose copy-with-changes (dataclass ``replace``)."""
        return replace(self, **changes)
