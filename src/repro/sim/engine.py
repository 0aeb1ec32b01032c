"""The slotted simulation engine.

One :class:`SimulationEngine` instance simulates one scenario run.  Every
slot executes the paper's four phases:

1. **Sensing** -- each FBS senses all ``M`` licensed channels (it has
   ``M`` antennas, Section III-A); each CR user senses one channel,
   assigned round-robin and rotated every slot so all channels keep
   getting user observations.  All results are fused per channel with the
   Bayesian update of eqs. (2)-(4).
2. **Access decision** -- the collision-capped probabilistic policy of
   eqs. (5)-(7) yields the access set ``A(t)`` and the posteriors behind
   ``G_t``.
3. **Allocation** -- interfering deployments first run the channel
   allocation (Table III greedy for the proposed scheme, colour-partition
   for the heuristics); then the scheme's time-share allocator solves the
   slot problem.
4. **Transmission + ACK** -- block-fading Bernoulli deliveries realise the
   indicators ``xi`` and the PSNR recursion of problem (10) advances the
   per-user GOP clocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.batch import drive, fast_solve_iter, fast_solve_warm_iter
from repro.core.bounds import GreedyTrace, tighter_upper_bound
from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import Allocation, SlotProblem, UserDemand
from repro.registry.schemes import scheme_registry
from repro.obs.metrics import PSNR_BUCKETS, global_registry, metrics_enabled
from repro.obs.trace import active_tracer
from repro.sensing.access import (
    AccessDecision,
    AccessPolicy,
    CollisionTracker,
    HardThresholdAccessPolicy,
)
from repro.phy.fading import draw_rayleigh_margins
from repro.sensing.belief import ChannelBeliefTracker
from repro.sensing.detector import SpectrumSensor, sense_observations_batched
from repro.sensing.fusion import fuse_posteriors_batched
from repro.sim.build import BuiltScenario, build_scenario
from repro.sim.channel_assignment import (
    color_partition_allocation,
    expected_channels_of,
)
from repro.sim.config import ScenarioConfig
from repro.sim.fallback import DegradationEvent, fallback_chain_for
from repro.sim.metrics import RunMetrics, compute_run_metrics
from repro.spectrum.channel import Spectrum
from repro.utils.errors import NumericalError
from repro.utils.rng import spawn_streams
from repro.video.gop import GopClock
from repro.video.sequences import get_sequence
from repro.video.traces import GopComplexityTrace


@dataclass
class SlotRecord:
    """Everything that happened in one simulated slot.

    Useful for examples, debugging, and white-box tests; the engine keeps
    only light aggregates unless asked to record slots.
    """

    slot: int
    occupancy: np.ndarray
    access: AccessDecision
    channel_allocation: Dict[int, Set[int]]
    problem: SlotProblem
    allocation: Allocation
    increments: Dict[int, float]
    greedy_trace: Optional[GreedyTrace] = None
    bound_gap: float = 0.0


class SimulationEngine:
    """Simulates one run of one scenario.

    Parameters
    ----------
    config:
        The scenario.
    record_slots:
        Keep a :class:`SlotRecord` per slot (memory-heavy for long runs).
    built:
        A pre-built :class:`~repro.sim.build.BuiltScenario` holding the
        per-scenario invariants (typically served by the
        :class:`~repro.store.scenario_store.ScenarioStore`).  ``None``
        builds one inline -- bit-identical either way, since
        :func:`~repro.sim.build.build_scenario` performs exactly the
        derivation this constructor used to inline.
    """

    def __init__(self, config: ScenarioConfig, *, record_slots: bool = False,
                 built: Optional[BuiltScenario] = None) -> None:
        self.config = config
        self.record_slots = bool(record_slots)
        self.records: List[SlotRecord] = []
        if built is None:
            built = build_scenario(config)

        streams = spawn_streams(
            config.seed, ["spectrum", "sensing", "access", "fading", "traces"])
        self._fading_rng = streams["fading"]

        self.spectrum = Spectrum(
            config.n_channels, config.channel_p01, config.p10,
            licensed_bandwidth_mbps=config.licensed_bandwidth_mbps,
            common_bandwidth_mbps=config.common_bandwidth_mbps,
            max_collision_probability=config.gamma,
            rng=streams["spectrum"],
        )
        policy_class = (HardThresholdAccessPolicy
                        if config.access_policy == "threshold" else AccessPolicy)
        self.access_policy = policy_class(
            np.full(config.n_channels, config.gamma), rng=streams["access"])
        self.collisions = CollisionTracker(config.n_channels)
        self.belief_tracker = (
            ChannelBeliefTracker(config.n_channels, config.p01, config.p10)
            if config.belief_tracking else None)

        topology = config.topology
        sensing_rng = streams["sensing"]
        self._user_sensors = {
            user.user_id: SpectrumSensor(
                config.false_alarm, config.miss_detection,
                sensor_id=user.user_id, rng=sensing_rng)
            for user in topology.users
        }
        # FBS sensor ids live above the user id space to stay unique.
        id_base = 1 + max(user.user_id for user in topology.users)
        self._fbs_sensors = {
            fbs.fbs_id: SpectrumSensor(
                config.false_alarm, config.miss_detection,
                sensor_id=id_base + fbs.fbs_id, rng=sensing_rng)
            for fbs in topology.fbss
        }
        # Every sensor shares this one stream; the batched backend draws
        # a whole slot's observations from it in one call.
        self._sensing_rng = sensing_rng

        # Per-scenario invariants come from the BuiltScenario: the
        # topology is static, so link margins, sensing layouts, demand
        # constants, and the FBS grid never change across slots -- or
        # across replications, which is why they are built once and
        # shared (see repro.sim.build).  The interleaved csi scale
        # vector -- (mbs_0, fbs_0, mbs_1, fbs_1, ...) in topology user
        # order -- lets one exponential array draw walk the fading
        # stream exactly like the scalar per-user loop.
        self._sorted_user_ids = list(built.sorted_user_ids)
        self._csi_user_ids = list(built.csi_user_ids)
        self._csi_scales = built.csi_scales
        self._etas = built.etas
        # The round-robin sensing layout repeats with period M; the
        # built artifact carries every offset's scatter precomputed
        # (lazily fillable for artifacts from older builds).
        self._sensing_layout: Dict[int, tuple] = dict(built.sensing_layouts)

        scheme_info = scheme_registry().get(config.scheme)
        self._greedy_channels = scheme_info.greedy_channels
        allocator_kwargs = (
            {"warm_start": True}
            if scheme_info.warm_startable and config.warm_start else {})
        self.allocator = scheme_info.create(**allocator_kwargs)
        # Solver fallback chain: the configured scheme first, degrading to
        # the fallback-eligible registered schemes (closed-form, cannot
        # fail to converge) when the primary solver misbehaves -- see
        # repro.sim.fallback for the validation and event semantics.
        self._fallback_chain = fallback_chain_for(config.scheme,
                                                  self.allocator)
        self.degradations: List[DegradationEvent] = []
        self._interfering = built.interfering
        self._fbs_ids = list(built.fbs_ids)
        self._greedy = (GreedyChannelAllocator(topology.interference_graph,
                                               memoize=config.memoize_q,
                                               warm_start=config.warm_start)
                        if self._interfering else None)
        # Warm-start store for the per-slot eq. (23) relaxation bound solve.
        self._relaxed_warm: Dict[int, float] = {}
        #: Cumulative wall-clock seconds per engine phase (profiling;
        #: excluded from serialized results -- timings are not
        #: deterministic, unlike everything else the engine emits).
        self.phase_seconds: Dict[str, float] = {
            "sensing": 0.0, "access": 0.0, "allocation": 0.0,
            "transmission": 0.0}

        # Demand constants are shared with the (possibly cached) built
        # artifact; copied per engine so nothing downstream can mutate
        # the cache.  GOP clocks are per-run mutable state and stay here.
        self.clocks: Dict[int, GopClock] = {}
        self._demands_static: Dict[int, dict] = {
            user_id: dict(static)
            for user_id, static in built.demands_static.items()
        }
        for user in topology.users:
            sequence = get_sequence(user.sequence_name)
            self.clocks[user.user_id] = GopClock(
                sequence, config.deadline_slots,
                quantum_db=self._nal_quantum(sequence, 1.0))
        # Per-GOP encoding-complexity traces (extension; constant 1.0
        # when rd_variability is 0, reproducing the paper's model).
        trace_rng = streams["traces"]
        self._rd_traces = {
            user.user_id: GopComplexityTrace(
                sigma=config.rd_variability, phi=config.rd_trace_phi,
                rng=trace_rng)
            for user in topology.users
        }
        self._rd_scale = {
            user_id: 1.0 / trace.complexity
            for user_id, trace in self._rd_traces.items()
        }
        self._slot = 0
        self._gop_bound_gap = 0.0
        self._bound_gaps_per_gop: List[float] = []

    @property
    def slot(self) -> int:
        """Number of slots simulated so far."""
        return self._slot

    def _mark_phase(self, phase: str, tick: float, tracer=None) -> float:
        """Charge the time since ``tick`` to ``phase``; return a new mark."""
        now = time.perf_counter()
        self.phase_seconds[phase] += now - tick
        if tracer is not None:
            tracer.emit_span(phase, kind="phase", seconds=now - tick,
                             slot=self._slot)
        return now

    def _nal_quantum(self, sequence, rd_scale: float) -> float:
        """Per-GOP quality quantum of one NAL unit (0 when disabled).

        One unit of ``nal_packet_bits`` is worth ``beta_eff * bits /
        (1e6 * gop_duration)`` dB, with the effective slope scaled by the
        GOP's complexity (see :mod:`repro.video.packets` for the
        packet-level counterpart of this arithmetic).
        """
        if not self.config.nal_quantized:
            return 0.0
        beta_eff = sequence.rd.beta_db_per_mbps * rd_scale
        return (beta_eff * self.config.nal_packet_bits
                / (1e6 * sequence.gop_duration_s))

    def build_slot_problem(self, expected_channels: Dict[int, float],
                           csi: Optional[Dict[int, tuple]] = None) -> SlotProblem:
        """Assemble the slot problem from the current PSNR states.

        Parameters
        ----------
        expected_channels:
            ``{fbs_id: G_i}`` for this slot.
        csi:
            Optional ``{user_id: (margin_mbs, margin_fbs)}`` realised
            block-fading margins; attached to the demands so heuristic
            schedulers can exploit instantaneous channel conditions.
        """
        users = []
        for user_id, static in self._demands_static.items():
            margins = csi.get(user_id) if csi else None
            clock = self.clocks[user_id]
            fields = dict(static)
            # A complexity-c GOP needs c times the rate per dB: scale the
            # effective slopes (the quality ceiling is invariant).
            scale = self._rd_scale[user_id]
            fields["r_mbs"] = fields["r_mbs"] * scale
            fields["r_fbs"] = fields["r_fbs"] * scale
            if clock.headroom_db <= 0.0:
                # The GOP is fully delivered: the base station has no more
                # enhancement bits to send this window, so the stream's
                # effective rate slope is zero for every scheduler.
                fields["r_mbs"] = 0.0
                fields["r_fbs"] = 0.0
            users.append(UserDemand(
                user_id=user_id,
                w_prev=clock.psnr_db,
                csi_mbs=margins[0] if margins else None,
                csi_fbs=margins[1] if margins else None,
                **fields,
            ))
        return SlotProblem(users=users, expected_channels=expected_channels)

    def _draw_csi_batched(self) -> Dict[int, tuple]:
        """Realise this slot's block-fading margins for every link.

        Under Rayleigh fading the decoding margin ``X / H`` is exponential
        with the link's mean margin; a link decodes iff its draw exceeds 1,
        which happens with exactly the ``bar P^F`` probability the
        allocation problem uses.  One exponential array draw over the
        hoisted interleaved scale vector consumes the fading stream
        exactly like a per-user scalar loop (see
        :func:`repro.utils.rng.batched_exponential`; the scalar oracle
        lives in ``tests/oracle.py``).
        """
        draws = draw_rayleigh_margins(self._fading_rng, self._csi_scales)
        mbs_draws = draws[0::2]
        fbs_draws = draws[1::2]
        return {
            user_id: (float(mbs_draws[k]), float(fbs_draws[k]))
            for k, user_id in enumerate(self._csi_user_ids)
        }

    def _sense_fuse_batched(self, occupancy: np.ndarray) -> np.ndarray:
        """Sensing + fusion phase (eqs. (2)-(4)).

        One uniform array draw realises every observation (FBS antennas
        in insertion order over channels 0..M-1, then users in sorted-id
        round-robin order), and one vectorized fusion pass folds them per
        channel in the same observation order.  Draw-for-draw identical
        to the per-observation scalar oracle in ``tests/oracle.py``, as
        asserted by ``tests/sensing/test_batched_equivalence.py`` and the
        engine differential suite.
        """
        config = self.config
        fault_plan = config.fault_plan
        n_channels = config.n_channels
        n_fbs = len(self._fbs_sensors)
        n_users = len(self._sorted_user_ids)
        offset = self._slot % n_channels
        layout = self._sensing_layout.get(offset)
        if layout is None:
            user_channels = (np.arange(n_users) + offset) % n_channels
            user_counts = np.bincount(user_channels, minlength=n_channels)
            # Group user observations by channel, preserving user order
            # within each channel (stable sort = the scalar append order).
            order = np.argsort(user_channels, kind="stable")
            sorted_channels = user_channels[order]
            starts = np.cumsum(user_counts) - user_counts
            positions = n_fbs + np.arange(n_users) - starts[sorted_channels]
            layout = (user_channels, user_counts, order,
                      sorted_channels, positions)
            self._sensing_layout[offset] = layout
        user_channels, user_counts, order, sorted_channels, positions = layout
        states = np.concatenate([
            np.tile(occupancy, n_fbs), occupancy[user_channels]])
        observations = sense_observations_batched(
            states, config.false_alarm, config.miss_detection,
            rng=self._sensing_rng)
        fbs_obs = observations[:n_fbs * n_channels].reshape(n_fbs, n_channels)
        user_obs = observations[n_fbs * n_channels:]
        if config.single_observation_fusion:
            # A2 ablation: only the first FBS's own antenna reaches the
            # fusion centre (user draws were still consumed above, as in
            # the scalar path).
            obs_matrix = np.ascontiguousarray(fbs_obs[:1].T)
            counts = np.full(n_channels, min(1, n_fbs), dtype=np.int64)
        else:
            width = n_fbs + (int(user_counts.max()) if n_users else 0)
            obs_matrix = np.zeros((n_channels, width), dtype=np.int8)
            obs_matrix[:, :n_fbs] = fbs_obs.T
            if n_users:
                obs_matrix[sorted_channels, positions] = user_obs[order]
            counts = n_fbs + user_counts
        if fault_plan is not None:
            outage = fault_plan.sensing_outage(self._slot, n_channels)
            if outage:
                counts = counts.copy()
                counts[list(outage)] = 0
                self.degradations.append(DegradationEvent(
                    slot=self._slot, cause="sensing-outage",
                    allocator="sensing", fallback="prior-only",
                    detail=("observations missing on channels "
                            f"{sorted(outage)}; fused from priors")))
        if self.belief_tracker is not None:
            self.belief_tracker.predict()
            return self.belief_tracker.fuse_batched(
                obs_matrix, counts, config.false_alarm, config.miss_detection)
        return fuse_posteriors_batched(
            self._etas, obs_matrix, counts,
            config.false_alarm, config.miss_detection)

    def step(self) -> SlotRecord:
        """Simulate one complete time slot and return its record.

        Raises
        ------
        NumericalError
            When a non-finite fading margin is drawn (or injected); the
            Monte-Carlo runner isolates this per replication.
        AllocationFailedError
            When every allocator in the fallback chain fails.
        """
        # Observability gate: with tracing off this is one global read
        # and a plain call into the slot body, so the disabled path adds
        # nothing measurable.  Phase/solver spans additionally require
        # collect_phases (the --profile contract).
        tracer = active_tracer()
        if tracer is None:
            return self._step(None)
        with tracer.span("slot", kind="slot", slot=self._slot):
            return self._step(tracer if tracer.collect_phases else None)

    def _step(self, tracer) -> SlotRecord:
        """The slot body; ``tracer`` (or None) receives phase spans."""
        return drive(self._step_iter(tracer))

    def _step_iter(self, tracer):
        """Generator form of the slot body (lockstep batching).

        Every dual solve of the allocation phase -- the greedy's Q(c)
        evaluations, the eq. (23) relaxation bound, the fallback chain's
        scheme solve -- is yielded as a
        :class:`~repro.core.batch.SolveRequest`; everything else
        (sensing, access, transmission) runs inline.  Driven either
        sequentially by :func:`~repro.core.batch.drive` or in lockstep
        with sibling replications by :mod:`repro.sim.lockstep`.
        """
        config = self.config
        fault_plan = config.fault_plan
        if fault_plan is not None:
            # Chaos-harness hook: hang/slow injection is pure wall-clock
            # (no RNG stream is consumed), so supervised kills and
            # deadline tests see byte-identical results.
            delay_hook = getattr(fault_plan, "injected_delay", None)
            if delay_hook is not None:
                delay = delay_hook(self._slot)
                if delay > 0:
                    time.sleep(delay)
        observing = metrics_enabled()
        n_degraded_before = len(self.degradations) if observing else 0
        tick = time.perf_counter()
        state = self.spectrum.advance()

        # --- Sensing phase -------------------------------------------------
        posteriors = self._sense_fuse_batched(state.occupancy)

        tick = self._mark_phase("sensing", tick, tracer)

        # --- Access decision ------------------------------------------------
        access = self.access_policy.decide_batched(posteriors)
        self.collisions.record(access, state.occupancy)
        available = access.available_channels.tolist()
        posterior_map = {m: float(posteriors[m]) for m in range(config.n_channels)}
        if observing:
            registry = global_registry()
            accessed = access.decisions == 0
            n_accessed = int(accessed.sum())
            registry.counter("repro_access_decisions_total",
                             decision="access").inc(n_accessed)
            registry.counter("repro_access_decisions_total",
                             decision="deny").inc(
                                 access.decisions.size - n_accessed)
            registry.counter("repro_access_collisions_total").inc(
                int((accessed & (state.occupancy == 1)).sum()))
        tick = self._mark_phase("access", tick, tracer)

        # --- Channel + time-share allocation --------------------------------
        csi = self._draw_csi_batched()
        if fault_plan is not None and fault_plan.poisons_fading(self._slot):
            csi = {user_id: (float("nan"), float("nan")) for user_id in csi}
        for user_id, margins in csi.items():
            if not all(map(math.isfinite, margins)):
                # Fail fast and loud: a NaN margin would otherwise flow
                # silently through the PSNR recursion (NaN > 1.0 is just
                # False) and corrupt the run's metrics.
                raise NumericalError(
                    f"non-finite fading margin {margins} for user {user_id} "
                    f"at slot {self._slot}")
        fbs_ids = self._fbs_ids
        greedy_trace: Optional[GreedyTrace] = None
        bound_gap = 0.0
        if not self._interfering:
            # Full spatial reuse: every FBS may access all of A(t).
            g_all = access.expected_available
            channel_map = {i: set(available) for i in fbs_ids}
            expected = {i: g_all for i in fbs_ids}
            problem = self.build_slot_problem(expected, csi)
        elif self._greedy_channels:
            problem = self.build_slot_problem({i: 0.0 for i in fbs_ids}, csi)
            # The time-share allocation at the final c is recomputed by
            # the fallback chain below, so skip the greedy's own final
            # solve (final_solve=False) -- one fewer full solve per slot.
            greedy_result = yield from self._greedy.allocate_iter(
                problem, available, posterior_map, final_solve=False)
            channel_map = greedy_result.channel_allocation
            expected = greedy_result.expected_channels
            problem = problem.with_expected_channels(expected)
            greedy_trace = greedy_result.trace
            # Two valid upper bounds on the slot optimum Q(Omega): the
            # eq. (23) trace bound, and the interference-free relaxation
            # (Q is nondecreasing in every G_i, so granting all FBSs the
            # whole access set cannot be worse than any conflict-free
            # allocation).  Take the tighter of the two.
            relaxed_problem = problem.with_expected_channels(
                {i: access.expected_available for i in fbs_ids})
            if config.warm_start:
                relaxed = yield from fast_solve_warm_iter(
                    relaxed_problem, self._relaxed_warm)
            else:
                relaxed = yield from fast_solve_iter(relaxed_problem)
            bound_q = min(tighter_upper_bound(greedy_trace), relaxed.objective)
            bound_gap = max(0.0, bound_q - greedy_trace.q_final)
        else:
            channel_map = color_partition_allocation(
                config.topology.interference_graph, fbs_ids, available, posterior_map)
            expected = expected_channels_of(channel_map, posterior_map)
            problem = self.build_slot_problem(expected, csi)
        inject = (fault_plan is not None
                  and fault_plan.forces_nonconvergence(self._slot))
        allocation, degradations = yield from self._fallback_chain.allocate_iter(
            problem, slot=self._slot, inject_nonconvergence=inject)
        self.degradations.extend(degradations)
        tick = self._mark_phase("allocation", tick, tracer)

        # --- Transmission + ACK phase ---------------------------------------
        # Block fading: the margin drawn at slot start decides every packet
        # of this slot on that link (xi = 1 iff margin > 1).
        idle_truth = set(np.flatnonzero(state.occupancy == 0).tolist())
        increments: Dict[int, float] = {}
        for user in problem.users:
            margin_mbs, margin_fbs = csi[user.user_id]
            increment = 0.0
            if allocation.uses_mbs(user.user_id):
                rho = allocation.rho_mbs.get(user.user_id, 0.0)
                if rho > 0.0 and margin_mbs > 1.0:
                    increment = rho * user.r_mbs
            else:
                rho = allocation.rho_fbs.get(user.user_id, 0.0)
                if rho > 0.0:
                    if config.realized_throughput:
                        multiplier = float(len(
                            channel_map.get(user.fbs_id, set())
                            & set(available) & idle_truth))
                    else:
                        multiplier = problem.expected_channels[user.fbs_id]
                    if multiplier > 0.0 and margin_fbs > 1.0:
                        increment = rho * multiplier * user.r_fbs
            # The clock clamps at the GOP's enhancement ceiling; capacity
            # spent past it is wasted (the winner-take-all baseline pays
            # this cost the most).
            increments[user.user_id] = self.clocks[user.user_id].add_quality(increment)

        self._gop_bound_gap += bound_gap
        gop_elapsed = False
        for clock in self.clocks.values():
            gop_elapsed = clock.tick() or gop_elapsed
        if gop_elapsed:
            self._bound_gaps_per_gop.append(self._gop_bound_gap)
            self._gop_bound_gap = 0.0
            for user_id, trace in self._rd_traces.items():
                self._rd_scale[user_id] = 1.0 / trace.advance()
                clock = self.clocks[user_id]
                clock.quantum_db = self._nal_quantum(
                    clock.sequence, self._rd_scale[user_id])

        self._mark_phase("transmission", tick, tracer)
        if observing:
            # One funnel for every degradation recorded this slot --
            # fallback-chain events and the engine's own sensing-outage
            # events both land in self.degradations.
            registry = global_registry()
            for event in self.degradations[n_degraded_before:]:
                registry.counter("repro_degradations_total",
                                 cause=event.cause).inc()
        self._slot += 1
        record = SlotRecord(
            slot=self._slot,
            occupancy=state.occupancy,
            access=access,
            channel_allocation=channel_map,
            problem=problem,
            allocation=allocation,
            increments=increments,
            greedy_trace=greedy_trace,
            bound_gap=bound_gap,
        )
        if self.record_slots:
            self.records.append(record)
        return record

    def run(self) -> RunMetrics:
        """Simulate the configured horizon and return aggregate metrics."""
        for _ in range(self.config.n_slots):
            self.step()
        return self.collect_metrics()

    def collect_metrics(self) -> RunMetrics:
        """Aggregate the simulated slots into :class:`RunMetrics`.

        Split out of :meth:`run` so the lockstep driver (which advances
        slots itself) performs the exact aggregation -- including the
        metrics-registry block -- a plain ``run()`` call would.
        """
        metrics = compute_run_metrics(
            clocks=self.clocks,
            collision_rates=self.collisions.collision_rates(),
            bound_gaps_per_gop=self._bound_gaps_per_gop,
            degradation_events=self.degradations,
            phase_seconds=self.phase_seconds,
        )
        if metrics_enabled():
            registry = global_registry()
            registry.counter("repro_slots_total").inc(self._slot)
            for user_id, psnr in metrics.per_user_psnr.items():
                registry.histogram("repro_user_psnr_db",
                                   buckets=PSNR_BUCKETS,
                                   user=str(user_id)).observe(psnr)
        return metrics
