"""The slotted simulation engine.

One :class:`SimulationEngine` instance simulates one scenario run.  Every
slot executes the paper's four phases:

1. **Sensing** -- each FBS senses all ``M`` licensed channels (it has
   ``M`` antennas, Section III-A); each CR user senses one channel,
   assigned round-robin and rotated every slot so all channels keep
   getting user observations.  All results are fused per channel with the
   Bayesian update of eqs. (2)-(4)
   (:func:`~repro.sensing.fusion.fuse_log_odds`).
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

from repro.core.batch import drive, fast_solve_iter
from repro.core.bounds import GreedyTrace, tighter_upper_bound
from repro.core.greedy import GreedyChannelAllocator
from repro.core.problem import Allocation, SlotColumns, SlotProblem
from repro.registry.schemes import scheme_registry
from repro.obs.metrics import PSNR_BUCKETS, global_registry, metrics_enabled
from repro.obs.trace import active_tracer
from repro.sensing.access import (
    AccessDecision,
    AccessPolicy,
    CollisionTracker,
    HardThresholdAccessPolicy,
    expected_available,
)
from repro.sensing.belief import ChannelBeliefTracker
from repro.sensing.detector import SensingProfile, check_states
from repro.sensing.fusion import fuse_log_odds, prior_log_odds
from repro.sim.build import build_scenario
from repro.sim.channel_assignment import (
    colour_classes,
    deal_channels,
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
    """

    def __init__(self, config: ScenarioConfig, *,
                 record_slots: bool = False) -> None:
        self.config = config
        self.record_slots = bool(record_slots)
        self.records: List[SlotRecord] = []
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
        # Every sensor -- M antennas per FBS, one per CR user -- shares
        # one error profile (validated here, once) and one stream, from
        # which a slot's observations are drawn in one call: FBS-major
        # over channels 0..M-1 in topology order, then the users in
        # sorted-id order, user k on channel (k + slot) % M.
        self._sensing_rng = streams["sensing"]
        self._profile = SensingProfile(config.false_alarm,
                                       config.miss_detection)
        n_channels = config.n_channels
        n_fbs = len(topology.fbss)
        self._n_users = len(topology.users)
        self._n_fbs_obs = n_fbs * n_channels
        # Each observation's channel; the user part is rewritten every
        # slot from the slice [slot % M:] of user_columns[k] = k % M.
        self._obs_channels = np.empty(self._n_fbs_obs + self._n_users,
                                      dtype=np.intp)
        self._obs_channels[:self._n_fbs_obs] = np.tile(
            np.arange(n_channels), n_fbs)
        self._user_columns = np.arange(self._n_users + n_channels) % n_channels
        # Fusion terms: row 0 the prior log-odds, then one step per
        # observation in draw order (DESIGN.md section 11).  The A2
        # ablation fuses only the first FBS's antennas.
        self._terms = np.empty(n_channels + self._obs_channels.size)
        self._terms[:n_channels] = prior_log_odds(built.etas.tolist())
        self._fused_rows = (min(1, n_fbs) if config.single_observation_fusion
                            else n_fbs)

        # Per-scenario invariants come from the BuiltScenario: the
        # topology is static, so link margins, demand constants, and the
        # FBS grid never change across slots (see repro.sim.build).  The
        # interleaved csi scale vector -- (mbs_0, fbs_0, mbs_1, fbs_1,
        # ...) in topology user order -- lets one exponential array draw
        # walk the fading stream exactly like the scalar per-user loop.
        self._csi_user_ids = built.csi_user_ids
        self._csi_scales = built.csi_scales

        scheme_info = scheme_registry().get(config.scheme)
        self._greedy_channels = scheme_info.greedy_channels
        self.allocator = scheme_info.create()
        # Solver fallback chain: the configured scheme first, degrading to
        # the fallback-eligible registered schemes (closed-form, cannot
        # fail to converge) when the primary solver misbehaves -- see
        # repro.sim.fallback for the validation and event semantics.
        self._fallback_chain = fallback_chain_for(config.scheme,
                                                  self.allocator)
        self.degradations: List[DegradationEvent] = []
        self._interfering = built.interfering
        self._fbs_ids = built.fbs_ids
        self._greedy = (GreedyChannelAllocator(topology.interference_graph)
                        if self._interfering else None)
        # The colour-partition schemes' colour classes: the graph is
        # static, so colour it once and deal each slot's A(t) over them.
        self._colour_classes = (
            colour_classes(topology.interference_graph, self._fbs_ids)
            if self._interfering and not self._greedy_channels else None)
        #: Cumulative wall-clock seconds per engine phase (profiling;
        #: excluded from serialized results -- timings are not
        #: deterministic, unlike everything else the engine emits).
        self.phase_seconds: Dict[str, float] = {
            "sensing": 0.0, "access": 0.0, "allocation": 0.0,
            "transmission": 0.0}
        #: Seconds the next phase mark leaves out, and all it left out:
        #: time a lockstep driver spent on batch mates while this
        #: engine waited for a solve (see :meth:`refund`).
        self._refund = 0.0
        self._refunded = 0.0

        # The slot problems' static columns come from the build; GOP
        # clocks are per-run mutable state and stay here.  Both are in
        # topology user order, as are the per-user lists below.
        self._columns = built.columns
        self.clocks: Dict[int, GopClock] = {}
        for user in topology.users:
            sequence = get_sequence(user.sequence_name)
            self.clocks[user.user_id] = GopClock(
                sequence, config.deadline_slots,
                quantum_db=self._nal_quantum(sequence, 1.0))
        self._clock_list = list(self.clocks.values())
        # Per-GOP encoding-complexity traces (extension; constant 1.0
        # when rd_variability is 0, reproducing the paper's model).
        trace_rng = streams["traces"]
        self._rd_traces = [
            GopComplexityTrace(
                sigma=config.rd_variability, phi=config.rd_trace_phi,
                rng=trace_rng)
            for _ in topology.users
        ]
        self._rd_scale = [1.0 / trace.complexity
                          for trace in self._rd_traces]
        self._slot = 0
        self._gop_bound_gap = 0.0
        self._bound_gaps_per_gop: List[float] = []

    @property
    def slot(self) -> int:
        """Number of slots simulated so far."""
        return self._slot

    def refund(self, seconds: float) -> None:
        """Leave ``seconds`` out of the current phase's time.

        The lockstep driver refunds a suspended member the time it spent
        on batch mates beyond the member's share of the kernel, so the
        member's phase and slot times are its own.
        """
        self._refund += seconds

    def _mark_phase(self, phase: str, tick: float, tracer=None) -> float:
        """Charge the time since ``tick``, less refunds, to ``phase``;
        return a new mark."""
        now = time.perf_counter()
        seconds = now - tick - self._refund
        self._refunded += self._refund
        self._refund = 0.0
        self.phase_seconds[phase] += seconds
        if tracer is not None:
            tracer.emit_span(phase, kind="phase", seconds=seconds,
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

        Only the per-slot columns are built here, over the scenario's
        static columns: the PSNR states, the effective rate slopes and
        the CSI margins, validated in one pass.

        Parameters
        ----------
        expected_channels:
            ``{fbs_id: G_i}`` for this slot.
        csi:
            Optional ``{user_id: (margin_mbs, margin_fbs)}`` realised
            block-fading margins; attached to the problem so heuristic
            schedulers can exploit instantaneous channel conditions.
        """
        static = self._columns
        clocks = self._clock_list
        w_prev = [clock.psnr_db for clock in clocks]
        r_mbs = []
        r_fbs = []
        for clock, base_mbs, base_fbs, scale in zip(
                clocks, static.r_mbs, static.r_fbs, self._rd_scale):
            if clock.headroom_db <= 0.0:
                # The GOP is fully delivered: the base station has no more
                # enhancement bits to send this window, so the stream's
                # effective rate slope is zero for every scheduler.
                r_mbs.append(0.0)
                r_fbs.append(0.0)
            else:
                # A complexity-c GOP needs c times the rate per dB: scale
                # the effective slopes (the quality ceiling is invariant).
                r_mbs.append(base_mbs * scale)
                r_fbs.append(base_fbs * scale)
        margins = ([csi.get(user_id) for user_id in static.user_ids]
                   if csi else [None] * len(static))
        columns = SlotColumns.validated(
            static, w_prev, r_mbs, r_fbs,
            [pair[0] if pair else None for pair in margins],
            [pair[1] if pair else None for pair in margins])
        return SlotProblem.from_columns(columns, expected_channels)

    def _draw_csi_batched(self) -> Dict[int, tuple]:
        """Realise this slot's block-fading margins for every link.

        Under Rayleigh fading the decoding margin ``X / H`` is exponential
        with the link's mean margin; a link decodes iff its draw exceeds 1,
        which happens with exactly the ``bar P^F`` probability the
        allocation problem uses.  One exponential array draw over the
        hoisted interleaved scale vector (validated by the build)
        consumes the fading stream exactly like a per-user scalar loop
        (see :func:`repro.utils.rng.batched_exponential`; the scalar
        oracle lives in ``tests/oracle.py``).
        """
        draws = self._fading_rng.exponential(self._csi_scales).tolist()
        return dict(zip(self._csi_user_ids, zip(draws[0::2], draws[1::2])))

    def _sense_fuse_batched(self, occupancy: np.ndarray) -> List[float]:
        """Sensing + fusion phase (eqs. (2)-(4)): idle posteriors per channel.

        One uniform array draw realises every observation and one
        compare turns the draws into log-likelihood steps
        (:class:`~repro.sensing.detector.SensingProfile`), written after
        the prior row of the fusion terms.  :func:`fuse_log_odds` then
        adds the FBS rows in order, the users' steps over Python floats,
        and applies the sigmoid.  Draw-for-draw and bit-for-bit identical
        to the per-observation scalar oracle in ``tests/oracle.py``, as
        asserted by ``tests/sensing/test_batched_equivalence.py`` and the
        engine differential suite.
        """
        config = self.config
        n_channels = config.n_channels
        check_states(np.asarray(occupancy).tolist())
        occupancy = np.asarray(occupancy, dtype=np.int8)
        offset = self._slot % n_channels
        n_fbs_obs = self._n_fbs_obs
        channels = self._obs_channels
        channels[n_fbs_obs:] = self._user_columns[offset:offset + self._n_users]
        draws = self._sensing_rng.random(channels.size)
        terms = self._terms
        self._profile.log_likelihood_steps(
            draws, occupancy.take(channels), out=terms[n_channels:])
        # A2 ablation: only the first FBS's own antennas reach the
        # fusion centre (the other draws were still consumed above).
        tail = (() if config.single_observation_fusion
                else terms[n_channels + n_fbs_obs:].tolist())
        silenced = ()
        fault_plan = config.fault_plan
        if fault_plan is not None:
            silenced = fault_plan.sensing_outage(self._slot, n_channels)
            if silenced:
                self.degradations.append(DegradationEvent(
                    slot=self._slot, cause="sensing-outage",
                    allocator="sensing", fallback="prior-only",
                    detail=("observations missing on channels "
                            f"{sorted(silenced)}; fused from priors")))
        block = terms[:n_channels * (1 + self._fused_rows)].reshape(
            1 + self._fused_rows, n_channels)
        if self.belief_tracker is not None:
            self.belief_tracker.predict()
            return self.belief_tracker.fuse_log_odds(
                block, tail, offset, silenced)
        return fuse_log_odds(block, tail, offset, silenced)

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
        return drive(self._step_iter())

    def _step_iter(self):
        """Generator form of the slot body (lockstep batching).

        Every dual solve of the allocation phase -- the greedy's Q(c)
        evaluations, the eq. (23) relaxation bound, the fallback chain's
        scheme solve -- is yielded as a
        :class:`~repro.core.batch.SolveRequest`; everything else
        (sensing, access, transmission) runs inline.  Driven either
        sequentially by :func:`~repro.core.batch.drive` or in lockstep
        with sibling replications by :mod:`repro.sim.lockstep`.

        Observability gate: with tracing off this is one global read and
        the plain slot body.  A trace records the slot span, and phase
        spans additionally require collect_phases (the --profile
        contract).
        """
        tracer = active_tracer()
        if tracer is None:
            return self._slot_iter(None)
        return self._traced_slot_iter(tracer)

    def _traced_slot_iter(self, tracer):
        """:meth:`_slot_iter` inside a ``slot`` span, as long as the
        slot's own time (refunds left out)."""
        span = tracer.begin("slot", kind="slot", slot=self._slot)
        start = time.perf_counter()
        refunded = self._refunded + self._refund
        try:
            return (yield from self._slot_iter(
                tracer if tracer.collect_phases else None))
        finally:
            tracer.end(span, time.perf_counter() - start - (
                self._refunded + self._refund - refunded))

    def _slot_iter(self, tracer):
        """The slot body; ``tracer`` (or None) receives phase spans."""
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
        access = self.access_policy.decide(posteriors)
        collided = self.collisions.record(access, state.occupancy)
        available = access.accessed
        posterior_map = dict(enumerate(posteriors))
        if observing:
            registry = global_registry()
            n_accessed = len(available)
            registry.counter("repro_access_decisions_total",
                             decision="access").inc(n_accessed)
            registry.counter("repro_access_decisions_total",
                             decision="deny").inc(
                                 config.n_channels - n_accessed)
            registry.counter("repro_access_collisions_total").inc(collided)
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
            g_all = expected_available(posteriors, available)
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
            g_all = expected_available(posteriors, available)
            relaxed_problem = problem.with_expected_channels(
                {i: g_all for i in fbs_ids})
            relaxed = yield from fast_solve_iter(relaxed_problem)
            bound_q = min(tighter_upper_bound(greedy_trace), relaxed.objective)
            bound_gap = max(0.0, bound_q - greedy_trace.q_final)
        else:
            channel_map = deal_channels(self._colour_classes, fbs_ids,
                                        available, posterior_map)
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
        if config.realized_throughput:
            idle_truth = {m for m, busy in enumerate(state.occupancy.tolist())
                          if not busy}
        increments: Dict[int, float] = {}
        columns = problem.columns
        static = columns.static
        mbs_user_ids = allocation.mbs_user_ids
        for j, user_id in enumerate(static.user_ids):
            increment = 0.0
            if user_id in mbs_user_ids:
                rho = allocation.rho_mbs.get(user_id, 0.0)
                if rho > 0.0 and columns.csi_mbs[j] > 1.0:
                    increment = rho * columns.r_mbs[j]
            else:
                rho = allocation.rho_fbs.get(user_id, 0.0)
                if rho > 0.0:
                    fbs_id = static.fbs_id[j]
                    if config.realized_throughput:
                        multiplier = float(len(
                            channel_map.get(fbs_id, set())
                            & set(available) & idle_truth))
                    else:
                        multiplier = problem.expected_channels[fbs_id]
                    if multiplier > 0.0 and columns.csi_fbs[j] > 1.0:
                        increment = rho * multiplier * columns.r_fbs[j]
            # The clock clamps at the GOP's enhancement ceiling; capacity
            # spent past it is wasted (the winner-take-all baseline pays
            # this cost the most).
            increments[user_id] = self._clock_list[j].add_quality(increment)

        self._gop_bound_gap += bound_gap
        gop_elapsed = False
        for clock in self.clocks.values():
            gop_elapsed = clock.tick() or gop_elapsed
        if gop_elapsed:
            self._bound_gaps_per_gop.append(self._gop_bound_gap)
            self._gop_bound_gap = 0.0
            for j, trace in enumerate(self._rd_traces):
                self._rd_scale[j] = 1.0 / trace.advance()
                clock = self._clock_list[j]
                clock.quantum_db = self._nal_quantum(
                    clock.sequence, self._rd_scale[j])

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
