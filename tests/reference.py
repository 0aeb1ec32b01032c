"""Reference implementations the tests hold production output to.

Where :mod:`tests.oracle` keeps the scalar twins of production paths
(bit for bit), this module keeps the straight-from-the-paper references
that no production path calls, so they live beside the tests:

* :func:`water_filling`, :func:`exhaustive_reference_solution`,
  :func:`exhaustive_channel_optimum` -- the exact per-slot solvers of
  (12)/(17) and the exhaustive channel search of Table III;
* :func:`closed_form_upper_bound`, :func:`theorem2_lower_bound`,
  :func:`verify_bound_holds` -- the bounds of Theorem 2 and eq. (23)
  as printed;
* :func:`check_feasible`, :func:`is_valid_allocation` -- the
  constraints of problems (17) and (21), and
  :func:`color_partition_allocation`, the heuristics' colouring
  assignment in one call;
* :func:`stationary_distribution` -- the law of eq. (1);
* :func:`batched_exponential`, :class:`BlockFadingLink`,
  :func:`draw_rayleigh_margins`,
  :func:`decode_indicators`, :func:`rayleigh_loss_probabilities`,
  :func:`rayleigh_success_probabilities`,
  :func:`slot_rates_mbps`, :func:`gop_bits` -- the PHY of eq. (8) and
  Section IV-A, one link or many at a time.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.bounds import GreedyTrace, theorem2_factor, tighter_upper_bound
from repro.core.dual import fast_solve
from repro.core.problem import Allocation, SlotProblem
from repro.core.reference import _water_filling, solve_given_assignment
from repro.net.interference import InterferenceGraph
from repro.sim.channel_assignment import colour_classes, deal_channels
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive, check_probability


# -- exact solvers ------------------------------------------------------------


def _validate_water_filling(weights: Sequence[float], bases: Sequence[float],
                            slopes: Sequence[float]) -> int:
    """Shared input validation; returns the (common) length."""
    n = len(weights)
    if not (len(bases) == len(slopes) == n):
        raise ConfigurationError(
            f"weights/bases/slopes must have equal length, got "
            f"{n}/{len(bases)}/{len(slopes)}")
    for j in range(n):
        if bases[j] <= 0:
            raise ConfigurationError(f"bases[{j}] must be positive, got {bases[j]}")
        if weights[j] < 0 or slopes[j] < 0:
            raise ConfigurationError("weights and slopes must be non-negative")
    return n


def water_filling(weights: Sequence[float], bases: Sequence[float],
                  slopes: Sequence[float]) -> Tuple[List[float], float]:
    """Maximise ``sum_j weights_j * [log(bases_j + rho_j slopes_j) - log(bases_j)]``.

    Subject to ``sum_j rho_j <= 1`` and ``rho >= 0``.  This is the
    per-base-station subproblem of (12)/(17) once the assignment is fixed:
    ``weights`` are link success probabilities ``bar P^F``, ``bases`` the
    PSNR states ``W_j``, ``slopes`` the effective per-slot increments
    (``R_{0,j}`` on the MBS, ``G_i * R_{i,j}`` on an FBS).  The
    ``- log(bases_j)`` normalisation makes the value the expected
    log-PSNR *gain* (see :mod:`repro.core.problem`); it is constant in
    ``rho`` and does not affect the optimiser.

    Validates its inputs, then runs production's breakpoint scan
    (:func:`repro.core.reference._water_filling`).

    Returns
    -------
    (rho, value):
        The optimal shares and the attained objective value.  Users with
        zero weight or zero slope receive zero share and contribute zero
        value.
    """
    _validate_water_filling(weights, bases, slopes)
    return _water_filling([float(x) for x in weights],
                          [float(x) for x in bases],
                          [float(x) for x in slopes])


def exhaustive_reference_solution(problem: SlotProblem, *,
                                  max_users: int = 16) -> Allocation:
    """Globally optimal solution by enumerating all binary assignments.

    By Theorem 1 the optimum of (12)/(17) has every ``p_j`` in ``{0, 1}``,
    so enumerating the ``2^K`` assignments and exactly water-filling each
    is an exact (if exponential) algorithm.

    Raises
    ------
    ConfigurationError
        If ``K > max_users`` -- the guard against accidentally launching an
        exponential search on a large instance.
    """
    if problem.n_users > max_users:
        raise ConfigurationError(
            f"exhaustive search limited to {max_users} users, got {problem.n_users}")
    user_ids = problem.columns.static.user_ids
    best: Allocation = None
    for pattern in itertools.product((False, True), repeat=len(user_ids)):
        assignment = {uid for uid, on_mbs in zip(user_ids, pattern) if on_mbs}
        candidate = solve_given_assignment(problem, assignment)
        if best is None or candidate.objective > best.objective:
            best = candidate
    return best


def exhaustive_channel_optimum(problem: SlotProblem, available_channels: Sequence[int],
                               posteriors: Dict[int, float],
                               graph: InterferenceGraph, *,
                               max_pairs: int = 16) -> Tuple[Dict[int, Set[int]], float]:
    """Globally optimal channel allocation by exhaustive enumeration.

    Enumerates every conflict-free assignment of available channels to
    FBS subsets (each channel independently goes to any *independent set*
    of the interference graph).  Exponential; used in tests to verify the
    Theorem 2 / eq. (23) bounds.  ``Q(Omega)`` is returned alongside the
    argmax allocation; each ``Q`` is a full
    :func:`~repro.core.dual.fast_solve`.
    """
    fbs_ids = problem.fbs_ids
    channels = list(available_channels)
    if len(fbs_ids) * len(channels) > max_pairs:
        raise ConfigurationError(
            f"exhaustive channel search limited to {max_pairs} FBS-channel pairs, "
            f"got {len(fbs_ids) * len(channels)}")
    independent_sets = _independent_sets(fbs_ids, graph)

    best_alloc: Dict[int, Set[int]] = {i: set() for i in fbs_ids}
    best_q = None

    def recurse(index: int, current: Dict[int, Set[int]]) -> None:
        nonlocal best_alloc, best_q
        if index == len(channels):
            expected = {i: sum(posteriors[m] for m in chans)
                        for i, chans in current.items()}
            q_value = fast_solve(problem.with_expected_channels(expected)).objective
            if best_q is None or q_value > best_q:
                best_q = q_value
                best_alloc = {i: set(chans) for i, chans in current.items()}
            return
        channel = channels[index]
        for subset in independent_sets:
            for fbs_id in subset:
                current[fbs_id].add(channel)
            recurse(index + 1, current)
            for fbs_id in subset:
                current[fbs_id].discard(channel)

    recurse(0, {i: set() for i in fbs_ids})
    return best_alloc, best_q


def _independent_sets(fbs_ids: Sequence[int],
                      graph: InterferenceGraph) -> List[Set[int]]:
    """All independent sets (including the empty set) over ``fbs_ids``."""
    sets: List[Set[int]] = [set()]
    for fbs_id in fbs_ids:
        new_sets = []
        for existing in sets:
            if all(not graph.has_edge(fbs_id, other) for other in existing):
                new_sets.append(existing | {fbs_id})
        sets.extend(new_sets)
    return sets


# -- the bounds of Section IV-C3 ---------------------------------------------


def closed_form_upper_bound(trace: GreedyTrace) -> float:
    """Eq. (23) exactly as printed: ``Q(pi_L) + sum_l D(l) * Delta_l``.

    Ignores any evaluated conflict gains; useful to quantify how loose
    the closed form is relative to the evaluated bound.
    """
    return trace.q_final + sum(step.degree * step.gain for step in trace.steps)


def theorem2_lower_bound(trace: GreedyTrace, graph: InterferenceGraph) -> float:
    """Closed-form lower bound on the greedy's incremental objective.

    Rearranging eq. (24): ``Q(pi_L) - Q(empty) >=
    (Q(Omega) - Q(empty)) / (1 + D_max)``, so given the optimal value this
    returns the guaranteed greedy value.  Used in tests against the
    exhaustive optimum.
    """
    factor = theorem2_factor(graph)
    return trace.q_empty + factor * (tighter_upper_bound(trace) - trace.q_empty)


def verify_bound_holds(trace: GreedyTrace, optimum: float, graph: InterferenceGraph, *,
                       tol: float = 1e-7) -> bool:
    """Check both bounds against a known optimal objective ``Q(Omega)``.

    Returns ``True`` iff the optimum does not exceed eq. (23)'s bound and
    the greedy's incremental value is at least the Theorem 2 fraction of
    the optimal incremental value (both up to ``tol``).
    """
    upper_ok = optimum <= tighter_upper_bound(trace) + tol
    factor = theorem2_factor(graph)
    greedy_incremental = trace.q_final - trace.q_empty
    optimal_incremental = optimum - trace.q_empty
    lower_ok = greedy_incremental >= factor * optimal_incremental - tol
    return bool(upper_ok and lower_ok)


# -- the constraints of problems (17) and (21) -------------------------------


def check_feasible(problem: SlotProblem, allocation: Allocation, *,
                   tol: float = 1e-9) -> None:
    """Raise ``ConfigurationError`` unless ``allocation`` is feasible.

    Checks non-negativity, the common-channel simplex, each FBS's simplex,
    and that no user holds time on the base station it did not select.
    """
    for mapping, label in ((allocation.rho_mbs, "rho_mbs"), (allocation.rho_fbs, "rho_fbs")):
        for user_id, rho in mapping.items():
            if rho < -tol:
                raise ConfigurationError(f"{label}[{user_id}] = {rho} is negative")
    static = problem.columns.static
    user_ids = static.user_ids
    mbs_user_ids = allocation.mbs_user_ids
    mbs_total = sum(allocation.rho_mbs.get(user_id, 0.0)
                    for user_id in user_ids if user_id in mbs_user_ids)
    if mbs_total > 1.0 + tol:
        raise ConfigurationError(f"common-channel shares sum to {mbs_total} > 1")
    for fbs_id, members in static.groups.items():
        fbs_total = sum(allocation.rho_fbs.get(user_ids[j], 0.0)
                        for j in members if user_ids[j] not in mbs_user_ids)
        if fbs_total > 1.0 + tol:
            raise ConfigurationError(
                f"FBS {fbs_id} shares sum to {fbs_total} > 1")
    for user_id in user_ids:
        if user_id in mbs_user_ids:
            stray = allocation.rho_fbs.get(user_id, 0.0)
        else:
            stray = allocation.rho_mbs.get(user_id, 0.0)
        if stray > tol:
            raise ConfigurationError(
                f"user {user_id} holds time share {stray} on its "
                f"non-selected base station (Theorem 1 violated)")


def color_partition_allocation(graph: InterferenceGraph, fbs_ids: Sequence[int],
                               available_channels: Sequence[int],
                               posteriors: Dict[int, float]) -> Dict[int, Set[int]]:
    """Conflict-free channel assignment by interference-graph colouring.

    :func:`~repro.sim.channel_assignment.deal_channels` over
    :func:`~repro.sim.channel_assignment.colour_classes` in one call;
    see those for the parameters.  ``graph`` must hold (at least)
    ``fbs_ids``.
    """
    return deal_channels(colour_classes(graph, fbs_ids), fbs_ids,
                         available_channels, posteriors)


def is_valid_allocation(graph: InterferenceGraph, allocation) -> bool:
    """Check the interference constraint of problem (21).

    ``allocation`` maps ``fbs_id -> set of channel indices``.  Valid iff no
    two adjacent FBSs share a channel.
    """
    for i, j in graph.edges:
        shared = set(allocation.get(i, ())) & set(allocation.get(j, ()))
        if shared:
            return False
    return True


# -- spectrum and PHY ---------------------------------------------------------


def stationary_distribution(p01: float, p10: float) -> np.ndarray:
    """Stationary distribution ``[Pr{idle}, Pr{busy}]`` of the chain."""
    p01 = check_probability(p01, "p01")
    p10 = check_probability(p10, "p10")
    if p01 == 0.0 and p10 == 0.0:
        raise ConfigurationError("p01 and p10 cannot both be zero")
    eta = p01 / (p01 + p10)
    return np.array([1.0 - eta, eta])


def batched_exponential(rng: np.random.Generator, scales) -> np.ndarray:
    """Draw one exponential per entry of ``scales`` in a single call.

    Same stream-consumption contract as
    :func:`~repro.utils.rng.batched_uniform`: numpy's
    ``Generator.exponential(scale=array)`` loops over the output buffer
    in index order calling the same ziggurat sampler as the scalar
    ``rng.exponential(scale)`` call, so ``batched_exponential(rng, s)``
    is bit-identical to ``[rng.exponential(x) for x in s]`` and leaves
    ``rng`` in the same state.  The engine's per-slot block-fading
    margin draw (``SimulationEngine._draw_csi_batched``) relies on it.
    """
    scales = np.asarray(scales, dtype=float)
    return rng.exponential(scales)


def draw_rayleigh_margins(rng: RandomState, mean_margins) -> np.ndarray:
    """Realise many links' block-fading decoding margins in one call.

    Under Rayleigh fading the decoding margin ``X / H`` of a link with
    mean margin ``mu`` is exponential with mean ``mu``; a link decodes
    iff its draw exceeds 1 (exactly the ``bar P^F = exp(-1/mu)``
    probability of eq. (8)).  This draws one margin per entry of
    ``mean_margins`` through
    :func:`batched_exponential`, so the values -- and
    the RNG state afterwards -- are bit-identical to drawing each link's
    margin with a scalar ``rng.exponential(mu)`` call in the same order.
    """
    margins = np.asarray(mean_margins, dtype=float)
    if margins.size and np.any(margins <= 0.0):
        raise ConfigurationError(
            f"mean margins must be positive, got min {margins.min()!r}")
    return batched_exponential(as_generator(rng), margins)


def decode_indicators(margins, threshold: float = 1.0) -> np.ndarray:
    """Vectorized delivery indicators ``xi = 1{margin > threshold}``.

    The batched counterpart of :meth:`BlockFadingLink.realize_slot`'s
    comparison: with block fading one comparison per link per slot
    realises every packet's fate on that link.
    """
    threshold = check_positive(threshold, "threshold", allow_zero=True)
    return (np.asarray(margins, dtype=float) > threshold).astype(np.int8)


class BlockFadingLink:
    """A base-station -> user link under block fading.

    Holds the fading model and decoding threshold, exposes the per-slot
    loss probability ``P^F`` (constant within a slot, Section IV-A), and
    realises the Bernoulli packet-delivery indicator ``xi`` used by the
    state recursion of problem (10).

    Parameters
    ----------
    fading:
        A fading model (anything with ``cdf``/``sample``, such as
        :class:`~repro.phy.fading.RayleighFading`).
    threshold:
        Decoding SINR threshold ``H`` (linear).
    rng:
        Randomness for per-slot realisations.
    """

    def __init__(self, fading, threshold: float, *, rng: RandomState = None) -> None:
        self.fading = fading
        self.threshold = check_positive(threshold, "threshold")
        self._rng = as_generator(rng)

    @property
    def loss_probability(self) -> float:
        """``P^F = F_X(H)`` -- the block loss probability (eq. 8)."""
        return self.fading.cdf(self.threshold)

    @property
    def success_probability(self) -> float:
        """``1 - P^F`` -- the paper's ``bar P^F``."""
        return 1.0 - self.loss_probability

    def realize_slot(self) -> int:
        """Draw the slot's delivery indicator ``xi`` (1 = success).

        Because fading is constant over the slot, either every packet sent
        on the link in this slot decodes or none does; a single Bernoulli
        draw per slot is exact.
        """
        sinr = float(self.fading.sample(self._rng))
        return int(sinr > self.threshold)

    def __repr__(self) -> str:
        return (f"BlockFadingLink(fading={self.fading!r}, H={self.threshold:.4g}, "
                f"P_F={self.loss_probability:.4f})")


def rayleigh_loss_probabilities(mean_sinrs, threshold: float) -> np.ndarray:
    """Vectorized Rayleigh ``P^F = 1 - exp(-H / mean)`` over many links.

    Batched counterpart of evaluating :class:`~repro.phy.fading.RayleighFading`
    ``.cdf(threshold)`` per link.  Matches the scalar path to within one
    ulp of unity, i.e. ``2^-52`` absolute (numpy's SIMD ``exp`` and
    libm's ``math.exp`` disagree in the last bit on a few percent of
    inputs, and the subtraction from 1.0 keeps that discrepancy as an
    absolute error).
    """
    means = np.asarray(mean_sinrs, dtype=float)
    threshold = check_positive(threshold, "threshold", allow_zero=True)
    if means.size and np.any(means <= 0.0):
        raise ConfigurationError(
            f"mean SINRs must be positive, got min {means.min()!r}")
    return 1.0 - np.exp(-threshold / means)


def rayleigh_success_probabilities(mean_sinrs, threshold: float) -> np.ndarray:
    """Vectorized ``bar P^F = exp(-H / mean)`` over many Rayleigh links."""
    return 1.0 - rayleigh_loss_probabilities(mean_sinrs, threshold)


def slot_rates_mbps(time_shares, bandwidth_mbps: float,
                    expected_channels=1.0) -> np.ndarray:
    """Vectorized :func:`~repro.phy.rates.slot_rate_mbps` over many links.

    Element-identical to the scalar function (the ``rho * B * G``
    product is the same IEEE-754 multiplication chain).
    """
    shares = np.asarray(time_shares, dtype=float)
    if shares.size and (np.any(shares < 0.0) or np.any(shares > 1.0)):
        raise ConfigurationError(
            f"time shares must lie in [0, 1], got range "
            f"[{shares.min()!r}, {shares.max()!r}]")
    bandwidth_mbps = check_positive(bandwidth_mbps, "bandwidth_mbps", allow_zero=True)
    expected = np.asarray(expected_channels, dtype=float)
    if expected.size and np.any(expected < 0.0):
        raise ConfigurationError(
            f"expected_channels must be non-negative, got min {expected.min()!r}")
    return shares * bandwidth_mbps * expected


def gop_bits(bandwidth_mbps: float, n_slots: int, slot_duration_s: float = 1e-2) -> float:
    """Total bits deliverable on one channel over a GOP window of ``n_slots``."""
    bandwidth_mbps = check_positive(bandwidth_mbps, "bandwidth_mbps", allow_zero=True)
    slot_duration_s = check_positive(slot_duration_s, "slot_duration_s")
    if n_slots < 0:
        raise ConfigurationError(f"n_slots must be non-negative, got {n_slots}")
    return bandwidth_mbps * 1e6 * slot_duration_s * n_slots
