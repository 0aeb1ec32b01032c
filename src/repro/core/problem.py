"""The per-slot resource-allocation problem.

Section IV decomposes the multistage stochastic program (10) into ``T``
serial per-slot convex programs (problem (11)/(12)); this module is the
data model for one such slot.  In the unified notation of problem (17)
(which covers the single-FBS case with ``N = 1``):

    maximize  sum_j [ p_j * sP0_j * (log(W_j + rho0_j * R0_j) - log W_j)
                    + q_j * sPi_j * (log(W_j + rhoi_j * G_i * R1_j) - log W_j) ]
    s.t.      sum_j rho0_j <= 1                      (common channel)
              sum_{j in U_i} rhoi_j <= 1  for all i  (each FBS's slot)
              p_j + q_j = 1,  all variables >= 0

where ``sP0_j = bar P^F_{0,j}`` and ``sPi_j = bar P^F_{i,j}`` are the
slot's link success probabilities, ``W_j`` the accumulated PSNR state,
``R0_j = beta_j B0 / T`` and ``R1_j = beta_j B1 / T`` the per-slot PSNR
increments, and ``G_i`` the expected number of licensed channels available
to FBS ``i`` after sensing, access control, and (in the interfering case)
channel allocation.

A note on fidelity to the paper's eq. (12).  Expanding the conditional
expectation of eq. (11) over the Bernoulli loss indicator ``xi`` gives,
for the MBS branch, ``sP0 * log(W + rho0 R0) + (1 - sP0) * log(W)`` --
the failure term ``(1 - sP) log W`` is part of the expectation but is
dropped in the paper's printed eq. (12).  Because that term is constant
in ``rho`` it never changes the water-filling step (Table I, step 3),
but it *does* matter for the MBS-vs-FBS branch comparison: without it,
the comparison is dominated by ``(sP0 - sP1) * log W`` and users with a
slightly weaker link simply idle, contradicting the optimality the paper
claims for (11).  We therefore keep the full expectation of eq. (11) and
subtract the allocation-independent constant ``sum_j log W_j``, i.e. the
objective implemented everywhere in this package is the **expected
log-PSNR gain** of the slot.  The per-branch objective is then
``sP * (log(W + rho * slope) - log W)``, which is non-negative, zero at
``rho = 0``, and reduces to the paper's comparison whenever
``sP0_j = sP1_j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive, check_probability

@dataclass(frozen=True)
class UserDemand:
    """One CR user's view of the slot's allocation problem.

    The public row type of a :class:`SlotProblem`: tests and API callers
    build problems from rows, and :attr:`SlotProblem.users` hands rows
    back.  Solvers read the problem's columns instead.

    Attributes
    ----------
    user_id:
        Stable identifier (used to report allocations).
    fbs_id:
        The associated FBS (1-based; 0 is reserved for the MBS).
    w_prev:
        Accumulated PSNR state ``W_j^{t-1}`` in dB; strictly positive
        (initialised to the base-layer quality ``alpha_j``).
    success_mbs:
        ``bar P^F_{0,j}`` -- probability a slot on the MBS link decodes.
    success_fbs:
        ``bar P^F_{i,j}`` -- probability a slot on the FBS link decodes.
    r_mbs:
        ``R_{0,j} = beta_j B0 / T`` -- PSNR increment per unit time share
        on the common channel.
    r_fbs:
        ``R_{1,j} = beta_j B1 / T`` -- PSNR increment per unit time share
        per licensed channel.
    csi_mbs, csi_fbs:
        Optional realised block-fading SINR *margins* (``X / H``; the
        link decodes this slot iff the margin exceeds 1).  The proposed
        algorithms never read these -- they optimise expectations, as
        problem (10) prescribes -- but the heuristic baselines schedule on
        instantaneous channel conditions (Section V) and the engine's
        transmission phase realises the loss indicators ``xi`` from them.
    """

    user_id: int
    fbs_id: int
    w_prev: float
    success_mbs: float
    success_fbs: float
    r_mbs: float
    r_fbs: float
    csi_mbs: Optional[float] = None
    csi_fbs: Optional[float] = None

    def __post_init__(self) -> None:
        _check_fbs_id(self.fbs_id)
        check_positive(self.w_prev, "w_prev")
        check_probability(self.success_mbs, "success_mbs")
        check_probability(self.success_fbs, "success_fbs")
        check_positive(self.r_mbs, "r_mbs", allow_zero=True)
        check_positive(self.r_fbs, "r_fbs", allow_zero=True)
        for name in ("csi_mbs", "csi_fbs"):
            value = getattr(self, name)
            if value is not None:
                check_positive(value, name, allow_zero=True)


def _check_fbs_id(fbs_id: int) -> None:
    if fbs_id < 1:
        raise ConfigurationError(
            f"fbs_id must be >= 1 (0 is the MBS), got {fbs_id}")


def _group_positions(fbs_of: Sequence[int]) -> Dict[int, List[int]]:
    """Positions per FBS id, ids ascending, positions in order."""
    groups: Dict[int, List[int]] = {}
    for j, fbs_id in enumerate(fbs_of):
        members = groups.get(fbs_id)
        if members is None:
            groups[fbs_id] = [j]
        else:
            members.append(j)
    return {fbs_id: groups[fbs_id] for fbs_id in sorted(groups)}


class StaticColumns:
    """The part of a slot problem that the scenario fixes, by column.

    One list per :class:`UserDemand` field that no slot changes, in user
    order: the ids, each user's FBS, both link success probabilities and
    the base rate slopes ``R = beta B / T`` (before the per-GOP
    complexity scale).  The topology is static, so the engine builds one
    instance per scenario (:func:`repro.sim.build.build_scenario`) and
    every slot shares it.  Validated once, here, with the row type's
    messages.

    Attributes
    ----------
    groups:
        :func:`fbs_groups` of the users: ``{fbs_id: positions}``, ids
        ascending.
    fbs_ids:
        The FBS ids with at least one user, ascending.
    id_set:
        The user ids as a frozenset.
    """

    __slots__ = ("user_ids", "fbs_id", "success_mbs", "success_fbs",
                 "r_mbs", "r_fbs", "groups", "fbs_ids", "id_set")

    def __init__(self, user_ids: List[int], fbs_id: List[int],
                 success_mbs: List[float], success_fbs: List[float],
                 r_mbs: List[float], r_fbs: List[float]) -> None:
        if not user_ids:
            raise ConfigurationError("a SlotProblem needs at least one user")
        for j in range(len(user_ids)):
            _check_fbs_id(fbs_id[j])
            check_probability(success_mbs[j], "success_mbs")
            check_probability(success_fbs[j], "success_fbs")
            check_positive(r_mbs[j], "r_mbs", allow_zero=True)
            check_positive(r_fbs[j], "r_fbs", allow_zero=True)
        self.id_set = frozenset(user_ids)
        if len(self.id_set) != len(user_ids):
            raise ConfigurationError(f"duplicate user_id values in {user_ids}")
        self.user_ids = user_ids
        self.fbs_id = fbs_id
        self.success_mbs = success_mbs
        self.success_fbs = success_fbs
        self.r_mbs = r_mbs
        self.r_fbs = r_fbs
        self.groups = _group_positions(fbs_id)
        self.fbs_ids = list(self.groups)

    def __len__(self) -> int:
        return len(self.user_ids)


def _screen(column: Sequence[float], strict: bool) -> bool:
    """Whether every entry is finite and positive (``strict``) or
    non-negative: a ``min`` and a ``sum`` over the list.

    ``False`` only sends the caller to the per-entry scan, which raises
    the exact error: a NaN or an infinity makes the sum non-finite,
    ``None`` (no margin) makes ``min`` raise ``TypeError``, and a sum
    that overflows scans clean.
    """
    try:
        low = min(column)
        total = sum(column)
    except TypeError:
        return False
    return (low > 0.0 if strict else low >= 0.0) and math.isfinite(total)


class SlotColumns:
    """One slot's problem data by column, over a shared :class:`StaticColumns`.

    The per-slot columns are Python float lists in user order:
    ``w_prev``, the effective ``r_mbs``/``r_fbs`` (the slot's rate
    slopes, after the GOP complexity scale and the zero slope of a
    delivered GOP) and the CSI margins ``csi_mbs``/``csi_fbs`` (entries
    may be ``None``: no margin).  Every :class:`SlotProblem` of one slot
    -- the ``with_expected_channels`` copies the greedy evaluates --
    shares one instance, and with it the compiled form the exact inner
    solve caches on it (:func:`repro.core.reference.compile_slot_problem`).
    """

    __slots__ = ("static", "w_prev", "r_mbs", "r_fbs", "csi_mbs", "csi_fbs",
                 "compiled", "_rows")

    def __init__(self, static: StaticColumns, w_prev: List[float],
                 r_mbs: List[float], r_fbs: List[float],
                 csi_mbs: List[Optional[float]],
                 csi_fbs: List[Optional[float]], *,
                 rows: Optional[tuple] = None) -> None:
        self.static = static
        self.w_prev = w_prev
        self.r_mbs = r_mbs
        self.r_fbs = r_fbs
        self.csi_mbs = csi_mbs
        self.csi_fbs = csi_fbs
        #: The :class:`~repro.core.reference.CompiledSlotProblem`, once built.
        self.compiled = None
        self._rows = rows

    @classmethod
    def validated(cls, static: StaticColumns, w_prev: List[float],
                  r_mbs: List[float], r_fbs: List[float],
                  csi_mbs: List[Optional[float]],
                  csi_fbs: List[Optional[float]]) -> "SlotColumns":
        """Columns checked as :class:`UserDemand` checks a row.

        One screening pass per column; only when a column fails it are
        the entries checked one by one, user by user and field by field
        in the row type's order, so the first bad entry raises the error
        its row would have raised.
        """
        if not (_screen(w_prev, True) and _screen(r_mbs, False)
                and _screen(r_fbs, False) and _screen(csi_mbs, False)
                and _screen(csi_fbs, False)):
            for j in range(len(static)):
                check_positive(w_prev[j], "w_prev")
                check_positive(r_mbs[j], "r_mbs", allow_zero=True)
                check_positive(r_fbs[j], "r_fbs", allow_zero=True)
                if csi_mbs[j] is not None:
                    check_positive(csi_mbs[j], "csi_mbs", allow_zero=True)
                if csi_fbs[j] is not None:
                    check_positive(csi_fbs[j], "csi_fbs", allow_zero=True)
        return cls(static, w_prev, r_mbs, r_fbs, csi_mbs, csi_fbs)

    @classmethod
    def from_users(cls, users: Sequence[UserDemand]) -> "SlotColumns":
        """The columns of validated rows; the rows are kept as given."""
        users = tuple(users)
        static = StaticColumns(
            [user.user_id for user in users], [user.fbs_id for user in users],
            [user.success_mbs for user in users],
            [user.success_fbs for user in users],
            [user.r_mbs for user in users], [user.r_fbs for user in users])
        return cls(static, [user.w_prev for user in users],
                   [user.r_mbs for user in users],
                   [user.r_fbs for user in users],
                   [user.csi_mbs for user in users],
                   [user.csi_fbs for user in users], rows=users)

    def rows(self) -> tuple:
        """The users as :class:`UserDemand` rows, built on first use."""
        if self._rows is None:
            static = self.static
            self._rows = tuple(
                UserDemand(user_id=static.user_ids[j],
                           fbs_id=static.fbs_id[j], w_prev=self.w_prev[j],
                           success_mbs=static.success_mbs[j],
                           success_fbs=static.success_fbs[j],
                           r_mbs=self.r_mbs[j], r_fbs=self.r_fbs[j],
                           csi_mbs=self.csi_mbs[j], csi_fbs=self.csi_fbs[j])
                for j in range(len(static)))
        return self._rows


class SlotProblem:
    """A complete per-slot allocation problem instance.

    ``SlotProblem(users, expected_channels)`` builds the problem from
    :class:`UserDemand` rows; the engine builds it from columns with
    :meth:`from_columns`.  Solvers read :attr:`columns`.

    Attributes
    ----------
    columns:
        The slot's :class:`SlotColumns`.
    expected_channels:
        ``{fbs_id: G_i}`` -- expected available licensed channels per FBS
        for this slot.  In the single-FBS and non-interfering cases every
        FBS sees the full ``G_t``; in the interfering case the greedy
        channel allocation determines each ``G_i``.
    """

    __slots__ = ("columns", "expected_channels")

    def __init__(self, users: Sequence[UserDemand],
                 expected_channels: Dict[int, float]) -> None:
        self._bind(SlotColumns.from_users(users), expected_channels)

    @classmethod
    def from_columns(cls, columns: SlotColumns,
                     expected_channels: Dict[int, float]) -> "SlotProblem":
        """The problem over ``columns`` (shared, not copied)."""
        problem = cls.__new__(cls)
        problem._bind(columns, expected_channels)
        return problem

    def _bind(self, columns: SlotColumns,
              expected_channels: Dict[int, float]) -> None:
        for fbs_id, value in expected_channels.items():
            if fbs_id < 1:
                raise ConfigurationError(
                    f"expected_channels key must be an FBS id >= 1, got {fbs_id}")
            if value < 0:
                raise ConfigurationError(
                    f"G for FBS {fbs_id} must be non-negative, got {value}")
        missing = [fbs_id for fbs_id in columns.static.fbs_ids
                   if fbs_id not in expected_channels]
        if missing:
            raise ConfigurationError(
                f"expected_channels missing entries for FBS ids {missing}")
        self.columns = columns
        self.expected_channels = expected_channels

    @property
    def users(self) -> tuple:
        """The ``K`` user demands as rows (built on first use)."""
        return self.columns.rows()

    @property
    def n_users(self) -> int:
        """Number of CR users ``K``."""
        return len(self.columns.static)

    @property
    def fbs_ids(self) -> List[int]:
        """Sorted FBS ids that have at least one associated user."""
        return list(self.columns.static.fbs_ids)

    def users_of_fbs(self, fbs_id: int) -> List[UserDemand]:
        """The user set ``U_i`` of FBS ``fbs_id``."""
        rows = self.users
        return [rows[j] for j in self.columns.static.groups.get(fbs_id, ())]

    def g_for_user(self, user: UserDemand) -> float:
        """``G_i`` of the user's associated FBS."""
        return self.expected_channels[user.fbs_id]

    def with_expected_channels(self, expected_channels: Dict[int, float]) -> "SlotProblem":
        """Copy of this problem with a different channel allocation outcome.

        The copy shares this problem's columns.
        """
        return SlotProblem.from_columns(self.columns, dict(expected_channels))


def fbs_groups(users: Sequence[UserDemand]) -> Dict[int, List[int]]:
    """Positions of ``users`` per FBS, from one pass over the users.

    Keys are the FBS ids in ascending order (:attr:`SlotProblem.fbs_ids`)
    and each list holds the positions of that FBS's users in user order,
    so ``[users[j] for j in fbs_groups(users)[i]]`` is
    ``users_of_fbs(i)``.  Each user's ``fbs_id`` is read once, which
    keeps a visit to every cell linear in the users rather than
    ``O(users x FBSs)``.  A problem's grouping is built once, as
    :attr:`StaticColumns.groups`.
    """
    return _group_positions([user.fbs_id for user in users])


@dataclass
class Allocation:
    """A (candidate) solution of a :class:`SlotProblem`.

    Attributes
    ----------
    mbs_user_ids:
        Users scheduled on the MBS this slot (``p_j = 1``; Theorem 1
        guarantees the optimal ``p`` is binary).
    rho_mbs:
        ``{user_id: rho_{0,j}}`` time shares on the common channel.
    rho_fbs:
        ``{user_id: rho_{i,j}}`` time shares on the user's FBS.
    objective:
        Objective value of problem (17) at this allocation, when known.
    """

    mbs_user_ids: set
    rho_mbs: Dict[int, float]
    rho_fbs: Dict[int, float]
    objective: float = field(default=float("nan"))

    def time_share(self, user: UserDemand) -> float:
        """The share actually used by ``user`` on its chosen base station."""
        if user.user_id in self.mbs_user_ids:
            return self.rho_mbs.get(user.user_id, 0.0)
        return self.rho_fbs.get(user.user_id, 0.0)

    def uses_mbs(self, user_id: int) -> bool:
        """Whether the user is scheduled on the MBS this slot."""
        return user_id in self.mbs_user_ids


def evaluate_objective(problem: SlotProblem, allocation: Allocation) -> float:
    """Objective (expected log-PSNR gain) of problem (17) at ``allocation``.

    Only the branch each user actually selected contributes, matching the
    binary optimal ``p`` of Theorem 1; the time share of the non-selected
    base station is treated as zero.  See the module docstring for why the
    per-user term is ``sP * (log(W + rho * slope) - log W)``.
    """
    columns = problem.columns
    static = columns.static
    w_prev = columns.w_prev
    mbs_user_ids = allocation.mbs_user_ids
    expected = problem.expected_channels
    total = 0.0
    for j, user_id in enumerate(static.user_ids):
        w = w_prev[j]
        if user_id in mbs_user_ids:
            rho = allocation.rho_mbs.get(user_id, 0.0)
            total += static.success_mbs[j] * (
                np.log(w + rho * columns.r_mbs[j]) - np.log(w))
        else:
            rho = allocation.rho_fbs.get(user_id, 0.0)
            g_i = expected[static.fbs_id[j]]
            total += static.success_fbs[j] * (
                np.log(w + rho * g_i * columns.r_fbs[j]) - np.log(w))
    return float(total)
