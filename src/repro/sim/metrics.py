"""Aggregate metrics of simulation runs.

The paper's figure of merit is the average Y-PSNR of the reconstructed
videos (per user in Fig. 3, averaged over users elsewhere), each point
being the mean of 10 independent runs with a 95% confidence interval.
For the interfering scenario the figures also carry an "Upper bound"
curve derived from eq. (23); :func:`compute_run_metrics` converts the
accumulated per-GOP objective gaps into a PSNR-domain bound (see
``upper_bound_psnr`` below for the construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs.metrics import accumulate_phase_seconds
from repro.sim.fallback import DegradationEvent
from repro.utils.stats import ConfidenceInterval, jain_fairness_index, mean_confidence_interval
from repro.video.gop import GopClock


@dataclass(frozen=True)
class RunMetrics:
    """Aggregates of one simulation run.

    Attributes
    ----------
    per_user_psnr:
        ``{user_id: mean PSNR over completed GOPs}`` in dB.
    mean_psnr:
        Average of ``per_user_psnr`` over users (the paper's y-axis).
    fairness:
        Jain index of the per-user PSNRs (quantifies Fig. 3's balance
        observation).
    collision_rates:
        Per-channel empirical collision probability per slot; must stay
        below ``gamma`` up to sampling noise.
    upper_bound_psnr:
        PSNR-domain upper bound implied by eq. (23); equals ``mean_psnr``
        for runs where no greedy allocation happened (non-interfering or
        heuristic schemes).
    bound_gaps_per_gop:
        The accumulated objective gaps behind the bound (log domain).
    degradation_events:
        Structured fault-tolerance diagnostics recorded during the run
        (solver fallbacks, sensing outages); see
        :class:`~repro.sim.fallback.DegradationEvent`.  Empty on a fully
        healthy run.
    phase_seconds:
        Wall-clock seconds the engine spent per phase (``sensing``,
        ``access``, ``allocation``, ``transmission``).  Profiling
        telemetry only: deliberately excluded from checkpoint/result
        serialization, which must stay deterministic.
    obs_snapshot:
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of the
        metrics recorded during this replication, when metric collection
        was enabled (empty otherwise).  Telemetry like
        ``phase_seconds``: rides the run back from worker processes so
        the parent can merge it, and is excluded from checkpoint/result
        serialization.
    """

    per_user_psnr: Dict[int, float]
    mean_psnr: float
    fairness: float
    collision_rates: np.ndarray
    upper_bound_psnr: float
    bound_gaps_per_gop: Sequence[float] = field(default_factory=tuple)
    degradation_events: Sequence[DegradationEvent] = field(default_factory=tuple)
    phase_seconds: Mapping[str, float] = field(default_factory=dict)
    obs_snapshot: Mapping[str, object] = field(default_factory=dict)

    @property
    def n_users(self) -> int:
        """Number of users in the run."""
        return len(self.per_user_psnr)

    @property
    def n_degraded(self) -> int:
        """Number of degradation events recorded during the run."""
        return len(self.degradation_events)


def compute_run_metrics(clocks: Mapping[int, GopClock], collision_rates: np.ndarray,
                        bound_gaps_per_gop: Sequence[float],
                        degradation_events: Sequence[DegradationEvent] = (),
                        phase_seconds: Optional[Mapping[str, float]] = None
                        ) -> RunMetrics:
    """Fold per-user GOP clocks into a :class:`RunMetrics`.

    The eq. (23) gap is a bound on the *objective* (sum over users of
    expected log-PSNR gain) per slot; distributing a GOP window's
    accumulated gap equally across the ``K`` users bounds each user's
    optimal log-PSNR by ``log W + gap/K``, i.e. scales the PSNR by
    ``exp(gap/K)``.  ``upper_bound_psnr`` applies that factor per GOP and
    averages, keeping the bound in the same units as ``mean_psnr``.
    """
    per_user = {user_id: clock.mean_gop_psnr() for user_id, clock in clocks.items()}
    values = list(per_user.values())
    mean_psnr = float(np.mean(values))
    n_users = len(per_user)

    gop_counts = {len(clock.completed_gop_psnrs) for clock in clocks.values()}
    n_gops = min(gop_counts) if gop_counts else 0
    gaps = list(bound_gaps_per_gop)
    if n_gops and gaps:
        per_gop_means = []
        for gop_index in range(n_gops):
            gop_mean = float(np.mean([
                clock.completed_gop_psnrs[gop_index] for clock in clocks.values()]))
            gap = gaps[gop_index] if gop_index < len(gaps) else 0.0
            per_gop_means.append(gop_mean * math.exp(gap / n_users))
        upper_bound = float(np.mean(per_gop_means))
    else:
        upper_bound = mean_psnr

    return RunMetrics(
        per_user_psnr=per_user,
        mean_psnr=mean_psnr,
        fairness=jain_fairness_index(values),
        collision_rates=np.asarray(collision_rates, dtype=float),
        upper_bound_psnr=upper_bound,
        bound_gaps_per_gop=tuple(gaps),
        degradation_events=tuple(degradation_events),
        phase_seconds=dict(phase_seconds) if phase_seconds else {},
    )


@dataclass(frozen=True)
class FailedRun:
    """Diagnostic record of a Monte-Carlo replication that was lost.

    Produced by the fault-tolerant runner when a replication raises a
    :class:`~repro.utils.errors.ReproError` on its first attempt *and* on
    its fresh-seed retry.  Kept alongside the surviving runs (and in
    sweep checkpoints) so failures are reported, not silently dropped.

    Attributes
    ----------
    run_index:
        The replication index that failed.
    error_type:
        Class name of the final exception.
    error:
        Message of the final exception.
    attempts:
        Number of attempts made (first try + retries).
    seeds:
        The per-attempt derived seeds, for offline reproduction of the
        failure (``None`` entries for unseeded experiments).
    """

    run_index: int
    error_type: str
    error: str
    attempts: int
    seeds: Tuple[Optional[int], ...] = ()

    def to_dict(self) -> dict:
        """JSON-compatible representation (checkpoint files)."""
        return {
            "run_index": self.run_index,
            "error_type": self.error_type,
            "error": self.error,
            "attempts": self.attempts,
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FailedRun":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_index=int(data["run_index"]),
            error_type=str(data["error_type"]),
            error=str(data["error"]),
            attempts=int(data["attempts"]),
            seeds=tuple(None if s is None else int(s)
                        for s in data.get("seeds", [])),
        )


@dataclass(frozen=True)
class MetricsSummary:
    """Cross-run summary used for one experiment point.

    Attributes
    ----------
    mean_psnr:
        Confidence interval of the run-level mean PSNR.
    per_user_psnr:
        Per-user confidence intervals.
    upper_bound_psnr:
        Confidence interval of the eq. (23) PSNR bound.
    fairness:
        Confidence interval of the Jain index.
    mean_collision_rate:
        Confidence interval of the channel-averaged collision rate.
    n_failed:
        Replications that failed (after their retry) and were excluded
        from these statistics -- the explicit survivor count the
        fault-tolerant runner reports instead of silently shrinking the
        sample.
    n_degraded_slots:
        Total degradation events across the surviving runs (solver
        fallbacks and sensing outages).
    phase_seconds:
        Per-phase engine wall-clock seconds summed over the surviving
        runs (empty when the runs carried no timing telemetry, e.g.
        deserialized checkpoint rows).
    """

    mean_psnr: ConfidenceInterval
    per_user_psnr: Dict[int, ConfidenceInterval]
    upper_bound_psnr: ConfidenceInterval
    fairness: ConfidenceInterval
    mean_collision_rate: ConfidenceInterval
    n_failed: int = 0
    n_degraded_slots: int = 0
    phase_seconds: Mapping[str, float] = field(default_factory=dict)


def summarize_runs(runs: Sequence[RunMetrics],
                   n_failed: int = 0) -> MetricsSummary:
    """Summarise independent runs into 95% confidence intervals.

    Parameters
    ----------
    runs:
        The surviving replications (at least one).
    n_failed:
        Replications that were lost to errors; recorded verbatim on the
        summary so downstream consumers can see the effective sample
        size shrank.
    """
    if not runs:
        raise ValueError("runs must be non-empty")
    user_ids = sorted(runs[0].per_user_psnr)
    for run in runs:
        if sorted(run.per_user_psnr) != user_ids:
            raise ValueError("all runs must cover the same users")
    phase_totals: Dict[str, float] = {}
    for run in runs:
        accumulate_phase_seconds(phase_totals, run.phase_seconds)
    return MetricsSummary(
        mean_psnr=mean_confidence_interval(
            [run.mean_psnr for run in runs]),
        per_user_psnr={
            user_id: mean_confidence_interval(
                [run.per_user_psnr[user_id] for run in runs])
            for user_id in user_ids
        },
        upper_bound_psnr=mean_confidence_interval(
            [run.upper_bound_psnr for run in runs]),
        fairness=mean_confidence_interval(
            [run.fairness for run in runs]),
        mean_collision_rate=mean_confidence_interval(
            [float(run.collision_rates.mean()) for run in runs]),
        n_failed=int(n_failed),
        n_degraded_slots=sum(run.n_degraded for run in runs),
        phase_seconds=phase_totals,
    )
