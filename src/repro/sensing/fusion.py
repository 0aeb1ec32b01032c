"""Bayesian fusion of sensing results (eqs. (2)-(4)).

Given ``L`` independent sensing observations of channel ``m`` and the
channel's prior busy probability (its utilisation ``eta_m``), the posterior
probability that the channel is available (idle) is

    P_A(Theta_1..Theta_L)
      = [ 1 + eta/(1-eta) * prod_i LR_i ]^{-1}          (eq. 2)

where ``LR_i`` is the likelihood ratio of observation ``i``.  The paper
also gives an iterative decomposition (eqs. (3)-(4)) that folds one
observation at a time -- convenient when results arrive sequentially over
the common channel.  Both forms are implemented over
:class:`~repro.sensing.detector.SensingResult` objects, one channel at a
time, and tested for exact agreement.

The simulation fuses every channel of a slot at once through
:func:`fuse_log_odds`, the one production implementation: it adds the
same ``math.log`` likelihood-ratio steps in the same order as
:func:`posterior_idle_probability`, so the posteriors are bit-identical.
The prior row and the FBS antenna rows (``M`` wide) are added with numpy
-- a list accumulation loses at the 400-FBS city grid; the round-robin
users' single steps and the final sigmoid run over Python floats, where
numpy's per-call cost would dominate at the 4-12 channels that run
(DESIGN.md section 11 has the per-call table).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

from repro.sensing.detector import (
    SensingResult,
    likelihood_ratio_pair,
    log_step,
)
from repro.spectrum.markov import BUSY
from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_probability


def posterior_idle_probability(eta: float, results: Sequence[SensingResult]) -> float:
    """Closed-form posterior ``P_A`` of eq. (2).

    Parameters
    ----------
    eta:
        Prior busy probability of the channel (its utilisation, eq. 1).
    results:
        Sensing observations of the *same* channel.  An empty sequence
        returns the prior idle probability ``1 - eta``.

    Returns
    -------
    float
        ``Pr{H0 | Theta_1..Theta_L}`` in ``[0, 1]``.
    """
    eta = check_probability(eta, "eta")
    _check_single_channel(results)
    if eta == 0.0:
        return 1.0
    if eta == 1.0:
        return 0.0
    # Work in log space: with many observations the likelihood-ratio
    # product under/overflows double precision long before L is large.
    log_ratio = math.log(eta / (1.0 - eta))
    for result in results:
        lr = result.likelihood_ratio
        if lr == 0.0:
            return 1.0
        if math.isinf(lr):
            return 0.0
        log_ratio += math.log(lr)
    # P_A = 1 / (1 + exp(log_ratio)) = sigmoid(-log_ratio)
    if log_ratio > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(log_ratio))


def fuse_posterior(eta: float, results: Sequence[SensingResult]) -> float:
    """Alias for :func:`posterior_idle_probability` (the paper's ``P_A^m``)."""
    return posterior_idle_probability(eta, results)


def fuse_iterative(eta: float, results: Iterable[SensingResult]) -> float:
    """Posterior computed by the paper's iterative updates (eqs. (3)-(4)).

    Folds observations one at a time: eq. (3) initialises with the first
    observation, eq. (4) updates with each subsequent one.  Numerically
    equivalent to :func:`posterior_idle_probability`; provided because the
    paper's protocol shares results incrementally over the common channel.
    """
    eta = check_probability(eta, "eta")
    results = list(results)
    _check_single_channel(results)
    if not results:
        return 1.0 - eta
    if eta == 0.0:
        return 1.0
    if eta == 1.0:
        return 0.0
    # eq. (3): first observation, prior odds eta/(1-eta).
    posterior = _fold(eta / (1.0 - eta), results[0])
    # eq. (4): each further observation uses the previous posterior's odds
    # (1/P_A - 1) as its prior odds.
    for result in results[1:]:
        if posterior == 0.0:
            return 0.0
        if posterior == 1.0:
            return 1.0
        prior_odds = 1.0 / posterior - 1.0
        posterior = _fold(prior_odds, result)
    return posterior


def _fold(prior_busy_odds: float, result: SensingResult) -> float:
    """One Bayes update: posterior idle prob from prior busy odds + result."""
    lr = result.likelihood_ratio
    if math.isinf(lr):
        return 0.0 if prior_busy_odds > 0.0 else 1.0
    odds = prior_busy_odds * lr
    return 1.0 / (1.0 + odds)


def prior_log_odds(busy_priors) -> List[float]:
    """Per-channel prior log-odds ``log(eta / (1 - eta))`` of eq. (2).

    ``eta = 0`` and ``eta = 1`` map to ``-inf`` and ``+inf``: a certain
    prior is decisive, exactly like the scalar path's short-circuit.

    Raises
    ------
    ConfigurationError
        If any prior is not a probability.
    """
    log_odds = []
    for eta in busy_priors:
        if not 0.0 <= eta <= 1.0:
            raise ConfigurationError(
                f"busy_priors entries must be probabilities, got {eta!r}")
        if eta == 0.0:
            log_odds.append(-math.inf)
        elif eta == 1.0:
            log_odds.append(math.inf)
        else:
            log_odds.append(math.log(eta / (1.0 - eta)))
    return log_odds


def fuse_log_odds(terms: np.ndarray, tail: Sequence[float] = (),
                  offset: int = 0, silenced: Iterable[int] = ()) -> List[float]:
    """Eq. (2) for every channel: sum the log-odds, then the sigmoid.

    The one fusion implementation behind the engine, the belief tracker
    and :func:`fuse_posteriors_batched`.  Each channel's log-odds are
    accumulated strictly left to right, in the scalar path's order:

    1. ``terms`` is a ``(1 + R, M)`` float array.  Row 0 holds the prior
       log-odds (:func:`prior_log_odds`), rows ``1..R`` one observation
       step per channel each -- in the engine, FBS ``0..R-1``'s
       antennas.  The rows are added in order by one
       ``np.add.accumulate`` down the columns (an exact sequence of row
       adds; no pairwise reordering).
    2. ``tail`` holds single-channel steps, entry ``k`` on channel
       ``(k + offset) % M`` -- the round-robin CR users in sorted-id
       order.  They are added over Python floats.
    3. Channels in ``silenced`` (a sensing outage) keep their prior.

    A step of ``+-inf`` is a decisive observation; the first decisive
    term fixes the posterior, as in the scalar path.  Opposite decisive
    terms sum to NaN (numpy warns "invalid value" unless the caller
    silences it), and the earlier of them is looked up.  With static
    priors they cannot meet within one engine slot: opposite decisive
    steps need both likelihood ratios decisive, ``(epsilon, delta)`` =
    (0, 0) or (1, 1), and then every report is a fixed function of the
    channel's one true state; a certain prior (eta 0 or 1) belongs to a
    channel that never leaves that state.  The sigmoid
    ``1 / (1 + exp(x))`` runs through ``math.exp`` (0 above x = 700).

    Returns
    -------
    list of float
        Idle posteriors ``P_A^m``, bit-identical to
        :func:`posterior_idle_probability` over the same sequence.
    """
    totals = np.add.accumulate(terms, axis=0)[-1].tolist()
    n_channels = len(totals)
    for start in range(min(n_channels, len(tail))):
        channel = (start + offset) % n_channels
        total = totals[channel]
        for step in tail[start::n_channels]:
            total += step
        totals[channel] = total
    for channel in silenced:
        totals[channel] = float(terms[0, channel])
    posteriors = []
    for channel, total in enumerate(totals):
        if total != total:
            total = _first_decisive(terms[:, channel].tolist()
                                    + list(tail[(channel - offset)
                                                % n_channels::n_channels]))
        posteriors.append(0.0 if total > 700.0
                          else 1.0 / (1.0 + math.exp(total)))
    return posteriors


def _first_decisive(terms: List[float]) -> float:
    """The first infinite term of a channel's log-odds sequence."""
    return next(term for term in terms if math.isinf(term))


def fuse_posteriors_batched(busy_priors, observations, counts,
                            false_alarm: float,
                            miss_detection: float) -> np.ndarray:
    """Fuse every channel's sensing observations in one pass.

    Bit-exact counterpart of calling :func:`posterior_idle_probability`
    per channel with the same observations in the same order; a matrix
    front end to :func:`fuse_log_odds`.

    Parameters
    ----------
    busy_priors:
        Per-channel prior busy probabilities (``eta_m``, length ``M``).
    observations:
        ``(M, L)`` int array; row ``m`` holds channel ``m``'s
        observations in fusion order, padded arbitrarily past
        ``counts[m]``.
    counts:
        Number of valid observations per channel (length ``M``).
    false_alarm, miss_detection:
        The shared sensor error profile ``(epsilon, delta)``.

    Returns
    -------
    numpy.ndarray
        Idle posteriors ``P_A^m`` per channel.
    """
    priors = np.asarray(busy_priors, dtype=float)
    observations = np.atleast_2d(np.asarray(observations))
    counts = np.asarray(counts, dtype=np.int64)
    n_channels = priors.size
    if observations.shape[0] != n_channels or counts.shape != (n_channels,):
        raise ConfigurationError(
            f"shape mismatch: {n_channels} priors, observation matrix "
            f"{observations.shape}, counts {counts.shape}")
    if np.any(counts < 0) or np.any(counts > observations.shape[1]):
        raise ConfigurationError(
            f"counts must lie in [0, {observations.shape[1]}], got {counts}")
    lr_busy, lr_idle = likelihood_ratio_pair(false_alarm, miss_detection)
    steps = np.where(observations == BUSY, log_step(lr_busy),
                     log_step(lr_idle))
    # Padding past counts[m] adds 0.0: exact on every accumulator value.
    mask = np.arange(observations.shape[1]) < counts[:, None]
    terms = np.vstack([prior_log_odds(priors.tolist()),
                       np.where(mask, steps, 0.0).T])
    with np.errstate(invalid="ignore"):
        return np.array(fuse_log_odds(terms))


def _check_single_channel(results: Sequence[SensingResult]) -> None:
    channels = {result.channel for result in results}
    if len(channels) > 1:
        raise ConfigurationError(
            f"fusion requires observations of a single channel, got channels {sorted(channels)}")
