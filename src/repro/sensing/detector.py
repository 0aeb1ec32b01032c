"""Per-sensor spectrum-detection model.

Section III-B models each sensing attempt as a binary hypothesis test on
channel ``m`` -- ``H0`` (idle) vs ``H1`` (busy) -- characterised by two
error probabilities:

* **false alarm** ``epsilon``:  ``Pr{Theta = 1 | H0}`` -- an idle channel is
  reported busy and a spectrum opportunity is wasted;
* **miss detection** ``delta``:  ``Pr{Theta = 0 | H1}`` -- a busy channel is
  reported idle, risking collision with primary users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.spectrum.markov import BUSY, IDLE
from repro.utils.errors import ConfigurationError
from repro.utils.rng import RandomState, as_generator, batched_uniform
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class SensingResult:
    """One sensing observation ``Theta_i^m`` with its error profile.

    Attributes
    ----------
    channel:
        Licensed-channel index that was sensed.
    observation:
        Reported state: 0 (idle) or 1 (busy); the paper's ``Theta``.
    false_alarm:
        The reporting sensor's false-alarm probability ``epsilon_i^m``.
    miss_detection:
        The reporting sensor's miss-detection probability ``delta_i^m``.
    sensor_id:
        Identifier of the sensing node (CR user or FBS antenna).
    """

    channel: int
    observation: int
    false_alarm: float
    miss_detection: float
    sensor_id: int = -1

    def __post_init__(self) -> None:
        if self.observation not in (IDLE, BUSY):
            raise ConfigurationError(
                f"observation must be 0 or 1, got {self.observation!r}")
        check_probability(self.false_alarm, "false_alarm")
        check_probability(self.miss_detection, "miss_detection")

    @property
    def likelihood_ratio(self) -> float:
        """Likelihood ratio ``Pr{Theta | H1} / Pr{Theta | H0}``.

        This is the per-observation factor inside the product of eq. (2):
        ``delta^(1-Theta) (1-delta)^Theta / (eps^Theta (1-eps)^(1-Theta))``.
        """
        if self.observation == BUSY:
            return _ratio(1.0 - self.miss_detection, self.false_alarm)
        return _ratio(self.miss_detection, 1.0 - self.false_alarm)


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with ``x/0 = inf`` and ``0/0 = 1``."""
    if denominator == 0.0:
        return math.inf if numerator > 0.0 else 1.0
    return numerator / denominator


def likelihood_ratio_pair(false_alarm: float, miss_detection: float) -> tuple:
    """The two possible likelihood ratios under one ``(epsilon, delta)``.

    Every observation from a sensor with this error profile has ratio
    ``(1 - delta) / epsilon`` when it reports busy and
    ``delta / (1 - epsilon)`` when it reports idle -- the same arithmetic
    (including the 0/0 -> 1 convention) as
    :attr:`SensingResult.likelihood_ratio`.

    Returns
    -------
    tuple
        ``(lr_busy, lr_idle)``.
    """
    false_alarm = check_probability(false_alarm, "false_alarm")
    miss_detection = check_probability(miss_detection, "miss_detection")
    return (_ratio(1.0 - miss_detection, false_alarm),
            _ratio(miss_detection, 1.0 - false_alarm))


def log_step(likelihood_ratio: float) -> float:
    """``math.log`` of a likelihood ratio, with ``log 0 = -inf``.

    A zero or infinite ratio is a *decisive* observation: its step
    drives the fused log-odds to ``-inf`` (certainly idle) or ``+inf``
    (certainly busy).
    """
    return math.log(likelihood_ratio) if likelihood_ratio > 0.0 else -math.inf


class SpectrumSensor:
    """A sensing front end with fixed error probabilities.

    Each CR user carries one software-radio transceiver and senses exactly
    one licensed channel per slot; each FBS has ``M`` antennas and may sense
    all channels (Section III-A/B).  Both are modelled by this class -- the
    owner decides how many channels to sense per slot.

    Parameters
    ----------
    false_alarm:
        ``epsilon`` -- probability of reporting busy when the channel is idle.
    miss_detection:
        ``delta`` -- probability of reporting idle when the channel is busy.
    sensor_id:
        Identifier propagated into :class:`SensingResult`.
    rng:
        Randomness source for observation noise.
    """

    def __init__(self, false_alarm: float, miss_detection: float, *,
                 sensor_id: int = -1, rng: RandomState = None) -> None:
        self.false_alarm = check_probability(false_alarm, "false_alarm")
        self.miss_detection = check_probability(miss_detection, "miss_detection")
        self.sensor_id = int(sensor_id)
        self._rng = as_generator(rng)

    def sense(self, channel: int, true_state: int) -> SensingResult:
        """Observe ``channel`` whose true occupancy is ``true_state``.

        Returns a noisy :class:`SensingResult` according to the sensor's
        error probabilities.
        """
        if true_state not in (IDLE, BUSY):
            raise ConfigurationError(f"true_state must be 0 or 1, got {true_state!r}")
        if true_state == IDLE:
            observation = BUSY if self._rng.random() < self.false_alarm else IDLE
        else:
            observation = IDLE if self._rng.random() < self.miss_detection else BUSY
        return SensingResult(
            channel=int(channel),
            observation=observation,
            false_alarm=self.false_alarm,
            miss_detection=self.miss_detection,
            sensor_id=self.sensor_id,
        )

    def sense_batched(self, true_states) -> np.ndarray:
        """Batched counterpart of :meth:`sense` over many observations.

        Consumes the sensor's RNG stream exactly like the equivalent
        sequence of scalar :meth:`sense` calls (one uniform per
        observation, in order), so the two are interchangeable
        mid-simulation.  Returns the raw observation vector instead of
        :class:`SensingResult` objects -- skipping the per-observation
        dataclass construction is most of the batched backend's win.
        """
        return sense_observations_batched(
            true_states, self.false_alarm, self.miss_detection, rng=self._rng)

    def error_profile(self) -> tuple:
        """The ``(epsilon, delta)`` pair of this sensor."""
        return (self.false_alarm, self.miss_detection)

    def __repr__(self) -> str:
        return (f"SpectrumSensor(id={self.sensor_id}, epsilon={self.false_alarm}, "
                f"delta={self.miss_detection})")


class SensingProfile:
    """The shared ``(epsilon, delta)`` error profile, validated once.

    The paper's evaluation gives every sensor -- FBS antenna and CR user
    alike -- the same error profile, so one object serves a whole
    engine.  It turns a slot's uniform draws into observations with the
    decision rule of :meth:`SpectrumSensor.sense`:

    * idle channel: report busy iff ``u < epsilon`` (false alarm);
    * busy channel: report idle iff ``u < delta`` (miss detection).

    Observation ``k`` of true state ``s_k`` compares its uniform against
    ``(epsilon, delta)[s_k]`` and gets the key ``2 s_k + (u_k < ...)``:
    0 = idle reported idle, 1 = idle reported busy, 2 = busy reported
    busy, 3 = busy reported idle.  Both the observation bits and the
    log-likelihood steps of eq. (2) are table lookups on that key, so
    the two always agree with each other and with the scalar sensor.
    """

    def __init__(self, false_alarm: float, miss_detection: float) -> None:
        self.false_alarm = check_probability(false_alarm, "false_alarm")
        self.miss_detection = check_probability(miss_detection,
                                                "miss_detection")
        self._thresholds = np.array([self.false_alarm, self.miss_detection])
        # libm logs (numpy's SIMD np.log differs by 1 ulp on some inputs).
        lr_busy, lr_idle = likelihood_ratio_pair(self.false_alarm,
                                                 self.miss_detection)
        log_busy, log_idle = log_step(lr_busy), log_step(lr_idle)
        self._steps = np.array([log_idle, log_busy, log_busy, log_idle])

    def _keys(self, draws: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The one vectorised compare: per-observation keys 0..3."""
        keys = states + states
        keys += (draws < self._thresholds.take(states)).view(np.int8)
        return keys

    def observations(self, draws: np.ndarray,
                     states: np.ndarray) -> np.ndarray:
        """Reported states ``Theta_k`` (int8 0/1) of int8 true ``states``."""
        return _REPORTS.take(self._keys(draws, states))

    def log_likelihood_steps(self, draws: np.ndarray, states: np.ndarray,
                             out: np.ndarray = None) -> np.ndarray:
        """``log LR`` of every observation (``+-inf`` when decisive).

        ``states`` must be an int8 array of 0/1 (the caller validates
        it); the steps are written into ``out`` when given.
        """
        return self._steps.take(self._keys(draws, states), out=out,
                                mode="clip")


#: Reported state per observation key (see :class:`SensingProfile`).
_REPORTS = np.array([IDLE, BUSY, BUSY, IDLE], dtype=np.int8)


def sense_observations_batched(true_states, false_alarm: float,
                               miss_detection: float, *,
                               rng: RandomState = None) -> np.ndarray:
    """Realise many sensing observations with one RNG call.

    ``true_states[k]`` is the true occupancy seen by observation ``k``;
    all observations share one ``(epsilon, delta)`` error profile (the
    paper's evaluation uses identical sensors).  The function draws
    ``len(true_states)`` uniforms via :func:`~repro.utils.rng.batched_uniform`
    and applies :class:`SensingProfile`'s compare -- the decision rule
    of :meth:`SpectrumSensor.sense` -- so the returned observation
    vector and the RNG state afterwards are bit-identical to the
    equivalent ``sense`` loop.
    """
    profile = SensingProfile(false_alarm, miss_detection)
    states = np.asarray(true_states)
    if states.ndim != 1:
        raise ConfigurationError(
            f"true_states must be one-dimensional, got shape {states.shape}")
    check_states(states.tolist())
    draws = batched_uniform(as_generator(rng), states.size)
    return profile.observations(draws, states.astype(np.int8))


def check_states(states) -> None:
    """Reject any true occupancy state other than 0 (idle) or 1 (busy)."""
    for state in states:
        if state != IDLE and state != BUSY:
            raise ConfigurationError(
                f"true_state must be 0 or 1, got {state!r}")
