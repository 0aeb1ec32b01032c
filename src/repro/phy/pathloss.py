"""Log-distance path loss and mean-SINR derivation.

The paper's evaluation does not publish its link budget; it only requires
*some* mapping from geometry to the per-link mean SINR that parameterises
the block-fading CDF of eq. (8).  We use the standard log-distance model
from Rappaport (the paper's reference [19]):

    PL(d) = PL(d0) + 10 n log10(d / d0)     [dB]

with distinct exponents for the indoor femtocell tier and the outdoor
macrocell tier -- femtocell links are short and benefit from low transmit
power yet high SINR, which is the premise of the paper's Introduction.
"""

from __future__ import annotations

import math

from repro.utils.errors import ConfigurationError
from repro.utils.validation import check_positive


class LogDistancePathLoss:
    """Log-distance path-loss model.

    Parameters
    ----------
    exponent:
        Path-loss exponent ``n`` (2 = free space, 3-4 = urban macro).
    reference_distance_m:
        Reference distance ``d0`` in metres.
    reference_loss_db:
        Path loss at ``d0`` in dB.
    """

    def __init__(self, exponent: float = 3.0, reference_distance_m: float = 1.0,
                 reference_loss_db: float = 37.0) -> None:
        self.exponent = check_positive(exponent, "exponent")
        self.reference_distance_m = check_positive(
            reference_distance_m, "reference_distance_m")
        if not math.isfinite(reference_loss_db):
            raise ConfigurationError(
                f"reference_loss_db must be finite, got {reference_loss_db}")
        self.reference_loss_db = float(reference_loss_db)

    def loss_db(self, distance_m: float) -> float:
        """Path loss in dB at ``distance_m`` (clamped to ``d0`` minimum).

        Distances below the reference distance are clamped to ``d0`` -- the
        far-field model is not valid there and extrapolating would predict
        unphysical gains.
        """
        distance_m = check_positive(distance_m, "distance_m")
        distance_m = max(distance_m, self.reference_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * math.log10(
            distance_m / self.reference_distance_m)

    def __repr__(self) -> str:
        return (f"LogDistancePathLoss(n={self.exponent}, d0={self.reference_distance_m} m, "
                f"PL0={self.reference_loss_db} dB)")


def mean_sinr_db(tx_power_dbm: float, distance_m: float, pathloss: LogDistancePathLoss,
                 noise_dbm: float = -100.0, interference_dbm: float = float("-inf")) -> float:
    """Mean received SINR in dB for a link.

    Parameters
    ----------
    tx_power_dbm:
        Transmit power in dBm.
    distance_m:
        Link distance in metres.
    pathloss:
        Path-loss model.
    noise_dbm:
        Thermal-noise floor in dBm.
    interference_dbm:
        Aggregate interference power in dBm (``-inf`` for none).  The
        interfering-FBS case never produces co-channel interference at the
        allocation level (the interference graph forbids it), but residual
        cross-tier interference can be modelled here.
    """
    rx_dbm = float(tx_power_dbm) - pathloss.loss_db(distance_m)
    denominator_mw = 10.0 ** (noise_dbm / 10.0)
    if interference_dbm != float("-inf"):
        denominator_mw += 10.0 ** (interference_dbm / 10.0)
    return rx_dbm - 10.0 * math.log10(denominator_mw)


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to linear scale."""
    return 10.0 ** (float(value_db) / 10.0)
