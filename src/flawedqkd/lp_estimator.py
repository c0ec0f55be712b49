"""Quantum-coin phase-error estimation for basis-dependent sources.

Instead of inverting yields, this method compresses all source flaws into a
single imbalance Delta between the Z-basis and X-basis source states, then
pays for channel loss by dividing Delta by the detection probability.  The
resulting loss-enhanced imbalance converts the observed bit error rate into
a phase-error bound.
"""

from __future__ import annotations

import math

from .channel import (
    ChannelModel,
    ProtocolProbabilities,
    basis_detection_probability,
    bit_error_rate,
)
from .errors import NoDetectionError
from .lt_estimator import KeyRatePoint, _key_rate_point
from .qstates import (
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    DeviceModel,
    full_overlap,
)


def coin_imbalance(device: DeviceModel) -> float:
    """Imbalance Delta of the quantum coin, from the four-state overlaps.

    Delta = (1 - Re<Y_Z|Y_X>)/2 where the joint-state overlap combines the
    four cross-basis overlaps with a minus sign on the (1Z, 1X) term.  The
    emitted 1X state carries an unobservable global phase, so the sign of
    its two terms is chosen to maximize the overlap; the ideal device then
    gives exactly Delta = 0.
    """
    ov_00 = full_overlap(SETTING_0Z, SETTING_0X, device)
    ov_01 = full_overlap(SETTING_0Z, SETTING_1X, device)
    ov_10 = full_overlap(SETTING_1Z, SETTING_0X, device)
    ov_11 = full_overlap(SETTING_1Z, SETTING_1X, device)
    fixed = (ov_00 + ov_10) / (2.0 * math.sqrt(2.0))
    phased = (ov_01 - ov_11) / (2.0 * math.sqrt(2.0))
    overlap = fixed + abs(phased)
    delta = (1.0 - overlap) / 2.0
    return min(max(delta, 0.0), 0.5)


def delta_prime(delta_coin: float, channel: ChannelModel) -> float:
    """Loss-enhanced imbalance Delta' = Delta / detection probability,
    capped at 1/2."""
    if delta_coin < 0.0:
        raise ValueError(f"delta_coin must be nonnegative, got {delta_coin}")
    y_det = basis_detection_probability(channel)
    if y_det <= 0.0:
        raise NoDetectionError("no detections: Delta' is undefined")
    return min(delta_coin / y_det, 0.5)


def lp_phase_error_bound(e_z: float, d_prime: float) -> float:
    """Phase-error bound from the bit error rate and the loss-enhanced
    imbalance, capped at 1."""
    if not 0.0 <= e_z <= 0.5:
        raise ValueError(f"e_z must lie in [0, 1/2], got {e_z}")
    if not 0.0 <= d_prime <= 0.5:
        raise ValueError(f"delta_prime must lie in [0, 1/2], got {d_prime}")
    e_x = (
        e_z
        + 4.0 * d_prime * (1.0 - d_prime) * (1.0 - 2.0 * e_z)
        + 4.0 * (1.0 - 2.0 * d_prime) * math.sqrt(d_prime * (1.0 - d_prime) * e_z * (1.0 - e_z))
    )
    return min(e_x, 1.0)


def phase_error_rate_lp(device: DeviceModel, channel: ChannelModel) -> float:
    """Worst-case phase error rate under the quantum-coin analysis.

    An imbalance whose loss enhancement exceeds 1/2 gives Eve full control
    of the coin, so the bound degenerates to 1.
    """
    e_z = min(bit_error_rate(device, channel), 0.5)
    y_det = basis_detection_probability(channel)
    if y_det <= 0.0:
        raise NoDetectionError("no detections: e_X is undefined")
    enhanced = coin_imbalance(device) / y_det
    if enhanced > 0.5:
        return 1.0
    return lp_phase_error_bound(e_z, enhanced)


def key_rate_lp(
    device: DeviceModel, channel: ChannelModel, probs: ProtocolProbabilities
) -> KeyRatePoint:
    """Secure key rate per emitted pulse under the quantum-coin analysis."""
    e_z = bit_error_rate(device, channel)
    return _key_rate_point(e_z, phase_error_rate_lp(device, channel), channel, probs)
