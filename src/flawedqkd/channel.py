"""Lossy-channel and threshold-detector simulation.

Bob measures with two threshold detectors behind a basis choice.  The model
keeps first order in the dark-count probability, assigns double clicks at
random, and treats loss as a single overall system efficiency.  Only the
encoding-phase deviation delta reaches the detection statistics; the
polarization rotation and the leaked light are handled entirely on the
source side by the estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import NoDetectionError
from .qstates import (
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    DeviceModel,
    Setting,
)


@dataclass(frozen=True)
class ChannelModel:
    """Overall system loss in dB, dark-count probability per detector per
    gate, and error-correction inefficiency."""

    loss_db: float
    p_d: float = 1e-7
    f_ec: float = 1.16

    def __post_init__(self) -> None:
        # Infinite loss stays valid: it is the eta = 0 limit.
        if not self.loss_db >= 0.0:
            raise ValueError(f"loss_db must be nonnegative, got {self.loss_db}")
        if not 0.0 <= self.p_d < 1.0:
            raise ValueError(f"p_d must lie in [0, 1), got {self.p_d}")
        if not 1.0 <= self.f_ec < math.inf:
            raise ValueError(f"f_ec must be finite and >= 1, got {self.f_ec}")


def from_distance(
    distance_km: float,
    alpha_db_per_km: float = 0.2,
    receiver_loss_db: float = 0.0,
    p_d: float = 1e-7,
    f_ec: float = 1.16,
) -> ChannelModel:
    """Build a ChannelModel from fiber length, attenuation, and receiver loss."""
    if distance_km < 0.0:
        raise ValueError(f"distance_km must be nonnegative, got {distance_km}")
    return ChannelModel(
        loss_db=distance_km * alpha_db_per_km + receiver_loss_db, p_d=p_d, f_ec=f_ec
    )


@dataclass(frozen=True)
class ProtocolProbabilities:
    """Basis selection probabilities for Alice and Bob.

    Alice splits her Z probability evenly between the two Z bits and sends
    only 0X in the X basis.
    """

    p_za: float = 0.5
    p_zb: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.p_za < 1.0:
            raise ValueError(f"p_za must lie in (0, 1), got {self.p_za}")
        if not 0.0 < self.p_zb < 1.0:
            raise ValueError(f"p_zb must lie in (0, 1), got {self.p_zb}")

    @property
    def p_0z(self) -> float:
        return self.p_za / 2.0

    @property
    def p_1z(self) -> float:
        return self.p_za / 2.0

    @property
    def p_0x(self) -> float:
        return 1.0 - self.p_za

    @property
    def p_xb(self) -> float:
        return 1.0 - self.p_zb

    def sent_probability(self, setting: Setting) -> float:
        """Probability that Alice prepares the given setting."""
        if setting == SETTING_0Z:
            return self.p_0z
        if setting == SETTING_1Z:
            return self.p_1z
        if setting == SETTING_0X:
            return self.p_0x
        raise ValueError(f"setting {setting.label()} is never sent")


@dataclass(frozen=True)
class YieldTable:
    """The ten observed joint probabilities Y[(outcome, sent)].

    Keys pair Bob's declared outcome setting (bit and measurement basis)
    with Alice's sent setting.
    """

    entries: dict[tuple[Setting, Setting], float]

    def value(self, outcome: Setting, sent: Setting) -> float:
        return self.entries[(outcome, sent)]

    def items(self) -> Iterator[tuple[tuple[Setting, Setting], float]]:
        return iter(self.entries.items())

    def z_detection_sum(self) -> float:
        """Total probability of a Z-basis detection on a Z-basis pulse."""
        return (
            self.entries[(SETTING_0Z, SETTING_0Z)]
            + self.entries[(SETTING_1Z, SETTING_0Z)]
            + self.entries[(SETTING_0Z, SETTING_1Z)]
            + self.entries[(SETTING_1Z, SETTING_1Z)]
        )


def system_efficiency(channel: ChannelModel) -> float:
    """Transmittance eta = 10^(-loss_db/10)."""
    return 10.0 ** (-channel.loss_db / 10.0)


def _detector_pair(prefactor: float, c: float, eta: float, p_d: float) -> tuple[float, float]:
    # Joint probabilities for the two outcomes of one basis measurement on
    # one sent state, where c is the Bloch-axis alignment of the state with
    # the measured axis.  First order in p_d, double clicks split evenly.
    y_plus = prefactor * (
        (1.0 - eta / 2.0) * p_d
        + (eta / 4.0) * (1.0 + c) * (1.0 - p_d / 2.0)
        + (eta / 8.0) * (1.0 - c) * p_d
    )
    y_minus = prefactor * (
        (1.0 - eta / 2.0) * p_d
        + (eta / 8.0) * (1.0 + c) * p_d
        + (eta / 4.0) * (1.0 - c) * (1.0 - p_d / 2.0)
    )
    return y_plus, y_minus


def actual_yields(
    device: DeviceModel, channel: ChannelModel, probs: ProtocolProbabilities
) -> YieldTable:
    """All ten yields observed in the three-state protocol.

    Rows exist for both Bob bases on each Z pulse and for the X basis on
    the 0X pulse.  Entries are joint probabilities including Alice's and
    Bob's selection probabilities.
    """
    eta = system_efficiency(channel)
    d = device.delta
    x_outcomes = (SETTING_0X, SETTING_1X, probs.p_xb)
    z_outcomes = (SETTING_0Z, SETTING_1Z, probs.p_zb)
    entries: dict[tuple[Setting, Setting], float] = {}
    # Each sent pulse, Bob's two outcomes and basis probability, and the
    # Bloch alignment c of the pulse with the measured axis.
    for sent, (zero, one, p_basis), c in (
        (SETTING_0Z, x_outcomes, math.sin(d / 2)),
        (SETTING_0Z, z_outcomes, math.cos(d)),
        (SETTING_1Z, x_outcomes, -math.sin(3 * d / 2)),
        (SETTING_1Z, z_outcomes, -math.cos(2 * d)),
        (SETTING_0X, x_outcomes, math.cos(d)),
    ):
        y0, y1 = _detector_pair(probs.sent_probability(sent) * p_basis, c, eta, channel.p_d)
        entries[(zero, sent)] = y0
        entries[(one, sent)] = y1
    return YieldTable(entries)


def basis_detection_probability(channel: ChannelModel) -> float:
    """Probability of a detection given any fixed basis pair.

    The symmetric channel makes this the same for both bases.
    """
    eta = system_efficiency(channel)
    return 4.0 * (1.0 - eta / 2.0) * channel.p_d + eta


def bit_error_rate(device: DeviceModel, channel: ChannelModel) -> float:
    """Z-basis bit error rate e_Z of the sifted key."""
    eta = system_efficiency(channel)
    p_d = channel.p_d
    denom = basis_detection_probability(channel)
    if denom <= 0.0:
        raise NoDetectionError("no detections: eta = 0 and p_d = 0")
    num = (
        2.0 * (1.0 - eta / 2.0) * p_d
        + eta / 2.0
        + (eta / 4.0) * (math.cos(2 * device.delta) + math.cos(device.delta)) * (p_d - 1.0)
    )
    return num / denom


def z_basis_yield(channel: ChannelModel, probs: ProtocolProbabilities) -> float:
    """Probability that a pulse ends up in the sifted Z key."""
    return probs.p_za * probs.p_zb * basis_detection_probability(channel)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
