"""Source states of a flawed and leaky transmitter.

The transmitter tries to emit one of four qubit states (two per basis) but
suffers three imperfections:

* an encoding-phase deviation ``delta`` that tilts the qubit states,
* a setting-dependent polarization rotation of magnitude ``theta_hat`` that
  puts amplitude into a second optical mode,
* back-reflected probe light of intensity ``mu`` that tags each pulse with a
  setting-dependent side-channel state.

``DeviceModel`` holds one transmitter's validated parameters, and
``source_terms`` splits the states of many in one pass, each into a qubit
part plus an orthogonal rest.  The settings are numbered 0Z, 1Z, 0X, 1X: it
splits the three sent states and the virtual states that define phase
errors, and pairs each Z state with each X state for the quantum coin.

All kets are real, so Bloch vectors live in the x-z plane and py is omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateStateError

THETA_MODES = ("independent", "dependent")


@dataclass(frozen=True)
class DeviceModel:
    """Imperfection parameters of the transmitter.

    delta: encoding-phase deviation in radians, in [0, pi).
    theta_hat: polarization-rotation magnitude in radians, in [0, pi/2).
    theta_mode: "dependent" scales the rotation with the encoded phase,
        "independent" applies the same rotation to every setting.
    mu: mean photon number of the back-reflected probe light, finite and
        >= 0.
    """

    delta: float = 0.0
    theta_hat: float = 0.0
    theta_mode: str = "dependent"
    mu: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.delta < math.pi:
            raise ValueError(f"delta must lie in [0, pi), got {self.delta}")
        if not 0.0 <= self.theta_hat < math.pi / 2:
            raise ValueError(f"theta_hat must lie in [0, pi/2), got {self.theta_hat}")
        if self.theta_mode not in THETA_MODES:
            raise ValueError(
                f"theta_mode must be one of {THETA_MODES}, got {self.theta_mode!r}"
            )
        if not self.mu >= 0.0:
            raise ValueError(f"mu must be nonnegative, got {self.mu}")
        if not self.mu < math.inf:
            raise ValueError(f"mu must be finite, got {self.mu}")


def _ket(index: int, delta: float) -> tuple[float, float]:
    # Amplitudes of setting index (0Z, 1Z, 0X, 1X) in the Z eigenbasis.  The
    # Z states sit near the poles, the X states near the equator; delta
    # tilts every state except 0Z, the phase reference.
    if index == 0:
        return 1.0, 0.0
    if index == 1:
        return -math.sin(delta / 2), math.cos(delta / 2)
    a = math.pi / 4 + delta / 4 if index == 2 else 3 * math.pi / 4 + 3 * delta / 4
    return math.cos(a), math.sin(a)


def _bloch(c0: float, c1: float) -> tuple[float, float]:
    return 2.0 * c0 * c1, c0 * c0 - c1 * c1


# Dependent-mode rotation per unit theta_hat of 0Z, 1Z, 0X and 1X.
_DEPENDENT_ROTATION = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


def _mode_angle(index: int, device: DeviceModel) -> float:
    if device.theta_mode == "independent":
        return device.theta_hat
    return _DEPENDENT_ROTATION[index] * device.theta_hat


def tha_coefficients(mu: float) -> tuple[float, float]:
    """Amplitudes (C_I, C_D) of the leakage-free and leaked components.

    C_I^2 + C_D^2 = 1; mu = 0 gives (1, 0).
    """
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if not mu < math.inf:
        raise ValueError(f"mu must be finite, got {mu}")
    c_i = math.exp(-mu / 2)
    c_d = math.sqrt(max(1.0 - math.exp(-mu), 0.0))
    return c_i, c_d


def _lambda_bounds(side_weight: float, cross_mag: float) -> tuple[float, float]:
    # Extreme eigenvalues of [[side_weight, cross_mag], [cross_mag, 0]],
    # the worst-case detection contribution of the non-qubit part.
    root = math.sqrt(side_weight * side_weight + 4.0 * cross_mag * cross_mag)
    return (side_weight + root) / 2.0, (side_weight - root) / 2.0


class SourceTerms(NamedTuple):
    """The splits and overlaps of m devices' states, with a leading device
    axis: sent (m, 3, 7) for the sent states 0Z, 1Z and 0X, virtual
    (m, 2, 7) for the virtual states of bits j = 0 and 1, and overlaps
    (m, 4).  A split holds the weights of the qubit part and of the rest,
    the magnitude of their cross term, the bounds lambda_max and lambda_min
    on the non-qubit contribution to any detection probability, and the
    Bloch components px, pz of the normalized qubit part.  degenerate holds
    each device's DegenerateStateError or None; a degenerate device's
    virtual splits are zeros."""

    sent: np.ndarray
    virtual: np.ndarray
    overlaps: np.ndarray
    degenerate: tuple[DegenerateStateError | None, ...]


def source_terms(devices: Sequence[DeviceModel]) -> SourceTerms:
    """Split every device's states in one pass.

    A sent state's qubit weight is C_I^2 cos^2(theta) for the setting's
    rotation theta; the rest (rotated polarization, leaked light) is side
    channel, with worst-case mutually orthogonal side states.  The virtual
    state of bit j is the component of the Z-basis source state after
    Alice measures her ancilla along X; the qubit weights A_0 + A_1 and
    side weights C_0 + C_1 sum to 1.  The overlaps pair (0Z, 0X), (0Z, 1X),
    (1Z, 0X) and (1Z, 1X); cross-polarization terms and distinct worst-case
    leakage states contribute nothing to them, so only the co-polarized
    leakage-free component survives."""
    sent, virtual, overlaps, degenerate = [], [], [], []
    for device in devices:
        c_i, c_d = tha_coefficients(device.mu)
        a0, a1, a2, a3 = [_mode_angle(i, device) for i in range(4)]
        cos, delta = (math.cos(a0), math.cos(a1), math.cos(a2), math.cos(a3)), device.delta
        kets = (_ket(0, delta), _ket(1, delta), _ket(2, delta), _ket(3, delta))
        rows = []
        for index in range(3):
            qubit_weight = (c_i * cos[index]) ** 2
            side_weight = 1.0 - qubit_weight
            cross_mag = math.sqrt(max(qubit_weight * side_weight, 0.0))
            lam_max, lam_min = _lambda_bounds(side_weight, cross_mag)
            px, pz = _bloch(*kets[index])
            rows.append((qubit_weight, side_weight, cross_mag, lam_max, lam_min, px, pz))
        sent.append(rows)
        overlaps.append([
            cos[z] * cos[x] * c_i * c_i * (kets[z][0] * kets[x][0] + kets[z][1] * kets[x][1])
            for z in (0, 1) for x in (2, 3)
        ])

        cos_t0, cos_t1, sin_t0, sin_t1 = cos[0], cos[1], math.sin(a0), math.sin(a1)
        s_half, c_half = math.sin(delta / 2), math.cos(delta / 2)
        error, bits = None, [None, None]
        # j = 1 first: when both virtual states vanish, its failure is reported.
        for j in (1, 0):
            sgn = 1.0 if j == 0 else -1.0
            a_j = 0.25 * c_i * c_i * (
                cos_t0 ** 2
                - sgn * 2.0 * cos_t0 * cos_t1 * s_half
                + cos_t1 ** 2
            )
            c_j = 0.25 * (
                c_i * c_i * (
                    sin_t0 ** 2
                    - sgn * 2.0 * sin_t0 * sin_t1 * s_half
                    + sin_t1 ** 2
                )
                + 2.0 * c_d * c_d
            )
            if a_j <= 1e-300:
                error = DegenerateStateError(
                    f"virtual state j={j} has no qubit component (A_j = {a_j})"
                )
                break
            b_j = math.sqrt(a_j * c_j)
            lam_max, lam_min = _lambda_bounds(c_j, b_j)
            # Bloch vector of the normalized qubit part.  The z component
            # is negated relative to the raw ket so the virtual states are
            # expressed on the measurement axis realized by the receiver
            # model; without the flip the phase error keeps a spurious
            # O(delta^2) floor on a lossless channel.
            denom = 4.0 * a_j / (c_i * c_i)
            px = (
                sgn * 2.0 * cos_t0 * cos_t1 * c_half
                - 2.0 * cos_t1 ** 2 * c_half * s_half
            ) / denom
            pz = (
                cos_t1 ** 2 * math.cos(delta)
                + sgn * 2.0 * cos_t0 * cos_t1 * s_half
                - cos_t0 ** 2
            ) / denom
            bits[j] = (a_j, c_j, b_j, lam_max, lam_min, px, pz)
        virtual.append(bits if error is None else ((0.0,) * 7,) * 2)
        degenerate.append(error)
    return SourceTerms(np.array(sent), np.array(virtual), np.array(overlaps), tuple(degenerate))
