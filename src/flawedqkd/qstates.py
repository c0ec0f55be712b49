"""Source states of a flawed and leaky transmitter.

The transmitter tries to emit one of four qubit states (two per basis) but
suffers three imperfections:

* an encoding-phase deviation ``delta`` that tilts the qubit states,
* a setting-dependent polarization rotation of magnitude ``theta_hat`` that
  puts amplitude into a second optical mode,
* back-reflected probe light of intensity ``mu`` that tags each pulse with a
  setting-dependent side-channel state.

``DeviceModel`` holds one transmitter's validated parameters, and
``source_terms`` characterizes the emitted states of many, one flat row per
device in Python floats: it splits the three sent states (settings 0Z, 1Z,
0X, 1X) and the virtual states that define phase errors into a qubit part
plus an orthogonal rest, and pairs each Z state with each X state for the
quantum coin; ``grid.prepare`` derives the receiver's terms and Delta.  A
row's delta-independent terms are computed once per (theta_hat, dependent,
mu) in a dict its caller owns, such as one crossover search's.

All kets are real, so Bloch vectors live in the x-z plane and py is omitted.
"""

from __future__ import annotations

import math
from math import cos, sin, sqrt
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .channel import FLOAT_LIMIT, check
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
        check(delta=self.delta, theta_hat=self.theta_hat)
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"theta_mode must be one of {THETA_MODES}, got {self.theta_mode!r}")
        check(mu=self.mu)

    def __iter__(self) -> Iterator:
        # A device unpacks to the parameter tuple that source_terms takes.
        return iter((self.delta, self.theta_hat, self.theta_mode == "dependent", self.mu))


# Dependent-mode rotation per unit theta_hat of 0Z, 1Z, 0X and 1X; the
# independent mode rotates each setting by theta_hat itself.
_DEPENDENT_ROTATION = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


def tha_coefficients(mu: float) -> tuple[float, float]:
    """Amplitudes (C_I, C_D) of the leakage-free and leaked components.

    C_I^2 + C_D^2 = 1; mu = 0 gives (1, 0).  A mu outside its domain in
    ``channel.DOMAINS`` (negative, nan or not finite) is a ValueError.
    """
    if not 0.0 <= mu < FLOAT_LIMIT:
        check(mu=mu)
    c_i = math.exp(-mu / 2)
    c_d = math.sqrt(max(1.0 - math.exp(-mu), 0.0))
    return c_i, c_d


def _fixed_terms(theta_hat: float, dependent: bool, mu: float) -> tuple:
    # A device's terms that do not depend on delta, in their formulas'
    # operand order: the sent splits' weights and lambda bounds, rotation
    # squares, leak weights and theta-only heads of _delta_row's products.
    if not 0.0 <= theta_hat < math.pi / 2:
        check(theta_hat=theta_hat)
    c_i, c_d = tha_coefficients(mu)
    r_0, r_1, r_2, r_3 = _DEPENDENT_ROTATION if dependent else (1.0, 1.0, 1.0, 1.0)
    t_0, t_1 = r_0 * theta_hat, r_1 * theta_hat
    cos_0, cos_1, cos_2, cos_3 = cos(t_0), cos(t_1), cos(r_2 * theta_hat), cos(r_3 * theta_hat)
    sin_0, sin_1 = sin(t_0), sin(t_1)
    splits = []
    # Sent states 0Z, 1Z and 0X, of qubit amplitude C_I cos(theta).
    # lambda_max and lambda_min, the extreme eigenvalues of [[side, cross],
    # [cross, 0]], bound the non-qubit part's detection contribution.
    for amplitude in (c_i * cos_0, c_i * cos_1, c_i * cos_2):
        qubit_weight = amplitude ** 2
        side_weight = 1.0 - qubit_weight
        cross_mag = sqrt(max(qubit_weight * side_weight, 0.0))
        root = sqrt(side_weight * side_weight + 4.0 * cross_mag * cross_mag)
        splits.append((qubit_weight, side_weight, cross_mag, (side_weight + root) / 2.0,
                       (side_weight - root) / 2.0))
    cos1_sq = cos_1 ** 2
    return (*splits, cos_0 ** 2, cos1_sq, sin_0 ** 2, sin_1 ** 2, 2.0 * cos_0 * cos_1,
            2.0 * sin_0 * sin_1, 2.0 * cos1_sq, c_i * c_i, 0.25 * c_i * c_i, 2.0 * c_d * c_d,
            cos_0 * cos_2 * c_i * c_i, cos_0 * cos_3 * c_i * c_i, cos_1 * cos_2 * c_i * c_i,
            cos_1 * cos_3 * c_i * c_i)


def _delta_row(delta: float, fixed: tuple) -> tuple:
    # One device's terms, flat, from its _fixed_terms: the sent splits of
    # 0Z, 1Z and 0X, the virtual splits of j = 0 and 1 (7 each) and the
    # overlaps; and its DegenerateStateError or None.  delta is in range.
    (split_0z, split_1z, split_0x, cos0_sq, cos1_sq, sin0_sq, sin1_sq, cos_pair, sin_pair,
     cos1_pair, cc, quarter, leak, ov_00, ov_01, ov_10, ov_11) = fixed
    # Kets of 0Z, 1Z, 0X and 1X in the Z eigenbasis: (1, 0), (z_0, c_half),
    # (x_0, x_1) and (y_0, y_1).  The Z states sit near the poles, the X
    # states near the equator; delta tilts every state but 0Z.  A split
    # ends in the Bloch components 2 k_0 k_1 and k_0^2 - k_1^2 of its ket.
    s_half, c_half = sin(delta / 2), cos(delta / 2)
    a_0x, a_1x = math.pi / 4 + delta / 4, 3 * math.pi / 4 + 3 * delta / 4
    x_0, x_1, y_0, y_1 = cos(a_0x), sin(a_0x), cos(a_1x), sin(a_1x)
    cos_delta, z_0 = cos(delta), -s_half
    sent = (*split_0z, 0.0, 1.0, *split_1z, 2.0 * z_0 * c_half, z_0 * z_0 - c_half * c_half,
            *split_0x, 2.0 * x_0 * x_1, x_0 * x_0 - x_1 * x_1)
    cos_cross, sin_cross = cos_pair * s_half, sin_pair * s_half
    px_cross, px_rest = cos_pair * c_half, cos1_pair * c_half * s_half
    error, bits = None, ()
    # j = 1 first: when both virtual states vanish, its failure is reported.
    for j, sgn in ((1, -1.0), (0, 1.0)):
        a_j = quarter * (cos0_sq - sgn * cos_cross + cos1_sq)
        c_j = 0.25 * (cc * (sin0_sq - sgn * sin_cross + sin1_sq) + leak)
        if a_j <= 1e-300:
            error = DegenerateStateError(
                f"virtual state j={j} has no qubit component (A_j = {a_j})")
            bits = (0.0,) * 14
            break
        b_j = sqrt(a_j * c_j)
        root = sqrt(c_j * c_j + 4.0 * b_j * b_j)
        # Bloch vector of the normalized qubit part.  The z component is
        # negated relative to the raw ket so the virtual states are
        # expressed on the measurement axis realized by the receiver model;
        # without the flip the phase error keeps a spurious O(delta^2) floor
        # on a lossless channel.
        denom = 4.0 * a_j / cc
        px = (sgn * px_cross - px_rest) / denom
        pz = (cos1_sq * cos_delta + sgn * cos_cross - cos0_sq) / denom
        bits = (a_j, c_j, b_j, (c_j + root) / 2.0, (c_j - root) / 2.0, px, pz) + bits

    overlaps = (ov_00 * x_0, ov_01 * y_0, ov_10 * (z_0 * x_0 + c_half * x_1),
                ov_11 * (z_0 * y_0 + c_half * y_1))
    return (*sent, *bits, *overlaps), error


class SourceTerms(NamedTuple):
    """The emitted states of m devices, with a leading device axis.

    sent (m, 3, 7) splits the sent states 0Z, 1Z and 0X, virtual (m, 2, 7)
    the virtual states of bits j = 0 and 1.  A split holds the weights of
    the qubit part and of the rest, the magnitude of their cross term, the
    bounds lambda_max and lambda_min on the non-qubit contribution to any
    detection probability, and the Bloch components px, pz of the
    normalized qubit part.  overlaps (m, 4) pairs (0Z, 0X), (0Z, 1X),
    (1Z, 0X), (1Z, 1X).  degenerate holds each device's DegenerateStateError
    or None; a degenerate device's virtual splits are zeros."""

    sent: np.ndarray
    virtual: np.ndarray
    overlaps: np.ndarray
    degenerate: tuple[DegenerateStateError | None, ...]


def source_terms(
    devices: Sequence[tuple[float, float, bool, float]], fixed: dict | None = None
) -> SourceTerms:
    """Every device's source terms from one pass over the devices.

    devices holds parameter tuples (delta, theta_hat, dependent, mu), as a
    ``DeviceModel`` unpacks, with dependent true in the dependent theta
    mode; out-of-range values raise ValueError, and each device's delta is
    checked once, before its other parameters.  A sent state's qubit weight is
    C_I^2 cos^2(theta) for the setting's rotation theta; the rest (rotated
    polarization, leaked light) is side channel, with worst-case mutually
    orthogonal side states.  The virtual state of bit j is the component of
    the Z-basis source state after Alice measures her ancilla along X; the
    qubit weights A_0 + A_1 and side weights C_0 + C_1 sum to 1.
    Cross-polarization terms and distinct worst-case leakage states
    contribute nothing to the overlaps, so only the co-polarized
    leakage-free component survives.  Each device's row is computed with
    Python's ``math`` on Python floats, each shared square or product once,
    so its values do not depend on the batch or on fixed; numpy's exp and
    squares differ from these in the last bit for some inputs.  The leak
    amplitudes, rotation terms and sent-state weights, which depend on
    (theta_hat, dependent, mu) alone, are computed once per such tuple into
    fixed, a dict the caller owns and may pass to several calls (None: a
    fresh one for this call)."""
    fixed = {} if fixed is None else fixed
    values, degenerate = [], []
    for delta, theta_hat, dependent, mu in devices:
        if not 0.0 <= delta < math.pi:
            check(delta=delta)  # delta is named first, as for a DeviceModel
        key = theta_hat, dependent, mu
        terms = fixed.get(key)
        if terms is None:
            terms = fixed[key] = _fixed_terms(theta_hat, dependent, mu)
        row, error = _delta_row(delta, terms)
        values += row
        degenerate.append(error)
    table = np.fromiter(values, float, len(values)).reshape(-1, 39)
    return SourceTerms(table[:, :21].reshape(-1, 3, 7), table[:, 21:35].reshape(-1, 2, 7),
                       table[:, 35:], tuple(degenerate))
