"""Source states of a flawed and leaky transmitter.

The transmitter tries to emit one of four qubit states (two per basis) but
suffers three imperfections:

* an encoding-phase deviation ``delta`` that tilts the qubit states,
* a setting-dependent polarization rotation of magnitude ``theta_hat`` that
  puts amplitude into a second optical mode,
* back-reflected probe light of intensity ``mu`` that tags each pulse with a
  setting-dependent side-channel state.

Every emitted state is split into a qubit part plus an orthogonal rest.  The
decomposition carries the weights of the two parts, the magnitude of their
cross term, the eigenvalue bounds of the non-qubit contribution to any
detection probability, and the Bloch vector of the qubit part.  The same
container describes both the actually sent states and the virtual states
that define phase errors.

All kets are real, so Bloch vectors live in the x-z plane and py is omitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DegenerateStateError

VALID_BASES = ("Z", "X")
THETA_MODES = ("independent", "dependent")


@dataclass(frozen=True)
class Setting:
    """One of Alice's encoding choices: a bit and a basis."""

    bit: int
    basis: str

    def __post_init__(self) -> None:
        if self.bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {self.bit!r}")
        if self.basis not in VALID_BASES:
            raise ValueError(f"basis must be one of {VALID_BASES}, got {self.basis!r}")

    def label(self) -> str:
        return f"{self.bit}{self.basis}"

    @property
    def index(self) -> int:
        """Position in FOUR_SETTINGS: 0Z, 1Z, 0X, 1X."""
        return self.bit + (2 if self.basis == "X" else 0)


SETTING_0Z = Setting(0, "Z")
SETTING_1Z = Setting(1, "Z")
SETTING_0X = Setting(0, "X")
SETTING_1X = Setting(1, "X")

# The key-generation protocol sends three states; the quantum-coin analysis
# adds the fourth.
THREE_SETTINGS = (SETTING_0Z, SETTING_1Z, SETTING_0X)
FOUR_SETTINGS = (SETTING_0Z, SETTING_1Z, SETTING_0X, SETTING_1X)


@dataclass(frozen=True)
class DeviceModel:
    """Imperfection parameters of the transmitter.

    delta: encoding-phase deviation in radians, in [0, pi).
    theta_hat: polarization-rotation magnitude in radians, in [0, pi/2).
    theta_mode: "dependent" scales the rotation with the encoded phase,
        "independent" applies the same rotation to every setting.
    mu: mean photon number of the back-reflected probe light, >= 0.
    """

    delta: float = 0.0
    theta_hat: float = 0.0
    theta_mode: str = "dependent"
    mu: float = 0.0
    _source: _Source = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_source", _source(self))


class _Source(NamedTuple):
    """The leakage amplitudes C_I and C_D, the cosine of each setting's
    mode angle, the sine of the 0Z and 1Z ones, and each setting's ket, in
    FOUR_SETTINGS order."""

    c_i: float
    c_d: float
    cos: tuple[float, float, float, float]
    sin: tuple[float, float]
    kets: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class QubitKet:
    """Real amplitudes of a pure qubit state in the Z eigenbasis."""

    c0: float
    c1: float

    def norm_sq(self) -> float:
        return self.c0 * self.c0 + self.c1 * self.c1


@dataclass(frozen=True)
class BlochVector:
    """x and z Bloch components of a real-amplitude qubit state."""

    px: float
    pz: float


@dataclass(frozen=True)
class StateDecomposition:
    """Qubit/side-channel split of one emitted or virtual state.

    qubit_weight and side_weight are the squared amplitudes of the qubit
    part and of everything orthogonal to it; cross_mag is the magnitude of
    their interference term.  lambda_min and lambda_max bound the non-qubit
    contribution to any detection probability, and bloch is the Bloch
    vector of the normalized qubit part.
    """

    qubit_weight: float
    side_weight: float
    cross_mag: float
    lambda_max: float
    lambda_min: float
    bloch: BlochVector


def _ket(index: int, delta: float) -> tuple[float, float]:
    # Amplitudes of the setting at FOUR_SETTINGS[index].
    if index == 0:
        return 1.0, 0.0
    if index == 1:
        return -math.sin(delta / 2), math.cos(delta / 2)
    a = math.pi / 4 + delta / 4 if index == 2 else 3 * math.pi / 4 + 3 * delta / 4
    return math.cos(a), math.sin(a)


def qubit_state(setting: Setting, delta: float) -> QubitKet:
    """Amplitudes of the intended-but-tilted qubit state for one setting.

    The Z states sit near the poles, the X states near the equator; delta
    tilts every state except 0Z, which is used as the phase reference.
    """
    return QubitKet(*_ket(setting.index, delta))


def _bloch(c0: float, c1: float) -> tuple[float, float]:
    return 2.0 * c0 * c1, c0 * c0 - c1 * c1


def bloch_vector(ket: QubitKet) -> BlochVector:
    """Bloch components (px, pz) of a normalized real ket."""
    if abs(ket.norm_sq() - 1.0) > 1e-9:
        raise ValueError(f"ket is not normalized: |c|^2 = {ket.norm_sq()}")
    return BlochVector(*_bloch(ket.c0, ket.c1))


# Dependent-mode rotation per unit theta_hat, in FOUR_SETTINGS order.
_DEPENDENT_ROTATION = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)


def _mode_angle(index: int, device: DeviceModel) -> float:
    if device.theta_mode == "independent":
        return device.theta_hat
    return _DEPENDENT_ROTATION[index] * device.theta_hat


def mode_angles(device: DeviceModel) -> dict[Setting, float]:
    """Polarization rotation angle applied to each setting.

    In dependent mode the rotation grows with the encoded phase (0 for 0Z,
    pi*theta_hat for 1Z, pi/2*theta_hat for 0X, 3pi/2*theta_hat for 1X); in
    independent mode every setting is rotated by theta_hat.
    """
    return {s: _mode_angle(i, device) for i, s in enumerate(FOUR_SETTINGS)}


def tha_coefficients(mu: float) -> tuple[float, float]:
    """Amplitudes (C_I, C_D) of the leakage-free and leaked components.

    C_I^2 + C_D^2 = 1; mu = 0 gives (1, 0).
    """
    if mu < 0.0:
        raise ValueError(f"mu must be nonnegative, got {mu}")
    c_i = math.exp(-mu / 2)
    c_d = math.sqrt(max(1.0 - math.exp(-mu), 0.0))
    return c_i, c_d


def _source(device: DeviceModel) -> _Source:
    # What every decomposition of the device shares, computed once with the
    # operands of _ket, _mode_angle and tha_coefficients.
    c_i, c_d = tha_coefficients(device.mu)
    a0, a1, a2, a3 = [_mode_angle(i, device) for i in range(4)]
    cos, delta = math.cos, device.delta
    kets = (_ket(0, delta), _ket(1, delta), _ket(2, delta), _ket(3, delta))
    return _Source(c_i, c_d, (cos(a0), cos(a1), cos(a2), cos(a3)), (math.sin(a0), math.sin(a1)),
                   kets)


def _lambda_bounds(side_weight: float, cross_mag: float) -> tuple[float, float]:
    # Extreme eigenvalues of [[side_weight, cross_mag], [cross_mag, 0]],
    # the worst-case detection contribution of the non-qubit part.
    root = math.sqrt(side_weight * side_weight + 4.0 * cross_mag * cross_mag)
    return (side_weight + root) / 2.0, (side_weight - root) / 2.0


# A decomposition as a plain tuple: qubit_weight, side_weight, cross_mag,
# lambda_max, lambda_min, then the Bloch components px, pz.
Terms = tuple[float, float, float, float, float, float, float]


def _sent_terms(index: int, source: _Source) -> Terms:
    qubit_weight = (source.c_i * source.cos[index]) ** 2
    side_weight = 1.0 - qubit_weight
    cross_mag = math.sqrt(max(qubit_weight * side_weight, 0.0))
    lam_max, lam_min = _lambda_bounds(side_weight, cross_mag)
    px, pz = _bloch(*source.kets[index])
    return qubit_weight, side_weight, cross_mag, lam_max, lam_min, px, pz


def sent_terms(device: DeviceModel) -> list[Terms]:
    """The decompositions of the three sent states, in THREE_SETTINGS
    order, as tuples in StateDecomposition's field order."""
    source = device._source
    return [_sent_terms(index, source) for index in range(3)]


def _decomposition(terms: Terms) -> StateDecomposition:
    *split, px, pz = terms
    return StateDecomposition(*split, bloch=BlochVector(px, pz))


def actual_decomposition(setting: Setting, device: DeviceModel) -> StateDecomposition:
    """Decompose one actually emitted state.

    The qubit weight is C_I^2 cos^2(theta) for the setting's rotation angle
    theta; everything else (rotated polarization, leaked light) counts as
    side channel, with worst-case mutually orthogonal side states.
    """
    return _decomposition(_sent_terms(setting.index, device._source))


def virtual_terms(j: int, device: DeviceModel) -> Terms:
    """virtual_decomposition(j, device) as a tuple in its field order."""
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    c_i, c_d, (cos_t0, cos_t1, _, _), (sin_t0, sin_t1), kets = device._source
    sgn = 1.0 if j == 0 else -1.0
    # The 1Z ket is (-sin(delta/2), cos(delta/2)).
    s_half, c_half = -kets[1][0], kets[1][1]

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
        raise DegenerateStateError(
            f"virtual state j={j} has no qubit component (A_j = {a_j})"
        )
    b_j = math.sqrt(a_j * c_j)
    lam_max, lam_min = _lambda_bounds(c_j, b_j)

    # Bloch vector of the normalized qubit part.  The z component is negated
    # relative to the raw ket so the virtual states are expressed on the
    # measurement axis realized by the receiver model; without the flip the
    # phase error keeps a spurious O(delta^2) floor on a lossless channel.
    denom = 4.0 * a_j / (c_i * c_i)
    px = (
        sgn * 2.0 * cos_t0 * cos_t1 * c_half
        - 2.0 * cos_t1 ** 2 * c_half * s_half
    ) / denom
    pz = (
        cos_t1 ** 2 * math.cos(device.delta)
        + sgn * 2.0 * cos_t0 * cos_t1 * s_half
        - cos_t0 ** 2
    ) / denom
    return a_j, c_j, b_j, lam_max, lam_min, px, pz


def virtual_decomposition(j: int, device: DeviceModel) -> StateDecomposition:
    """Decompose the unnormalized virtual state for phase-error bit j.

    The virtual states are the (un-normalized) components of the Z-basis
    source state after Alice measures her ancilla along X.  Their qubit
    weights A_0 + A_1 plus side weights C_0 + C_1 sum to 1.
    """
    return _decomposition(virtual_terms(j, device))


def _overlap(index1: int, index2: int, source: _Source) -> float:
    k1, k2 = source.kets[index1], source.kets[index2]
    qubit_ov = k1[0] * k2[0] + k1[1] * k2[1]
    return source.cos[index1] * source.cos[index2] * source.c_i * source.c_i * qubit_ov


def full_overlap(s1: Setting, s2: Setting, device: DeviceModel) -> float:
    """Inner product of two full emitted states (qubit plus side channels).

    Cross-polarization terms and distinct worst-case leakage states
    contribute nothing, so only the co-polarized leakage-free component
    survives.
    """
    return _overlap(s1.index, s2.index, device._source)


def cross_basis_overlaps(device: DeviceModel) -> tuple[float, float, float, float]:
    """full_overlap of (0Z, 0X), (0Z, 1X), (1Z, 0X) and (1Z, 1X)."""
    source = device._source
    return tuple(_overlap(z, x, source) for z in (0, 1) for x in (2, 3))
