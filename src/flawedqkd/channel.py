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
import sys
from dataclasses import dataclass
from math import log2

import numpy as np

# The least int that float() cannot represent: a number, int or float, is
# finite as a float exactly when -FLOAT_LIMIT < x < FLOAT_LIMIT.
FLOAT_LIMIT = 2**1024 - 2**970

_FINITE = (lambda x: -FLOAT_LIMIT < x < FLOAT_LIMIT, "must be finite")
_NONNEGATIVE = (lambda x: x >= 0.0, "must be nonnegative")
_FINITE_NONNEGATIVE = (lambda x: 0.0 <= x < FLOAT_LIMIT, "must be finite and >= 0")
_OPEN_UNIT = (lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")

# Every parameter's domain: its rules in the order they are checked, each a
# predicate and the wording of its error.  A nan breaks each first rule.
DOMAINS = {
    "delta": ((lambda x: 0.0 <= x < math.pi, "must lie in [0, pi)"),),
    "theta_hat": ((lambda x: 0.0 <= x < math.pi / 2, "must lie in [0, pi/2)"),),
    "mu": (_NONNEGATIVE, _FINITE),
    # Infinite loss stays valid: it is the eta = 0 limit.
    "loss_db": (_NONNEGATIVE, (lambda x: not FLOAT_LIMIT <= x < math.inf, "must be finite or inf")),
    "eta": ((lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]"),),
    "p_d": ((lambda x: 0.0 <= x < 1.0, "must lie in [0, 1)"),),
    "f_ec": ((lambda x: 1.0 <= x < FLOAT_LIMIT, "must be finite and >= 1"),),
    "p_za": (_OPEN_UNIT,),
    "p_zb": (_OPEN_UNIT,),
    "loss_start": (_FINITE, _NONNEGATIVE),
    "loss_stop": (_FINITE,),
    "loss_step": (_FINITE, (lambda x: x > 0.0, "must be positive")),
    "jobs": ((lambda x: x >= 1, "must be >= 1"),),
    "compare_loss_db": (_FINITE_NONNEGATIVE,),
    "bisection_tolerance": ((lambda x: 0.0 < x < FLOAT_LIMIT, "must be finite and > 0"),),
    # The rate command's loss, named as its user gives it.
    "--loss (or 'loss' in the config file)": (_FINITE_NONNEGATIVE,),
}


def check(**values: float) -> None:
    """Raise a ValueError naming the first value that breaks its DOMAINS
    rules; a value that cannot be compared, a string or None, breaks the
    first."""
    for name, value in values.items():
        for valid, wording in DOMAINS[name]:
            try:
                ok = valid(value)
            except TypeError:
                raise ValueError(f"{name} {wording}, got {value!r}") from None
            if not ok:
                raise ValueError(f"{name} {wording}, got {value}")


@dataclass(frozen=True)
class ChannelModel:
    """Overall system loss in dB, dark-count probability per detector per
    gate, and error-correction inefficiency."""

    loss_db: float
    p_d: float = 1e-7
    f_ec: float = 1.16

    def __post_init__(self) -> None:
        check(loss_db=self.loss_db, p_d=self.p_d, f_ec=self.f_ec)


@dataclass(frozen=True)
class ProtocolProbabilities:
    """Basis selection probabilities for Alice and Bob.

    Alice splits her Z probability evenly between the two Z bits and sends
    only 0X in the X basis.
    """

    p_za: float = 0.5
    p_zb: float = 0.5

    def __post_init__(self) -> None:
        check(p_za=self.p_za, p_zb=self.p_zb)
        # The rate carries p_za p_zb, and below the least normal float
        # it keeps too few bits.
        factor = self.p_za * self.p_zb
        if factor < sys.float_info.min:
            raise ValueError(f"the rate factor p_za * p_zb must be at least {sys.float_info.min},"
                             f" got {factor} from p_za={self.p_za} and p_zb={self.p_zb}")

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


def efficiency(loss_db: float) -> float:
    """Transmittance eta = 10^(-loss_db/10) of a loss in dB."""
    return 10.0 ** (-loss_db / 10.0)


def system_efficiency(channel: ChannelModel) -> float:
    """Transmittance eta = 10^(-loss_db/10)."""
    return efficiency(channel.loss_db)


# Yield rows, as (sent pulse, Bob's basis): 0Z X, 0Z Z, 1Z X, 1Z Z, 0X X.
# The X-basis rows, one per sent setting in the order 0Z, 1Z, 0X, and the
# Z-basis rows on the two Z pulses.
X_ROWS = slice(0, 5, 2)
Z_ROWS = slice(1, 4, 2)


def yield_alignments(delta: float) -> tuple[float, float, float, float, float]:
    """Bloch alignment c of each yield row's pulse with the measured axis."""
    cos_delta = math.cos(delta)
    return (
        math.sin(delta / 2), cos_delta, -math.sin(3 * delta / 2), -math.cos(2 * delta), cos_delta
    )


# eta over these gives the eta/4 and eta/8 shares of the two outcomes.
_SHARE_DIVISORS = np.array([[4.0], [8.0]])


def detector_yields(c: np.ndarray, eta, p_d: float) -> np.ndarray:
    """Probabilities of Bob's two outcomes for each yield row, given its
    sent pulse and Bob's basis.

    c of shape (m, 5) holds each device's Bloch alignment of each row with
    the measured axis; eta is a float or an array of shape (n,), where m
    is 1 or n.  The result has shape (m, 2, 5) or (n, 2, 5), with the
    outcome (0, then 1) before the row.  First order in p_d, double clicks
    split evenly.
    """
    eta = np.asarray(eta, dtype=float)[..., None, None]
    c = c[:, None, :]
    dark = (1.0 - eta / 2.0) * p_d
    share = eta / _SHARE_DIVISORS
    weight = np.array([[1.0 - p_d / 2.0], [p_d]])
    # The aligned outcome clicks with eta/4 (1 + c), the other one with
    # eta/8 (1 + c) from the double clicks; likewise for 1 - c.
    aligned = share * (1.0 + c) * weight
    opposed = share[..., ::-1, :] * (1.0 - c) * weight[::-1]
    return dark + aligned + opposed


def detection_probability(eta, p_d):
    """Probability of a detection given any fixed basis pair, for a
    transmittance eta (a float or an array).

    The symmetric channel makes this the same for both bases.
    """
    return 4.0 * (1.0 - eta / 2.0) * p_d + eta


def bit_errors(eta, p_d, tilt):
    """Probability of a Z-basis bit error given a Z-basis pair, for a
    transmittance eta (a float or an array); e_Z is this over
    detection_probability."""
    return 2.0 * (1.0 - eta / 2.0) * p_d + eta / 2.0 + (eta / 4.0) * tilt * (p_d - 1.0)


def z_basis_yield(channel: ChannelModel, probs: ProtocolProbabilities) -> float:
    """Probability that a pulse ends up in the sifted Z key."""
    return probs.p_za * probs.p_zb * detection_probability(
        efficiency(channel.loss_db), channel.p_d
    )


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit with bias x, in bits."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy needs x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def clamped_entropies(xs: list[float], failures: list) -> list[float]:
    """binary_entropy(min(x, 1/2)) of each x, bit for bit, and 0.0 where
    failures holds a true value (a failed point).

    One pass with binary_entropy's formula inline: math.log2 sees only
    arguments in (0, 1/2), a clamped argument gives h(1/2) = 1.0 exactly,
    and a nan or negative x at a live point raises binary_entropy's error.
    """
    return [
        0.0 if failed or x == 0.0
        else -x * log2(x) - (1.0 - x) * log2(1.0 - x) if 0.0 < x < 0.5
        else 1.0 if x >= 0.5
        else binary_entropy(x)
        for x, failed in zip(xs, failures)
    ]
