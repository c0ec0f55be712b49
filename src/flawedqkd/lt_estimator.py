"""Loss-tolerant phase-error estimation generalized to leaky sources.

The estimator writes each observed X-basis yield as a linear functional of
three transmission rates (q_Id, q_x, q_z) plus a bounded non-qubit term,
inverts the resulting 3x3 system, and maximizes the virtual phase-error
yields over the allowed transmission-rate region.  Two solvers provide that
region:

* ``paper_faithful`` propagates the per-setting eigenvalue interval through
  the inverse sign-by-sign, giving a closed-form box checked for physicality.
* ``vertex_lp`` intersects the same interval constraints with physicality
  boxes and enumerates the polytope's vertices exactly.

With no side channels both collapse to the unique linear-system solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .channel import (
    ChannelModel,
    ProtocolProbabilities,
    YieldTable,
    actual_yields,
    binary_entropy,
    bit_error_rate,
    system_efficiency,
    z_basis_yield,
)
from .errors import InfeasibleStatisticsError, NoDetectionError, SingularSystemError
from .qstates import (
    SETTING_0X,
    SETTING_1X,
    THREE_SETTINGS,
    DeviceModel,
    actual_decomposition,
    virtual_decomposition,
)

PAPER_FAITHFUL = "paper_faithful"
VERTEX_LP = "vertex_lp"
SOLVER_MODES = (PAPER_FAITHFUL, VERTEX_LP)

_DET_TOL = 1e-12
_FEAS_TOL = 1e-9
_INFEASIBLE = "no physical transmission rates are consistent with the yields"

# All 3-subsets of the 16 halfspaces, fixed once; the polytope never has
# more facets than that.
_TRIPLES = np.array(list(itertools.combinations(range(16), 3)), dtype=np.intp)

# Physicality rows a . q <= b: q_Id in [0, 1], then, for q_x and q_z with
# either sign, |q_axis| <= q_Id and |q_axis| <= 1 - q_Id.
_PHYSICAL_A = np.array([(1, 0, 0), (-1, 0, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0), (1, -1, 0),
                        (-1, 0, 1), (1, 0, 1), (-1, 0, -1), (1, 0, -1)], dtype=float)
_PHYSICAL_B = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


@dataclass(frozen=True)
class TransmissionRateBounds:
    """Componentwise bounds on (q_Id, q_x, q_z) for one Bob outcome.

    In vertex_lp mode the witness fields hold, for each coordinate, a
    feasible vertex attaining the bound; paper_faithful mode leaves them
    None because its box corners need not be feasible points.
    """

    lower: tuple[float, float, float]
    upper: tuple[float, float, float]
    witness_lower: tuple[tuple[float, float, float], ...] | None = None
    witness_upper: tuple[tuple[float, float, float], ...] | None = None


@dataclass(frozen=True)
class KeyRatePoint:
    """Per-loss record of the channel point and the resulting key rate."""

    loss_db: float
    eta: float
    e_z: float
    e_x: float
    rate_raw: float
    rate: float


def _sent_terms(device: DeviceModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # One decomposition of the three sent states gives the coefficient
    # matrix and the per-setting eigenvalue bounds lam_min, lam_max.
    decs = [actual_decomposition(setting, device) for setting in THREE_SETTINGS]
    mat = np.array(
        [(d.qubit_weight, d.qubit_weight * d.bloch.px, d.qubit_weight * d.bloch.pz) for d in decs]
    ).T
    if abs(np.linalg.det(mat)) < _DET_TOL:
        raise SingularSystemError(
            "the three encoding states are collinear; the yield system "
            "cannot be inverted"
        )
    return mat, np.array([d.lambda_min for d in decs]), np.array([d.lambda_max for d in decs])


def coefficient_matrix(device: DeviceModel) -> np.ndarray:
    """3x3 matrix whose k-th column is E_k * (1, px_k, pz_k) for the three
    sent settings.

    Inverting it converts normalized yields into transmission rates; it is
    singular exactly when the three states stop spanning a triangle on the
    Bloch sphere.
    """
    return _sent_terms(device)[0]


def normalized_yields(
    s: int, yields: YieldTable, probs: ProtocolProbabilities
) -> np.ndarray:
    """X-basis yields for outcome bit s, one per sent setting, divided by
    the probability of preparing that setting and of Bob choosing X."""
    if s not in (0, 1):
        raise ValueError(f"s must be 0 or 1, got {s}")
    outcome = (SETTING_0X, SETTING_1X)[s]
    return np.array(
        [
            yields.value(outcome, sent) / (probs.sent_probability(sent) * probs.p_xb)
            for sent in THREE_SETTINGS
        ]
    )


def _interval_box(
    ytil: np.ndarray, lam_min: np.ndarray, lam_max: np.ndarray, inv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # q_i = sum_k (ytil_k - lam_k) inv[k, i] with lam_k free in its
    # interval; extremize each coordinate by picking the interval end
    # matching the sign of inv[k, i].
    central = ytil @ inv
    up_choice = np.maximum(-lam_min[:, None] * inv, -lam_max[:, None] * inv)
    lo_choice = np.minimum(-lam_min[:, None] * inv, -lam_max[:, None] * inv)
    return central + lo_choice.sum(axis=0), central + up_choice.sum(axis=0)


def _require_physical(lower: np.ndarray, upper: np.ndarray) -> None:
    # The box meets the physical region when some q_Id in [lo_0, hi_0] and [0, 1]
    # has min(q_Id, 1 - q_Id) at least the smallest |q_x| and |q_z| in the box.
    reach = min(min(upper[0], 1.0), 1.0 - max(lower[0], 0.0), 0.5)
    need = max(lower[1], -upper[1], lower[2], -upper[2], 0.0)
    if reach < need - _FEAS_TOL:
        raise InfeasibleStatisticsError(_INFEASIBLE)


def _halfspaces(
    coef: np.ndarray, ytil: np.ndarray, lam_min: np.ndarray, lam_max: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Rows a with a . q <= b: (+v_k, -v_k) for each sent setting k, then
    # the constant physical rows.
    rows = np.stack((coef.T, -coef.T), axis=1).reshape(6, 3)
    rhs = np.stack((ytil - lam_min, lam_max - ytil), axis=1).reshape(6)
    return np.vstack((rows, _PHYSICAL_A)), np.concatenate((rhs, _PHYSICAL_B))


def _vertex_box(
    amat: np.ndarray, bvec: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    sub_a = amat[_TRIPLES]
    sub_b = bvec[_TRIPLES]
    # Singular triples are expected (parallel facets); the batched det can
    # warn on them, so the warning is silenced rather than each triple
    # filtered up front.
    with np.errstate(divide="ignore", invalid="ignore"):
        dets = np.linalg.det(sub_a)
    regular = np.abs(dets) > 1e-14
    verts = np.linalg.solve(sub_a[regular], sub_b[regular][:, :, None])[:, :, 0]
    feasible = np.all(amat @ verts.T <= bvec[:, None] + _FEAS_TOL, axis=0)
    verts = verts[feasible]
    if verts.shape[0] == 0:
        raise InfeasibleStatisticsError(_INFEASIBLE)
    lo_idx = np.argmin(verts, axis=0)
    hi_idx = np.argmax(verts, axis=0)
    return verts[lo_idx, np.arange(3)], verts[hi_idx, np.arange(3)], verts[lo_idx], verts[hi_idx]


def transmission_rate_bounds(
    s: int,
    yields: YieldTable,
    device: DeviceModel,
    probs: ProtocolProbabilities,
    mode: str = PAPER_FAITHFUL,
) -> TransmissionRateBounds:
    """Bound (q_Id, q_x, q_z) for Bob outcome s from the observed yields."""
    if mode not in SOLVER_MODES:
        raise ValueError(f"mode must be one of {SOLVER_MODES}, got {mode!r}")
    coef, lam_min, lam_max = _sent_terms(device)
    ytil = normalized_yields(s, yields, probs)

    if mode == PAPER_FAITHFUL:
        lower, upper = _interval_box(ytil, lam_min, lam_max, np.linalg.inv(coef))
        _require_physical(lower, upper)
        return TransmissionRateBounds(tuple(lower), tuple(upper))

    amat, bvec = _halfspaces(coef, ytil, lam_min, lam_max)
    lower, upper, wit_lo, wit_hi = _vertex_box(amat, bvec)
    return TransmissionRateBounds(
        tuple(lower),
        tuple(upper),
        witness_lower=tuple(tuple(v) for v in wit_lo),
        witness_upper=tuple(tuple(v) for v in wit_hi),
    )


def virtual_yield_upper(
    s: int,
    j: int,
    bounds: TransmissionRateBounds,
    device: DeviceModel,
    probs: ProtocolProbabilities,
) -> float:
    """Upper bound on the virtual yield: bit j's virtual state measured in
    X, Bob declaring outcome s.

    Maximizes the qubit term over the bounds box (the qubit weight is
    nonnegative, so each coordinate picks the interval end matching its
    Bloch coefficient's sign) and adds the worst-case non-qubit eigenvalue.
    """
    if s not in (0, 1):
        raise ValueError(f"s must be 0 or 1, got {s}")
    vd = virtual_decomposition(j, device)
    lo, up = bounds.lower, bounds.upper
    val = up[0]
    val += vd.bloch.px * (up[1] if vd.bloch.px >= 0.0 else lo[1])
    val += vd.bloch.pz * (up[2] if vd.bloch.pz >= 0.0 else lo[2])
    y = probs.p_za * probs.p_zb * (vd.qubit_weight * val + vd.lambda_max)
    return max(y, 0.0)


def phase_error_rate_lt(
    device: DeviceModel,
    channel: ChannelModel,
    probs: ProtocolProbabilities,
    mode: str = PAPER_FAITHFUL,
) -> float:
    """Worst-case phase error rate of the sifted Z key."""
    yields = actual_yields(device, channel, probs)
    denom = yields.z_detection_sum()
    if denom <= 0.0:
        raise NoDetectionError("no Z-basis detections; e_X is undefined")
    bounds0 = transmission_rate_bounds(0, yields, device, probs, mode)
    bounds1 = transmission_rate_bounds(1, yields, device, probs, mode)
    num = virtual_yield_upper(0, 1, bounds0, device, probs) + virtual_yield_upper(
        1, 0, bounds1, device, probs
    )
    return min(max(num / denom, 0.0), 1.0)


def _key_rate_point(
    e_z: float, e_x: float, channel: ChannelModel, probs: ProtocolProbabilities
) -> KeyRatePoint:
    # Error rates beyond 1/2 carry no extractable key, so the entropy
    # arguments are clamped at the entropy maximum.
    raw = z_basis_yield(channel, probs) * (
        1.0
        - binary_entropy(min(e_x, 0.5))
        - channel.f_ec * binary_entropy(min(e_z, 0.5))
    )
    return KeyRatePoint(
        loss_db=channel.loss_db,
        eta=system_efficiency(channel),
        e_z=e_z,
        e_x=float(e_x),
        rate_raw=float(raw),
        rate=float(max(raw, 0.0)),
    )


def key_rate_lt(
    device: DeviceModel,
    channel: ChannelModel,
    probs: ProtocolProbabilities,
    mode: str = PAPER_FAITHFUL,
) -> KeyRatePoint:
    """Secure key rate per emitted pulse under the loss-tolerant analysis."""
    e_z = bit_error_rate(device, channel)
    return _key_rate_point(e_z, phase_error_rate_lt(device, channel, probs, mode), channel, probs)
