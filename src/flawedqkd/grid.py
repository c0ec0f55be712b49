"""Both estimators on a grid of transmittances, from prepared devices.

Loss enters the lt and lp bounds only through yields that are affine in
eta, so everything else is computed once per device by ``prepare`` and
``evaluate_grid`` carries a whole grid through each stage as arrays.  The
device-only terms have a leading device axis: one device serves a whole
loss grid (a sweep), or n devices each take their own transmittance (the
crossover search).

The arrays reproduce the per-point arithmetic bit for bit: every stage
keeps the operand order of its formula, the transmittance is Python's
``10.0 ** (-loss / 10.0)`` per point, trigonometry is ``math`` per device,
each point's yields go through its device's inverse as one BLAS product,
and entropies use ``math.log2`` per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    X_ROWS,
    Z_ROWS,
    ProtocolProbabilities,
    binary_entropy,
    bit_errors,
    detection_probability,
    detector_yields,
    error_tilt,
    yield_alignments,
    yield_prefactors,
)
from .errors import EstimatorError, InfeasibleStatisticsError, NoDetectionError
from .lp_estimator import coin_imbalance, coin_phase_errors
from .lt_estimator import (
    INFEASIBLE,
    PAPER_FAITHFUL,
    SOLVER_MODES,
    LtTerms,
    halfspace_rhs,
    halfspace_rows,
    interval_box,
    lt_terms,
    triple_systems,
    unphysical,
    vertex_box,
    virtual_yields,
)
from .qstates import DeviceModel, source_terms

METHODS = ("lt", "lp")


@dataclass(frozen=True)
class PreparedDevice:
    """Everything the estimators need that does not depend on the loss,
    for m devices.

    prefactor holds the selection probabilities of the five yield rows.
    The rest has a leading axis of length m: alignment the Bloch
    alignments of the rows, tilt the device's term of the bit error, lt
    the loss-tolerant device terms and coin the quantum-coin imbalance
    Delta.
    """

    probs: ProtocolProbabilities
    prefactor: np.ndarray
    alignment: np.ndarray
    tilt: np.ndarray
    lt: LtTerms
    coin: np.ndarray


@dataclass(frozen=True)
class GridRates:
    """One method's values over the grid.

    errors holds, per grid point, the failure of the estimator there or
    None; the numbers of a failed point mean nothing.
    """

    e_z: np.ndarray
    e_x: np.ndarray
    rate_raw: np.ndarray
    errors: list[EstimatorError | None]


def prepare(
    devices: DeviceModel | Sequence[DeviceModel], probs: ProtocolProbabilities
) -> PreparedDevice:
    """Compute the device-only terms of both estimators once per device;
    one device gives a device axis of length 1."""
    if isinstance(devices, DeviceModel):
        devices = (devices,)
    source = source_terms(devices)
    return PreparedDevice(
        probs=probs,
        prefactor=yield_prefactors(probs),
        alignment=np.array([yield_alignments(d.delta) for d in devices]),
        tilt=np.array([error_tilt(d.delta) for d in devices]),
        lt=lt_terms(source),
        coin=np.array([coin_imbalance(row) for row in source.overlaps.tolist()]),
    )


def _per_point(failures: tuple, n: int) -> tuple:
    # Each point's device failure: a single device's serves every point.
    return failures * n if len(failures) == 1 else failures


def _entropies(
    e_z: np.ndarray, stages: dict[str, tuple[np.ndarray, list]]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    # h(min(e, 1/2)) of each method's e_x where that method succeeded, and
    # of e_z where any method did: error rates beyond 1/2 carry no
    # extractable key.
    h_x = {
        m: np.array([binary_entropy(min(e, 0.5)) if error is None else 0.0
                     for e, error in zip(e_x.tolist(), errors)])
        for m, (e_x, errors) in stages.items()
    }
    live = [None in point for point in zip(*(errors for _, errors in stages.values()))]
    h_z = [binary_entropy(min(z, 0.5)) if ok else 0.0 for z, ok in zip(e_z.tolist(), live)]
    return np.array(h_z), h_x


def _lt_bounds(
    terms: LtTerms, ytil: np.ndarray, todo: np.ndarray, solver: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Transmission-rate boxes of shape (n, 2, 3), one per point and Bob
    # outcome, and whether each point's yields are infeasible; points not
    # in todo have already failed.
    if solver == PAPER_FAITHFUL:
        lower, upper = interval_box(ytil, terms)
        return lower, upper, unphysical(lower, upper).any(axis=1)
    # The vertex enumeration stays one point at a time: batching its
    # triples over the grid costs megabytes per point.
    rhs = halfspace_rhs(ytil, terms.lam_min[:, None], terms.lam_max[:, None])
    lower, upper = np.zeros_like(ytil), np.zeros_like(ytil)
    infeasible = np.zeros(todo.shape, dtype=bool)
    built = -1
    for i in np.flatnonzero(todo).tolist():
        # The point's own device, or the only one.  Only the current
        # device's polytope is kept: a sweep's points share one device, a
        # batch's points each have their own.
        k = i % len(terms.coef)
        if k != built:
            built, rows = k, halfspace_rows(terms.coef[k])
            systems = triple_systems(rows)
        for s in (0, 1):
            box = vertex_box(rows, systems, rhs[i, s])
            if box is None:
                infeasible[i] = True
                break
            lower[i, s], upper[i, s] = box[0], box[1]
    return lower, upper, infeasible


def _lt_phase_errors(
    prepared: PreparedDevice,
    eta: np.ndarray,
    p_d: float,
    errors: list[EstimatorError | None],
    solver: str,
) -> tuple[np.ndarray, list[EstimatorError | None]]:
    # e_x of the loss-tolerant bound; errors comes in with each point's
    # failure so far and leaves with the first lt failure added.
    terms = prepared.lt
    yields = detector_yields(prepared.prefactor, prepared.alignment, eta, p_d)
    z_yields = yields[:, :, Z_ROWS]
    # (0Z, 0Z) + (1Z, 0Z) + (0Z, 1Z) + (1Z, 1Z), outcome first.
    z_sum = z_yields[:, 0, 0] + z_yields[:, 1, 0] + z_yields[:, 0, 1] + z_yields[:, 1, 1]
    no_z = NoDetectionError("no Z-basis detections; e_X is undefined")
    errors = [no_z if e is None and z <= 0.0 else e for e, z in zip(errors, z_sum.tolist())]
    n = len(errors)
    errors = [s if e is None else e for e, s in zip(errors, _per_point(terms.singular, n))]

    ytil = yields[:, :, X_ROWS] / prepared.prefactor[X_ROWS]
    todo = np.array([e is None for e in errors])
    lower, upper, infeasible = _lt_bounds(terms, ytil, todo, solver)
    infeasible_error = InfeasibleStatisticsError(INFEASIBLE)
    errors = [infeasible_error if e is None and bad else e
              for e, bad in zip(errors, infeasible.tolist())]
    errors = [d if e is None else e for e, d in zip(errors, _per_point(terms.degenerate, n))]

    v, p_zz = terms.virtual, prepared.probs.p_za * prepared.probs.p_zb
    y = virtual_yields(lower, upper, terms.corner, v[..., 0], v[..., 3], v[..., 5], v[..., 6], p_zz)
    e_x = (y[:, 0] + y[:, 1]) / z_sum
    return np.minimum(np.where(0.0 > e_x, 0.0, e_x), 1.0), errors


def evaluate_grid(
    prepared: PreparedDevice,
    eta: np.ndarray,
    p_d: float,
    f_ec: float,
    methods: tuple[str, ...] = METHODS,
    solver: str = PAPER_FAITHFUL,
) -> dict[str, GridRates]:
    """e_z, e_x and the unclamped rate of each method at each transmittance.

    eta has shape (n,); prepared holds one device, evaluated at every
    point, or n devices, device i at point i.  A failure at one point is
    kept in that point's error slot and never stops the others.  Per
    point, a failure reports in the order the chain meets it: no
    detections at all, a bit error rate e_z below 0, no Z-basis detections
    (lt), a singular yield system (lt), infeasible yields (lt), a
    degenerate virtual state (lt).
    """
    if solver not in SOLVER_MODES:
        raise ValueError(f"mode must be one of {SOLVER_MODES}, got {solver!r}")
    if len(prepared.tilt) not in (1, len(eta)):
        raise ValueError(
            f"{len(prepared.tilt)} prepared devices do not match {len(eta)} transmittances"
        )
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    probs = prepared.probs
    # Points that fail, or sit at a subnormal eta, may divide by zero or
    # overflow; their error slots and the clamps take care of the result.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        y_det = detection_probability(eta, p_d)
        e_z = bit_errors(eta, p_d, prepared.tilt) / y_det
        errors: list[EstimatorError | None] = [None] * len(eta)
        # At a subnormal eta the terms of bit_errors round apart, and e_z
        # can come out below 0; no detections at all outranks that.
        for i in np.flatnonzero(e_z < 0.0).tolist():
            errors[i] = InfeasibleStatisticsError(
                f"e_z = {e_z[i].item()} < 0 at eta = {eta[i].item()}"
            )
        no_detection = NoDetectionError("no detections: eta = 0 and p_d = 0")
        for i in np.flatnonzero(y_det <= 0.0).tolist():
            errors[i] = no_detection
        # Each stage: e_x and the failure of each point.
        stages = {}
        if "lt" in methods:
            stages["lt"] = _lt_phase_errors(prepared, eta, p_d, errors, solver)
        if "lp" in methods:
            enhanced = prepared.coin / y_det
            stages["lp"] = (coin_phase_errors(np.minimum(e_z, 0.5), enhanced), errors)
        h_z, h_x = _entropies(e_z, stages)
        y_z = probs.p_za * probs.p_zb * y_det
        ec_cost = f_ec * h_z
        return {
            m: GridRates(e_z, e_x, y_z * (1.0 - h_x[m] - ec_cost), method_errors)
            for m, (e_x, method_errors) in stages.items()
        }
