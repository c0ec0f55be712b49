"""Both estimators on a grid of transmittances, from prepared devices.

Loss enters the lt and lp bounds only through yields that are affine in
eta, so everything else is computed once per device by ``prepare`` and
``evaluate_grid`` carries a whole grid through each stage as arrays.  The
device-only terms have a leading device axis: one device serves a whole
loss grid (a sweep), or n devices each take their own transmittance (the
crossover search).  ``evaluate_grid`` observes the detection statistics,
makes one call per estimator module and combines entropies and rates.

A point's values do not depend on the grid it is evaluated in: every
stage keeps the operand order of its formula, the transmittance is
Python's ``10.0 ** (-loss / 10.0)`` per point, the device-only terms
are two rows of ``math`` calls per device, each estimator keeps its points
apart, and the entropies are one list pass of ``clamped_entropies``:
``math.log2`` runs only on open arguments in (0, 1/2), and a clamped
argument gives h(1/2) = 1.0 exactly.  A sweep keeps these columns
(``engine.Sweep``), and its rows are zipped from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (
    ProtocolProbabilities,
    bit_errors,
    check,
    clamped_entropies,
    detection_probability,
    detector_yields,
    yield_alignments,
)
from .errors import EstimatorError, InfeasibleStatisticsError, NoDetectionError
from .lp_estimator import coin_imbalance, coin_phase_errors
from .lt_estimator import PAPER_FAITHFUL, SOLVER_MODES, LtTerms, lt_phase_errors, lt_terms
from .qstates import DeviceModel, source_terms

METHODS = ("lt", "lp")


def check_estimators(methods: tuple[str, ...], solver: str) -> None:
    """Raise a ValueError unless methods is a nonempty subset of METHODS and
    solver is one of SOLVER_MODES."""
    for method in methods:
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}")
    if not methods:
        raise ValueError("at least one method is required")
    if solver not in SOLVER_MODES:
        raise ValueError(f"solver mode must be one of {SOLVER_MODES}, got {solver!r}")


@dataclass(frozen=True)
class PreparedDevice:
    """Everything the estimators need that does not depend on the loss,
    for m devices.

    Every array has a leading axis of length m: alignment the Bloch
    alignments of the five yield rows, tilt the device's term of the bit
    error, lt the loss-tolerant device terms, in ``lt_estimator``'s own
    format, and coin the quantum-coin imbalance Delta.
    """

    probs: ProtocolProbabilities
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
    devices: DeviceModel | Sequence[tuple[float, float, bool, float]],
    probs: ProtocolProbabilities,
    fixed: dict | None = None,
) -> PreparedDevice:
    """Compute the device-only terms of both estimators once per device: one
    ``source_terms`` call, then one pass for the receiver terms and Delta.
    devices is one DeviceModel (a device axis of length 1) or a sequence of
    parameter tuples (delta, theta_hat, dependent, mu), or DeviceModels.
    fixed goes to ``source_terms``: one dict over several batches computes
    the delta-independent terms of each (theta_hat, dependent, mu) once."""
    if isinstance(devices, DeviceModel):
        devices = (devices,)
    source = source_terms(devices, fixed)
    values: list[float] = []
    for (delta, _, _, _), overlaps in zip(devices, source.overlaps.tolist()):
        values += (*yield_alignments(delta), coin_imbalance(overlaps))
    derived = np.fromiter(values, float, len(values)).reshape(-1, 6)
    # The bit error's tilt is c(0Z, Z) - c(1Z, Z), cos(delta) + cos(2 delta).
    return PreparedDevice(probs, derived[:, :5], derived[:, 1] - derived[:, 3],
                          lt_terms(source), derived[:, 5])


def _entropies(
    e_z: np.ndarray, stages: dict[str, tuple[np.ndarray, list]]
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    # h(min(e, 1/2)) of each method's e_x where that method succeeded, and
    # of e_z where any method did: error rates beyond 1/2 carry no
    # extractable key.
    h_x = {m: np.array(clamped_entropies(e_x.tolist(), errors))
           for m, (e_x, errors) in stages.items()}
    failed = [None not in point for point in zip(*(errors for _, errors in stages.values()))]
    return np.array(clamped_entropies(e_z.tolist(), failed)), h_x


def evaluate_grid(
    prepared: PreparedDevice,
    eta: np.ndarray,
    p_d: float,
    f_ec: float,
    methods: tuple[str, ...] = METHODS,
    solver: str = PAPER_FAITHFUL,
) -> dict[str, GridRates]:
    """e_z, e_x and the unclamped rate of each method at each transmittance.

    eta is a sequence or array of shape (n,); prepared holds one device,
    evaluated at every point, or n devices, device i at point i.  Before
    anything is evaluated, ``check_estimators`` checks the methods and
    solver, and ``channel.check`` p_d, f_ec and every eta, so a ValueError
    names the first bad one in the wording every entry point uses.  A
    failure at one point is kept in that point's error slot and never
    stops the others.  Per point, a failure reports in the order the chain
    meets it: no detections at all, a bit error rate e_z below 0, no
    Z-basis detections (lt), a singular yield system (lt), infeasible
    yields (lt), a degenerate virtual state (lt).
    """
    check_estimators(methods, solver)
    check(p_d=p_d, f_ec=f_ec)
    # No dtype: an integer past the float range must reach check unrounded.
    eta = np.asarray(eta)
    if eta.ndim != 1:
        raise ValueError(f"transmittances of shape {eta.shape} are not a grid of shape (n,)")
    # A float grid takes one comparison per point; any other entry, an int,
    # a string or None, goes through check.
    floats = eta.dtype.kind == "f"
    for x in eta.tolist():
        if not (floats and 0.0 <= x <= 1.0):
            check(eta=x)
    if len(prepared.tilt) not in (1, len(eta)):
        raise ValueError(
            f"{len(prepared.tilt)} prepared devices do not match {len(eta)} transmittances"
        )
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
            yields = detector_yields(prepared.alignment, eta, p_d)
            stages["lt"] = lt_phase_errors(prepared.lt, yields, errors, solver)
        if "lp" in methods:
            enhanced = prepared.coin / y_det
            stages["lp"] = (coin_phase_errors(np.minimum(e_z, 0.5), enhanced), errors)
        h_z, h_x = _entropies(e_z, stages)
        y_z = prepared.probs.p_za * prepared.probs.p_zb * y_det
        ec_cost = f_ec * h_z
        return {
            m: GridRates(e_z, e_x, y_z * (1.0 - h_x[m] - ec_cost), method_errors)
            for m, (e_x, method_errors) in stages.items()
        }
