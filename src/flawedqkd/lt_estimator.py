"""Loss-tolerant phase-error estimation generalized to leaky sources.

The estimator writes each observed X-basis yield as a linear functional of
three transmission rates (q_Id, q_x, q_z) plus a bounded non-qubit term,
inverts the resulting 3x3 system, and maximizes the virtual phase-error
yields over the allowed transmission-rate region.  Two solvers provide that
region:

* ``paper_faithful`` propagates the per-setting eigenvalue interval through
  the inverse sign-by-sign, giving a closed-form box checked for physicality.
* ``vertex_lp`` intersects the same interval constraints with physicality
  boxes and enumerates the polytope's vertices exactly: each vertex is
  where three of the 16 halfspaces meet, out of a fixed table of the 400
  triples that can meet in a feasible vertex for some device.

With no side channels both collapse to the unique linear-system solution.

``lt_phase_errors`` runs the whole chain on a grid of points from the
terms ``lt_terms`` computes once per device.  Each point's yields go
through its device's inverse as one BLAS product, and the vertex solver's
vertices are elementwise products with each device's closed-form triple
inverses, so a point's values do not depend on the points evaluated with
it.  On a sweep, each (point, outcome) skips the triples on physical
facets that its interval box, widened by the feasibility tolerance,
stays clear of: their vertices would all fail the feasibility test, so
the boxes are those of solving every triple.  The paper solver's values
are the per-point code's bit for bit; the vertex solver's inverses agree
with the LAPACK solves they replaced to rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

import numpy as np

from .channel import X_ROWS, Z_ROWS
from .errors import (DegenerateStateError, EstimatorError, InfeasibleStatisticsError,
                     NoDetectionError, SingularSystemError)
from .qstates import SourceTerms

PAPER_FAITHFUL = "paper_faithful"
VERTEX_LP = "vertex_lp"
SOLVER_MODES = (PAPER_FAITHFUL, VERTEX_LP)

_DET_TOL = 1e-12
_FEAS_TOL = 1e-9
INFEASIBLE = "no physical transmission rates are consistent with the yields"

# Physicality rows a . q <= b: q_Id in [0, 1], then, for q_x and q_z with
# either sign, |q_axis| <= q_Id and |q_axis| <= 1 - q_Id.  They follow the
# six slab rows, as halfspace rows 6 to 15, and are facets 0 to 9.
_PHYSICAL_ROWS = ((1, 0, 0), (-1, 0, 0), (-1, 1, 0), (1, 1, 0), (-1, -1, 0), (1, -1, 0),
                  (-1, 0, 1), (1, 0, 1), (-1, 0, -1), (1, 0, -1))
_PHYSICAL_RHS = (1, 0, 0, 1, 0, 1, 0, 1, 0, 1)
_PHYSICAL_A, _PHYSICAL_B = np.array(_PHYSICAL_ROWS, dtype=float), np.array(_PHYSICAL_RHS, float)


def _cross(u: tuple, v: tuple) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _usable(triple: tuple[int, int, int]) -> bool:
    # Whether three of the 16 halfspaces, ascending, can meet in a feasible
    # vertex for some device, in exact integer arithmetic.  Not: a slab row
    # with its negation, a parallel pair or coplanar triple of physical
    # rows (singular for every device), or three physical rows whose one
    # vertex, num / det by Cramer's rule, is unphysical.
    if any(i // 2 == j // 2 and j < 6 for i, j in zip(triple, triple[1:])):
        return False
    rows = [_PHYSICAL_ROWS[i - 6] for i in triple if i >= 6]
    if len(rows) < 3:
        return len(rows) < 2 or any(_cross(*rows))
    a, b, c = rows
    adjugate = (_cross(b, c), _cross(c, a), _cross(a, b))
    det = sum(map(mul, a, adjugate[0]))
    num = [sum(map(mul, (_PHYSICAL_RHS[i - 6] for i in triple), col)) for col in zip(*adjugate)]
    return det != 0 and all(sum(map(mul, row, num)) * det <= rhs * det * det
                            for row, rhs in zip(_PHYSICAL_ROWS, _PHYSICAL_RHS))


# The triples worth solving, fixed once; slab rows come first in each.  A
# triple whose determinant is no larger than _REGULAR_DET in magnitude
# meets in no single vertex.
_TRIPLES = np.array([t for t in itertools.combinations(range(16), 3) if _usable(t)])
_REGULAR_DET = 1e-14

# Gathers from a flattened (16, 3) row array, per triple (a, b, c): the
# components of a, shape (3, T), and the four factors of each adjugate
# entry, shape (4, 3, 3, T).  Entry [i, j] is component i of the cross
# product u x v of the pair (b, c), (c, a) or (a, b) for j = 0, 1, 2:
# u[i + 1] v[i + 2] - u[i + 2] v[i + 1], indices mod 3.
_FIRST_ROW = 3 * _TRIPLES[:, 0] + np.arange(3)[:, None]


def _cross_gathers() -> np.ndarray:
    i = np.arange(3)[:, None, None]
    u, v = 3 * _TRIPLES[:, [1, 2, 0]].T, 3 * _TRIPLES[:, [2, 0, 1]].T
    return np.stack((u + (i + 1) % 3, v + (i + 2) % 3, u + (i + 2) % 3, v + (i + 1) % 3))


_CROSS = _cross_gathers()

# Bytes of one chunk's slack array in the vertex enumeration, 8 per
# halfspace, triple and right-hand side; the other arrays of a chunk are
# about half as large again.
_SLACK_BYTES = 300_000

# A facet counts as missed when the tolerance-widened slab box stays below
# it by more than _MISS_ROUNDING * max|triple inverse| * max|b|, the
# largest entries over the triples and right-hand sides enumerated
# together: more than a computed vertex can stray from its own facets, or
# a box or slack from its exact value, by rounding.
_MISS_ROUNDING = 2.0 ** -40
# Fewer points than this enumerate every triple: for so few right-hand
# sides the facet test costs more than the vertices it saves.
_FACET_TEST_POINTS = 3
_PHYSICAL_POS, _PHYSICAL_NEG = np.maximum(_PHYSICAL_A, 0.0).T, np.minimum(_PHYSICAL_A, 0.0).T
_FACET_BITS = 1 << np.arange(10)
_FACET_BIT_OF_ROW = np.concatenate((np.zeros(6, dtype=int), _FACET_BITS))

_EYE = np.eye(3)
_MOMENTS = np.array([0, 5, 6])  # qubit weight, px, pz of a source split


@dataclass(frozen=True)
class LtTerms:
    """What the loss-tolerant bound needs from each device alone.

    Every array has a leading axis over the devices.  coef is the
    coefficient matrix, lam_min/lam_max the side-channel intervals of the
    three sent states, and box_lower/box_upper what those intervals add to
    the central solution through the inverse.  virtual holds the split of
    the virtual state paired with each Bob outcome s (bit j = 1 - s), and
    corner which box corner maximizes that virtual yield, one row of each
    per s.  singular and degenerate hold each device's failure or None.
    A singular system's inverse and box, and a degenerate virtual state's
    terms, are placeholders; the failure is kept rather than raised,
    because a loss point reports its earlier failures first.
    """

    coef: np.ndarray
    inv: np.ndarray
    lam_min: np.ndarray
    lam_max: np.ndarray
    box_lower: np.ndarray
    box_upper: np.ndarray
    virtual: np.ndarray
    corner: np.ndarray
    singular: tuple[SingularSystemError | None, ...]
    degenerate: tuple[DegenerateStateError | None, ...]


def lt_terms(source: SourceTerms) -> LtTerms:
    """Arrange the devices' source terms for every lt evaluation on them."""
    sent = source.sent
    # Column k of coef[i] is w, w px, w pz of sent state k.
    coef = sent[:, :, _MOMENTS]
    coef[:, :, 1:] *= coef[:, :, :1]
    coef = coef.transpose(0, 2, 1)
    lam_min, lam_max = sent[:, :, 4], sent[:, :, 3]
    # Qubit weights that underflow (mu near 700) make det divide by zero.
    with np.errstate(divide="ignore"):
        collinear = np.abs(np.linalg.det(coef)) < _DET_TOL
    singular = tuple(
        SingularSystemError(
            "the three encoding states are collinear; the yield system cannot be inverted"
        ) if bad else None
        for bad in collinear.tolist()
    )
    # q_i = sum_k (ytil_k - lam_k) inv[k, i] with lam_k free in its
    # interval; extremize each coordinate by picking the interval end
    # matching the sign of inv[k, i].  A singular system inverts the
    # identity instead.
    inv = np.linalg.inv(np.where(collinear[:, None, None], _EYE, coef))
    low_end, high_end = -lam_min[:, :, None] * inv, -lam_max[:, :, None] * inv
    lo, hi = np.minimum(low_end, high_end), np.maximum(low_end, high_end)
    box_lower, box_upper = lo[:, 0] + lo[:, 1] + lo[:, 2], hi[:, 0] + hi[:, 1] + hi[:, 2]
    # Outcome s pairs with the virtual state of bit 1 - s.  Its qubit
    # weight is nonnegative, so q_Id takes its upper end, and q_x and q_z
    # the end matching the sign of their Bloch coefficient.
    virtual = source.virtual[:, ::-1]
    return LtTerms(
        coef, inv, lam_min, lam_max, box_lower, box_upper, virtual, virtual[:, :, _MOMENTS] >= 0.0,
        singular, source.degenerate,
    )


def interval_box(ytil: np.ndarray, terms: LtTerms) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper box corners for normalized yields ytil of shape
    (n, r, 3), one box per row; point i takes device i of terms, or its
    only device."""
    # One stacked product: each point's rows go through their device's
    # inverse as one BLAS product, whatever n and the number of devices.
    central = np.matmul(ytil, terms.inv)
    return central + terms.box_lower[:, None], central + terms.box_upper[:, None]


def unphysical(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Whether each box misses the physical region: no q_Id in [lo_0, hi_0]
    and [0, 1] has min(q_Id, 1 - q_Id) at least the smallest |q_x| and |q_z|
    in the box."""
    reach = np.minimum(np.minimum(upper[..., 0], 0.5), 1.0 - np.maximum(lower[..., 0], 0.0))
    need = np.maximum(lower[..., 1:], -upper[..., 1:]).max(axis=-1, initial=0.0)
    return reach < need - _FEAS_TOL


def halfspace_rows(coef: np.ndarray) -> np.ndarray:
    """Rows a of the halfspaces a . q <= b for one device's coefficient
    matrix: (+v_k, -v_k) for each sent setting k, then the physical rows."""
    return np.vstack((np.stack((coef.T, -coef.T), axis=1).reshape(6, 3), _PHYSICAL_A))


def halfspace_rhs(ytil: np.ndarray, lam_min: np.ndarray, lam_max: np.ndarray) -> np.ndarray:
    """Right-hand sides b of the halfspaces for ytil of shape (..., 3) and
    side-channel intervals that broadcast against it."""
    rhs = np.stack((ytil - lam_min, lam_max - ytil), axis=-1)
    rhs = rhs.reshape(*rhs.shape[:-2], 6)
    physical = np.broadcast_to(_PHYSICAL_B, (*rhs.shape[:-1], _PHYSICAL_B.size))
    return np.concatenate((rhs, physical), axis=-1)


def triple_inverses(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The regular triples of halfspace rows, as row indices of shape (3, T),
    and their inverses, of shape (3, 3, T)."""
    # The matrix with rows a, b, c has the inverse with columns b x c,
    # c x a and a x b over its determinant a . (b x c).
    flat = rows.ravel()
    u, v, u_swap, v_swap = flat[_CROSS]
    adjugate = u * v - u_swap * v_swap
    first = flat[_FIRST_ROW]
    det = first[0] * adjugate[0, 0] + first[1] * adjugate[1, 0] + first[2] * adjugate[2, 0]
    # Singular triples (parallel facets) are expected and dropped.
    regular = np.abs(det) > _REGULAR_DET
    return _TRIPLES.T[:, regular], adjugate[:, :, regular] / det[regular]


def _vertices(
    rows: np.ndarray, systems: tuple[np.ndarray, np.ndarray], rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Every regular triple's vertex for each of the K right-hand sides, the
    # rows of rhs, as (3, K, T), and whether it is feasible, as (K, T).
    # The triples run along the last axis, so every operation and
    # reduction below is over contiguous runs of T.  Coordinate i is
    # inv[i, 0] g0 + inv[i, 1] g1 + inv[i, 2] g2, summed in that order in
    # place, for all three coordinates at once; the gathers and the term
    # are freed before the slack array is made, which is the chunk's peak.
    triples, inv = systems
    g0, g1, g2 = rhs[:, triples[0]], rhs[:, triples[1]], rhs[:, triples[2]]
    verts = np.multiply(inv[:, 0, None], g0)
    term = np.multiply(inv[:, 1, None], g1)
    verts += term
    verts += np.multiply(inv[:, 2, None], g2, out=term)
    del g0, g1, g2, term
    slack = (rows @ verts.reshape(3, -1)).reshape(len(rows), *verts.shape[1:])
    feasible = np.logical_and.reduce(slack <= (rhs.T + _FEAS_TOL)[:, :, None], axis=0)
    return verts, feasible


def missed_facets(lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray,
                  inv: np.ndarray) -> np.ndarray:
    """Bitmask per right-hand side, the rows of rhs, of the physical facets
    a . q = b (bit r for halfspace row 6 + r) that the box [lower, upper],
    of shape (K, 3), stays below by more than rounding; inv holds the
    triple inverses the vertices will come from."""
    # a has entries in {-1, 0, 1}, so the box's reach is a . upper over the
    # positive entries plus a . lower over the negative ones.
    reach = upper @ _PHYSICAL_POS + lower @ _PHYSICAL_NEG
    margin = _MISS_ROUNDING * float(np.abs(inv).max()) * float(np.abs(rhs).max())
    return (reach < _PHYSICAL_B - margin) @ _FACET_BITS


def _capacity(triples: int) -> int:
    # Right-hand sides per chunk, so that the chunk's slack array over that
    # many triples stays within _SLACK_BYTES.
    return max(1, _SLACK_BYTES // (128 * max(1, triples)))


def _chunks(systems: tuple[np.ndarray, np.ndarray], missed: np.ndarray | None, count: int):
    # The count right-hand sides in chunks, as slices or index arrays, each
    # with the triples and inverses it solves: every triple without missed
    # sets, else, per run of equal missed sets, the triples on none of
    # their facets.
    triples, inv = systems
    if missed is None:
        size = _capacity(triples.shape[1])
        for start in range(0, count, size):
            yield slice(start, start + size), systems
        return
    uses = _FACET_BIT_OF_ROW[triples].sum(axis=0)
    order = np.argsort(missed, kind="stable")
    ends = [0, *(np.flatnonzero(np.diff(missed[order])) + 1).tolist(), count]
    for lo, hi in zip(ends, ends[1:]):
        keep = (uses & int(missed[order[lo]])) == 0
        solved = triples[:, keep], inv[:, :, keep]
        size = _capacity(int(keep.sum()))
        for start in range(lo, hi, size):
            yield order[start:min(start + size, hi)], solved


def vertex_bounds(
    rows: np.ndarray, systems: tuple[np.ndarray, np.ndarray], rhs: np.ndarray,
    missed: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Componentwise extremes of the polytopes a . q <= b for the K
    right-hand sides b, the rows of rhs, and whether each has a feasible
    vertex: lower and upper (K, 3) and feasible (K,).  An infeasible
    polytope's extremes are +inf and -inf.  missed, from
    ``missed_facets``, lets a right-hand side skip the triples on facets
    its polytope cannot reach; no vertex of theirs is feasible."""
    # Chunks bound the memory, whatever K; a right-hand side's result does
    # not depend on the others in its chunk.  Infeasible vertices enter
    # each box as +inf or -inf, which min and max pass over exactly.
    lower, upper = np.empty((len(rhs), 3)), np.empty((len(rhs), 3))
    for chunk, solved in _chunks(systems, missed, len(rhs)):
        verts, ok = _vertices(rows, solved, rhs[chunk])
        lower[chunk] = np.where(ok, verts, np.inf).min(axis=2, initial=np.inf).T
        upper[chunk] = np.where(ok, verts, -np.inf).max(axis=2, initial=-np.inf).T
    # A feasible vertex is finite: an infinite or NaN coordinate gives some
    # halfspace a slack of +inf or NaN, which fails the test.  So a
    # polytope is feasible exactly when its box is not empty.
    return lower, upper, lower[:, 0] <= upper[:, 0]


def virtual_yields(lower, upper, corner, weight, lam_max, px, pz):
    """Upper bounds on virtual yields from transmission-rate boxes.

    Maximizes the qubit term over the box, at the corner LtTerms.corner
    picks, and adds the worst-case non-qubit eigenvalue.  The
    virtual-state terms broadcast against the boxes' leading axes.
    """
    best = np.where(corner, upper, lower)
    val = best[..., 0] + px * best[..., 1] + pz * best[..., 2]
    y = weight * val + lam_max
    return np.where(0.0 > y, 0.0, y)


def _fail(errors: list, failed: np.ndarray, failure: EstimatorError, devices: tuple) -> None:
    # Where a point has no failure yet: failure at the failed points, then
    # each device's failure at its points (a single device's at every point).
    for i in np.flatnonzero(failed).tolist():
        if errors[i] is None:
            errors[i] = failure
    if devices.count(None) < len(devices):
        per_point = devices * len(errors) if len(devices) == 1 else devices
        errors[:] = [d if e is None else e for e, d in zip(errors, per_point)]


def _lt_bounds(
    terms: LtTerms, ytil: np.ndarray, todo: np.ndarray, solver: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Transmission-rate boxes of shape (n, 2, 3), one per point and Bob
    # outcome, and whether each point's yields are infeasible; points not
    # in todo have already failed.
    if solver == PAPER_FAITHFUL:
        lower, upper = interval_box(ytil, terms)
        return lower, upper, unphysical(lower, upper).any(axis=1)
    # The vertex solver builds each device's halfspace rows and triple
    # inverses once and enumerates its points' polytopes together, one
    # right-hand side per (point, outcome).  A sweep's points share its one
    # device; point i of a batch takes device i.
    lower, upper = np.zeros_like(ytil), np.zeros_like(ytil)
    feasible = np.ones(ytil.shape[:2], dtype=bool)
    points = np.flatnonzero(todo)
    groups = [(0, points)] if len(terms.coef) == 1 else [(i, [i]) for i in points.tolist()]
    for k, idx in groups:
        rows = halfspace_rows(terms.coef[k])
        systems = triple_inverses(rows)
        rhs = halfspace_rhs(ytil[idx], terms.lam_min[k], terms.lam_max[k]).reshape(-1, len(rows))
        missed = None
        if len(idx) >= _FACET_TEST_POINTS:
            # The interval box bounds the slab polytopes; widened by the
            # feasibility tolerance, it holds every vertex that can pass.
            box_lower, box_upper = interval_box(ytil, terms)
            widen = _FEAS_TOL * np.abs(terms.inv[k]).sum(axis=0)
            missed = missed_facets((box_lower[idx] - widen).reshape(-1, 3),
                                   (box_upper[idx] + widen).reshape(-1, 3), rhs, systems[1])
        lo, hi, ok = vertex_bounds(rows, systems, rhs, missed)
        lower[idx], upper[idx] = lo.reshape(-1, 2, 3), hi.reshape(-1, 2, 3)
        feasible[idx] = ok.reshape(-1, 2)
    infeasible = ~feasible.all(axis=1)
    # An infeasible point's boxes are never read; keep them finite.
    lower[infeasible], upper[infeasible] = 0.0, 0.0
    return lower, upper, infeasible


def lt_phase_errors(
    terms: LtTerms, yields: np.ndarray, errors: list[EstimatorError | None], solver: str,
) -> tuple[np.ndarray, list[EstimatorError | None]]:
    """e_x of the loss-tolerant bound at n points, from detector yields of
    shape (n, 2, 5), each conditional on its row's pulse and Bob's basis;
    point i takes device i of terms, or its only device.  errors holds
    each point's failure so far; the returned list adds the first lt
    failure: no Z-basis detections, a singular system, infeasible yields,
    a degenerate state.
    """
    z_yields = yields[:, :, Z_ROWS]
    # (0Z, 0Z) + (1Z, 0Z) + (0Z, 1Z) + (1Z, 1Z), outcome first.
    z_sum = z_yields[:, 0, 0] + z_yields[:, 1, 0] + z_yields[:, 0, 1] + z_yields[:, 1, 1]
    # lt's own list: the caller's also serves lp.
    errors = list(errors)
    no_z = NoDetectionError("no Z-basis detections; e_X is undefined")
    _fail(errors, z_sum <= 0.0, no_z, terms.singular)

    ytil = yields[:, :, X_ROWS]
    todo = np.array([e is None for e in errors])
    lower, upper, infeasible = _lt_bounds(terms, ytil, todo, solver)
    _fail(errors, infeasible, InfeasibleStatisticsError(INFEASIBLE), terms.degenerate)

    v = terms.virtual
    y = virtual_yields(lower, upper, terms.corner, v[..., 0], v[..., 3], v[..., 5], v[..., 6])
    # Each Z bit is sent half the time, so z_sum / 2 is the probability
    # that a Z pulse is detected in Bob's Z basis.
    e_x = (y[:, 0] + y[:, 1]) / (z_sum / 2.0)
    return np.minimum(np.where(0.0 > e_x, 0.0, e_x), 1.0), errors
