"""The vertex solver's batched enumeration.

The polytope of every (point, outcome) is enumerated from each device's
closed-form triple inverses, many right-hand sides at a time, each
skipping the triples on physical facets its slab box cannot reach.  These
tests hold it to the per-point LAPACK arithmetic it replaced and to the
dense enumeration that solved every triple, derive the fixed triple table
exactly, check that a point's result does not depend on the points it is
enumerated with, and bound the memory one sweep takes.
"""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import flawedqkd.lt_estimator as lt_estimator
from flawedqkd import (
    VERTEX_LP,
    ChannelModel,
    DeviceModel,
    ProtocolProbabilities,
    SweepConfig,
    evaluate_grid,
    key_rate_lt,
    prepare,
    run_sweep,
)
from flawedqkd.channel import X_ROWS, detector_yields
from flawedqkd.lt_estimator import (
    _PHYSICAL_A,
    _PHYSICAL_B,
    _TRIPLES,
    halfspace_rhs,
    halfspace_rows,
)

PROBS = ProtocolProbabilities()
ALL_FLAWS = DeviceModel(delta=0.063, theta_hat=1e-3, theta_mode="dependent", mu=1e-7)
LOSSES = np.arange(0.0, 70.0 + 1e-9, 0.25)
ALL_TRIPLES = np.array(list(itertools.combinations(range(16), 3)))


def reference_systems(rows):
    """LAPACK det picks the regular triples of the per-point enumeration
    that the batched one replaced, out of all 560 triples of halfspaces."""
    sub_a = rows[ALL_TRIPLES]
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = np.abs(np.linalg.det(sub_a)) > 1e-14
    return sub_a[regular], ALL_TRIPLES[regular]


def reference_box(rows, systems, bvec):
    """One solve per regular triple gives its vertex, and a vertex is
    feasible within an absolute 1e-9 of every halfspace."""
    sub_a, triples = systems
    verts = np.linalg.solve(sub_a, bvec[triples][:, :, None])[:, :, 0]
    verts = verts[np.all(rows @ verts.T <= bvec[:, None] + 1e-9, axis=0)]
    if len(verts) == 0:
        return None
    return verts.min(axis=0), verts.max(axis=0)


def reference_lt_bounds(terms, ytil, todo, solver):
    """lt_estimator._lt_bounds in vertex mode, one point and outcome at a
    time; lt_phase_errors reads it by name, so a test can patch it."""
    assert solver == VERTEX_LP
    lower, upper = np.zeros_like(ytil), np.zeros_like(ytil)
    infeasible = np.zeros(todo.shape, dtype=bool)
    polytopes = {}
    for i in np.flatnonzero(todo).tolist():
        k = i % len(terms.coef)
        if k not in polytopes:
            rows = halfspace_rows(terms.coef[k])
            polytopes[k] = rows, reference_systems(rows)
        rows, systems = polytopes[k]
        for s in (0, 1):
            rhs = halfspace_rhs(ytil[i, s], terms.lam_min[k], terms.lam_max[k])
            box = reference_box(rows, systems, rhs)
            if box is None:
                infeasible[i] = True
                lower[i], upper[i] = 0.0, 0.0
                break
            lower[i, s], upper[i, s] = box
    return lower, upper, infeasible


def normalized_yields(prepared, eta, p_d):
    return detector_yields(prepared.alignment, eta, p_d)[:, :, X_ROWS]


def oracle_devices(theta_mode, n, seed):
    rng = np.random.default_rng(seed)
    return [
        DeviceModel(
            delta=float(rng.uniform(0.0, 0.3)),
            theta_hat=float(rng.uniform(0.0, 3e-3)),
            theta_mode=theta_mode,
            mu=float(10.0 ** rng.uniform(-9.0, -4.0)),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("theta_mode, seed", [("dependent", 20), ("independent", 21)])
def test_enumeration_matches_the_per_point_solves(monkeypatch, theta_mode, seed):
    eta = np.array([10.0 ** (-loss / 10.0) for loss in LOSSES.tolist()])
    todo = np.ones(len(eta), dtype=bool)
    for device in oracle_devices(theta_mode, 12, seed):
        prepared = prepare(device, PROBS)
        ytil = normalized_yields(prepared, eta, 1e-7)
        lower, upper, infeasible = lt_estimator._lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
        reference = reference_lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
        assert np.array_equal(infeasible, reference[2])
        assert np.abs(lower - reference[0]).max() <= 1e-15
        assert np.abs(upper - reference[1]).max() <= 1e-15

        # The same grid through the whole lt chain, with the reference boxes
        # in place of the batched ones; every point is to do.
        batched = evaluate_grid(prepared, eta, 1e-7, 1.16, ("lt",), VERTEX_LP)["lt"]
        with monkeypatch.context() as m:
            m.setattr(lt_estimator, "_lt_bounds", lambda terms, y, todo_, solver: reference)
            solved = evaluate_grid(prepared, eta, 1e-7, 1.16, ("lt",), VERTEX_LP)["lt"]
        assert batched.errors == solved.errors == [None] * len(eta)
        assert [f"{x:.10g}" for x in batched.e_x.tolist()] == [
            f"{x:.10g}" for x in solved.e_x.tolist()
        ]


@pytest.mark.parametrize("points", [1, 3, 4, 5, 701])
def test_sweep_rows_equal_single_points_across_chunk_edges(points):
    # A sweep point's two outcomes fill two right-hand sides of a chunk.
    # One point solves every triple; from three points on, the right-hand
    # sides skip the triples on facets they miss, in chunks of one missed
    # set each.
    config = SweepConfig(ALL_FLAWS, 0.0, 0.1 * (points - 1), 0.1, methods=("lt",), solver=VERTEX_LP)
    rows = run_sweep(config).rows()
    assert len(rows) == points
    for row in rows:
        assert row == key_rate_lt(ALL_FLAWS, ChannelModel(row.loss_db), PROBS, VERTEX_LP)


def test_failed_and_infeasible_points_leave_their_chunk_alone():
    # Points with no detections (eta = 0 at p_d = 0) are skipped inside a
    # chunk, and inflated yields make others infeasible; every other point
    # keeps the bits it has alone.
    prepared = prepare(ALL_FLAWS, PROBS)
    eta = np.array([10.0 ** (-loss / 10.0) for loss in np.arange(0.0, 13.0).tolist()])
    eta[[2, 5, 6]] = 0.0
    ytil = normalized_yields(prepared, eta, 0.0)
    ytil[[3, 9], 0, 1] *= 50.0
    todo = eta > 0.0
    lower, upper, infeasible = lt_estimator._lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
    assert np.flatnonzero(infeasible).tolist() == [3, 9]
    for i in np.flatnonzero(todo).tolist():
        alone = lt_estimator._lt_bounds(prepared.lt, ytil[i:i + 1], todo[i:i + 1], VERTEX_LP)
        assert np.array_equal(lower[i], alone[0][0])
        assert np.array_equal(upper[i], alone[1][0])
        assert infeasible[i] == alone[2][0]

    rates = evaluate_grid(prepared, eta, 0.0, 1.16, ("lt",), VERTEX_LP)["lt"]
    for i in range(len(eta)):
        alone = evaluate_grid(prepared, eta[i:i + 1], 0.0, 1.16, ("lt",), VERTEX_LP)["lt"]
        assert str(rates.errors[i]) == str(alone.errors[0])
        if rates.errors[i] is None:
            assert rates.e_x[i] == alone.e_x[0]


def test_batch_rows_equal_each_device_alone():
    # A crossover batch: m devices, one point each, each with its own
    # polytope; the collinear device fails before its enumeration.
    devices = [DeviceModel(delta, 1e-6, "dependent", 1e-8) for delta in np.linspace(0, 0.5, 11)]
    devices[5] = DeviceModel(theta_hat=1.0)
    eta = np.full(len(devices), 0.01)
    batch = evaluate_grid(prepare(devices, PROBS), eta, 1e-7, 1.16, ("lt",), VERTEX_LP)["lt"]
    assert [i for i, e in enumerate(batch.errors) if e is not None] == [5]
    for i, device in enumerate(devices):
        alone = evaluate_grid(prepare(device, PROBS), eta[:1], 1e-7, 1.16, ("lt",), VERTEX_LP)
        assert str(batch.errors[i]) == str(alone["lt"].errors[0])
        if batch.errors[i] is None:
            assert batch.e_x[i] == alone["lt"].e_x[0]
            assert batch.rate_raw[i] == alone["lt"].rate_raw[0]


def test_sweep_enumeration_memory_is_bounded():
    # A larger chunk trades memory for speed; past this the benchmark's
    # peak resident memory grows beyond its bound.
    prepared = prepare(ALL_FLAWS, PROBS)
    eta = np.array([10.0 ** (-0.01 * i) for i in range(701)])
    ytil = normalized_yields(prepared, eta, 1e-7)
    todo = np.ones(len(eta), dtype=bool)
    lt_estimator._lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
    tracemalloc.start()
    try:
        lt_estimator._lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20


def test_chunk_kernel_keeps_the_three_term_sums_and_the_masked_extremes():
    # On every chunk of a sweep, each vertex coordinate is the three-term
    # sum inv[i, 0] g0 + inv[i, 1] g1 + inv[i, 2] g2 bit for bit, each box
    # is the masked min and max of the feasible vertices by value (a zero
    # may change sign), and a right-hand side is feasible exactly when one
    # of its vertices is.
    prepared = prepare(ALL_FLAWS, PROBS)
    eta = np.array([10.0 ** (-loss / 10.0) for loss in LOSSES.tolist()])
    ytil = normalized_yields(prepared, eta, 1e-7)
    terms = prepared.lt
    rows = halfspace_rows(terms.coef[0])
    systems = lt_estimator.triple_inverses(rows)
    rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0]).reshape(-1, 16)
    some_infeasible = False
    for chunk, (triples, inv) in lt_estimator._chunks(systems, None, len(rhs)):
        b = rhs[chunk]
        verts, ok = lt_estimator._vertices(rows, (triples, inv), b)
        g = np.take(b, triples, axis=1)
        for i in range(3):
            want = inv[i, 0] * g[:, 0] + inv[i, 1] * g[:, 1] + inv[i, 2] * g[:, 2]
            assert verts[i].tobytes() == want.tobytes()
        lower, upper, feasible = lt_estimator.vertex_bounds(rows, (triples, inv), b)
        assert np.array_equal(lower, verts.min(axis=2, initial=np.inf, where=ok).T)
        assert np.array_equal(upper, verts.max(axis=2, initial=-np.inf, where=ok).T)
        assert np.array_equal(feasible, ok.any(axis=1))
        some_infeasible |= not ok.all()
    assert some_infeasible


def test_no_triples_leave_an_empty_box():
    rows = halfspace_rows(prepare(ALL_FLAWS, PROBS).lt.coef[0])
    systems = np.empty((3, 0), dtype=int), np.empty((3, 3, 0))
    lower, upper, feasible = lt_estimator.vertex_bounds(rows, systems, np.ones((2, 16)))
    assert (lower == np.inf).all() and (upper == -np.inf).all()
    assert not feasible.any()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunks_take_each_right_hand_side_once_within_the_budget(seed):
    # Six missed sets of a few facets each, so that chunks hold tens of
    # right-hand sides, and runs of up to 400 of each, in any order.
    rng = np.random.default_rng(seed)
    rows = halfspace_rows(prepare(ALL_FLAWS, PROBS).lt.coef[0])
    systems = lt_estimator.triple_inverses(rows)
    uses = lt_estimator._FACET_BIT_OF_ROW[systems[0]].sum(axis=0)
    masks = (rng.random((6, 10)) < 0.3) @ (1 << np.arange(10))
    missed = rng.permutation(np.repeat(masks, rng.integers(1, 400, len(masks))))
    taken = []
    for chunk, (triples, inv) in lt_estimator._chunks(systems, missed, len(missed)):
        skip = np.bitwise_and.reduce(missed[chunk])
        assert triples.shape[1] == inv.shape[2] == ((uses & skip) == 0).sum()
        assert len(missed[chunk]) == 1 or (
            128 * len(missed[chunk]) * triples.shape[1] <= lt_estimator._SLACK_BYTES)
        taken += np.arange(len(missed))[chunk].tolist()
    assert sorted(taken) == list(range(len(missed)))


def exact_det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def test_the_triple_table_drops_exactly_what_no_device_can_use():
    # Exact arithmetic over the physical rows and random rational slab rows
    # (+v_k, -v_k): a triple whose determinant vanishes for every draw is
    # singular for every device, and three physical rows meet in one fixed
    # vertex, which either is physical or never passes the feasibility test.
    rng = random.Random(29)
    physical = [[Fraction(int(a)) for a in row] for row in _PHYSICAL_A.tolist()]
    bounds = [Fraction(int(b)) for b in _PHYSICAL_B.tolist()]
    draws = []
    for _ in range(3):
        slabs = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(3)]
                 for _ in range(3)]
        draws.append([row for v in slabs for row in (v, [-x for x in v])] + physical)
    singular, unphysical, violations = [], [], []
    for triple in itertools.combinations(range(16), 3):
        if all(exact_det([rows[i] for i in triple]) == 0 for rows in draws):
            singular.append(triple)
        elif min(triple) >= 6:
            a = [physical[i - 6] for i in triple]
            b = [bounds[i - 6] for i in triple]
            det = exact_det(a)
            vertex = []
            for col in range(3):
                m = [row[:col] + [bi] + row[col + 1:] for row, bi in zip(a, b)]
                vertex.append(exact_det(m) / det)
            excess = max(sum(x * y for x, y in zip(row, vertex)) - bi
                         for row, bi in zip(physical, bounds))
            if excess > 0:
                unphysical.append(triple)
                violations.append(excess)
    assert (len(singular), len(unphysical)) == (128, 32)
    # Each dropped vertex breaks a physical row by far more than 1e-9.
    assert min(violations) >= Fraction(1, 2)
    dropped = set(singular) | set(unphysical)
    kept = [t for t in itertools.combinations(range(16), 3) if t not in dropped]
    assert [tuple(t) for t in _TRIPLES.tolist()] == kept
    assert len(kept) == 400


def numpy_usable_triples():
    """The triple table derived in floating point with numpy: vectorized
    slab-pair, parallel-pair and coplanarity tests, and the vertices of
    three physical rows by LAPACK solves, judged with the feasibility
    tolerance."""
    physical = np.vstack((np.zeros((6, 3)), _PHYSICAL_A))[ALL_TRIPLES]
    pairs = ALL_TRIPLES[:, :2] // 2 == ALL_TRIPLES[:, 1:] // 2
    slab_pair = (pairs & (ALL_TRIPLES[:, 1:] < 6)).any(axis=1)
    cross = np.cross(physical[:, 1], physical[:, 2])
    count = (ALL_TRIPLES >= 6).sum(axis=1)
    dependent = np.where(count == 3, (physical[:, 0] * cross).sum(axis=1) == 0.0,
                         (count == 2) & ~cross.any(axis=1))
    fixed = (count == 3) & ~dependent
    verts = np.linalg.solve(physical[fixed], _PHYSICAL_B[ALL_TRIPLES[fixed] - 6][:, :, None])
    unphysical = np.zeros(len(ALL_TRIPLES), dtype=bool)
    excess = verts[:, :, 0] @ _PHYSICAL_A.T > _PHYSICAL_B + lt_estimator._FEAS_TOL
    unphysical[fixed] = excess.any(axis=1)
    return ALL_TRIPLES[~(slab_pair | dependent | unphysical)]


def test_integer_triple_table_equals_the_numpy_derivation():
    # The table is derived at import in integer arithmetic; the numpy
    # derivation gives the same rows in the same order.
    expected = numpy_usable_triples()
    assert _TRIPLES.shape == expected.shape == (400, 3)
    assert _TRIPLES.dtype == expected.dtype
    assert np.array_equal(_TRIPLES, expected)


# A copy of the enumeration that solved every one of the 560 triples for
# every right-hand side, in chunks of 8 right-hand sides: the same
# closed-form inverses, vertices, slacks and masked extremes.
DENSE_FIRST_ROW = 3 * ALL_TRIPLES[:, 0] + np.arange(3)[:, None]
DENSE_CHUNK = 8


def dense_cross_gathers():
    i = np.arange(3)[:, None, None]
    u, v = 3 * ALL_TRIPLES[:, [1, 2, 0]].T, 3 * ALL_TRIPLES[:, [2, 0, 1]].T
    return np.stack((u + (i + 1) % 3, v + (i + 2) % 3, u + (i + 2) % 3, v + (i + 1) % 3))


DENSE_CROSS = dense_cross_gathers()


def dense_triple_inverses(rows):
    flat = rows.ravel()
    u, v, u_swap, v_swap = flat[DENSE_CROSS]
    adjugate = u * v - u_swap * v_swap
    first = flat[DENSE_FIRST_ROW]
    det = first[0] * adjugate[0, 0] + first[1] * adjugate[1, 0] + first[2] * adjugate[2, 0]
    regular = np.abs(det) > 1e-14
    return ALL_TRIPLES.T[:, regular], adjugate[:, :, regular] / det[regular]


def dense_vertex_bounds(rows, systems, rhs):
    triples, inv = systems
    lower, upper = np.empty((len(rhs), 3)), np.empty((len(rhs), 3))
    feasible = np.empty(len(rhs), dtype=bool)
    for start in range(0, len(rhs), DENSE_CHUNK):
        chunk = slice(start, start + DENSE_CHUNK)
        g = np.take(rhs[chunk], triples, axis=1)
        g0, g1, g2 = g[:, 0], g[:, 1], g[:, 2]
        verts = np.stack([inv[i, 0] * g0 + inv[i, 1] * g1 + inv[i, 2] * g2 for i in range(3)])
        slack = (rows @ verts.reshape(3, -1)).reshape(len(rows), *g0.shape)
        ok = np.logical_and.reduce(slack <= (rhs[chunk].T + 1e-9)[:, :, None], axis=0)
        lower[chunk] = verts.min(axis=2, initial=np.inf, where=ok).T
        upper[chunk] = verts.max(axis=2, initial=-np.inf, where=ok).T
        feasible[chunk] = ok.any(axis=1)
    return lower, upper, feasible


def dense_lt_bounds(terms, ytil, todo, solver):
    """lt_estimator._lt_bounds in vertex mode with the dense enumeration."""
    assert solver == VERTEX_LP
    lower, upper = np.zeros_like(ytil), np.zeros_like(ytil)
    feasible = np.ones(ytil.shape[:2], dtype=bool)
    points = np.flatnonzero(todo)
    groups = [(0, points)] if len(terms.coef) == 1 else [(i, [i]) for i in points.tolist()]
    for k, idx in groups:
        rows = halfspace_rows(terms.coef[k])
        rhs = halfspace_rhs(ytil[idx], terms.lam_min[k], terms.lam_max[k])
        lo, hi, ok = dense_vertex_bounds(rows, dense_triple_inverses(rows), rhs.reshape(-1, 16))
        lower[idx], upper[idx] = lo.reshape(-1, 2, 3), hi.reshape(-1, 2, 3)
        feasible[idx] = ok.reshape(-1, 2)
    infeasible = ~feasible.all(axis=1)
    lower[infeasible], upper[infeasible] = 0.0, 0.0
    return lower, upper, infeasible


@pytest.mark.parametrize("seed", [290, 291, 292, 293])
def test_skipping_unreachable_facets_keeps_the_dense_enumeration(monkeypatch, seed):
    # Random devices far beyond the paper's (delta and theta_hat up to 0.5,
    # mu up to 0.1), losses up to 400 dB.  Every fourth has no leak, no
    # rotation and no dark counts: its slabs are exact planes, and beyond
    # about 60 dB its yields fall below the absolute feasibility tolerance,
    # which lets the polytopes reach facets their exact slabs miss.  Boxes
    # and feasibility equal the dense enumeration's by value (a zero may
    # change sign), and e_x, the rate and the errors bit for bit.
    rng = np.random.default_rng(seed)
    for i in range(25):
        exact = i % 4 == 0
        device = DeviceModel(
            delta=float(rng.uniform(0.0, 0.5)),
            theta_hat=0.0 if exact else float(rng.uniform(0.0, 0.5)),
            theta_mode=("dependent", "independent")[int(rng.integers(2))],
            mu=0.0 if exact else float(10.0 ** rng.uniform(-9.0, -1.0)),
        )
        prepared = prepare(device, PROBS)
        losses = np.sort(rng.uniform(0.0, 400.0, int(rng.integers(3, 40))))
        eta = np.array([10.0 ** (-loss / 10.0) for loss in losses.tolist()])
        p_d = 0.0 if exact else float(10.0 ** rng.uniform(-9.0, -2.0))
        if prepared.lt.singular[0] is None:
            ytil = normalized_yields(prepared, eta, p_d)
            todo = np.ones(len(eta), dtype=bool)
            skipped = lt_estimator._lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
            dense = dense_lt_bounds(prepared.lt, ytil, todo, VERTEX_LP)
            for got, want in zip(skipped, dense):
                assert np.array_equal(got, want)

        rates = evaluate_grid(prepared, eta, p_d, 1.16, ("lt",), VERTEX_LP)["lt"]
        with monkeypatch.context() as m:
            m.setattr(lt_estimator, "_lt_bounds", dense_lt_bounds)
            want = evaluate_grid(prepared, eta, p_d, 1.16, ("lt",), VERTEX_LP)["lt"]
        assert rates.e_x.tobytes() == want.e_x.tobytes()
        assert rates.rate_raw.tobytes() == want.rate_raw.tobytes()
        assert list(map(str, rates.errors)) == list(map(str, want.errors))
