"""The vertex solver's batched enumeration.

The polytope of every (point, outcome) is enumerated from each device's
closed-form triple inverses, many right-hand sides at a time.  These tests
hold it to the per-point LAPACK arithmetic it replaced, check that a
point's result does not depend on the points it is enumerated with, and
bound the memory one sweep takes.
"""

import tracemalloc

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
from flawedqkd.lt_estimator import _CHUNK, _TRIPLES, halfspace_rhs, halfspace_rows

PROBS = ProtocolProbabilities()
ALL_FLAWS = DeviceModel(delta=0.063, theta_hat=1e-3, theta_mode="dependent", mu=1e-7)
LOSSES = np.arange(0.0, 70.0 + 1e-9, 0.25)


def reference_systems(rows):
    """LAPACK det picks the regular triples of the per-point enumeration
    that the batched one replaced."""
    sub_a = rows[_TRIPLES]
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = np.abs(np.linalg.det(sub_a)) > 1e-14
    return sub_a[regular], _TRIPLES[regular]


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
    yields = detector_yields(prepared.prefactor, prepared.alignment, eta, p_d)
    return yields[:, :, X_ROWS] / prepared.prefactor[X_ROWS]


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


@pytest.mark.parametrize("points", [1, _CHUNK // 2 - 1, _CHUNK // 2, _CHUNK // 2 + 1, 701])
def test_sweep_rows_equal_single_points_across_chunk_edges(points):
    # A sweep point's two outcomes fill two right-hand sides of a chunk.
    config = SweepConfig(ALL_FLAWS, 0.0, 0.1 * (points - 1), 0.1, methods=("lt",), solver=VERTEX_LP)
    rows = run_sweep(config)
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
