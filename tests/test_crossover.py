"""The crossover search evaluates its devices in batches.

Every record, and every failure the search raises, must be the one the
value-by-value search gives: ``serial_crossover`` below is that search,
each device prepared and evaluated alone.  A configuration the config
rejects when it is built is an outcome too, the same for both searches.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flawedqkd import (
    PAPER_FAITHFUL,
    VERTEX_LP,
    ChannelModel,
    CrossoverConfig,
    CrossoverRecord,
    DeviceModel,
    SingularSystemError,
    evaluate_grid,
    find_crossover,
    prepare,
    system_efficiency,
)
from flawedqkd import engine, qstates
from flawedqkd.engine import SWEPT_FIELDS

METHODS = ("lt", "lp")
DELTA_SCAN = tuple(i * 0.01 for i in range(51))


def serial_crossover(config, prepare=prepare):
    """The search one device at a time, swept value by swept value."""
    channel = ChannelModel(config.compare_loss_db, config.p_d, config.f_ec)
    eta = np.array([system_efficiency(channel)])

    def rates(delta, swept_value):
        swept = {SWEPT_FIELDS[config.swept_param]: swept_value}
        device = dataclasses.replace(config.device, delta=delta, **swept)
        prepared = prepare(device, config.probs)
        both = evaluate_grid(prepared, eta, channel.p_d, channel.f_ec, METHODS, config.solver)
        for result in both.values():
            if result.errors[0] is not None:
                raise result.errors[0]
        lt, lp = (max(float(both[m].rate_raw[0]), 0.0) for m in METHODS)
        return lt, lp

    records = []
    for value in config.swept_values:
        # The scan stops at the first strict sign change.
        gaps, bracket = [], None
        for i, d in enumerate(DELTA_SCAN):
            rate_lt, rate_lp = rates(d, value)
            gaps.append(rate_lt - rate_lp)
            if i and gaps[i - 1] != 0.0 and gaps[i] != 0.0 and gaps[i - 1] * gaps[i] < 0.0:
                bracket = (DELTA_SCAN[i - 1], d, gaps[i - 1])
                break
        if bracket is None:
            records.append(
                CrossoverRecord(config.swept_param, value, None, None, None, "no-crossover")
            )
            continue
        lo, hi, g_lo = bracket
        while hi - lo > config.bisection_tolerance and lo < (lo + hi) / 2.0 < hi:
            mid = (lo + hi) / 2.0
            rate_lt, rate_lp = rates(mid, value)
            g_mid = rate_lt - rate_lp
            if g_mid == 0.0:
                lo = hi = mid
                break
            if (g_mid > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        delta_star = (lo + hi) / 2.0
        records.append(
            CrossoverRecord(
                config.swept_param, value, delta_star, *rates(delta_star, value), "crossover"
            )
        )
    return records


def outcome(search, kwargs):
    # kwargs of the config, with the device's as a dict: the config and the
    # device are built here, so that a value they reject is an outcome.
    try:
        return search(CrossoverConfig(**{**kwargs, "device": DeviceModel(**kwargs["device"])}))
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def config_kwargs(swept_param, swept_values, held, **rest):
    # The kwargs of a config whose device holds the flaw not swept at held.
    held_field = "mu" if swept_param == "theta" else "theta_hat"
    device = {held_field: held, "theta_mode": rest.pop("theta_mode", "dependent")}
    return dict(swept_param=swept_param, swept_values=swept_values, device=device, **rest)


# Flaws around the crossover frontier, collinear and degenerate devices, and
# values the device model rejects.
thetas = st.one_of(
    st.floats(0.0, 2e-3),
    st.sampled_from([0.0, 1e-6, 0.3, 1.0, 1.2, 1.6]),
)
mus = st.one_of(
    st.floats(-12.0, -1.0).map(lambda e: 10.0 ** e),
    st.sampled_from([0.0, 1e-9, 1e-7, 0.5, 800.0, -1.0]),
)
# Up to the subnormal transmittances, where e_z can turn negative (about
# 3,070 to 3,226 dB with p_d = 0; the point's slot holds the error) and the
# Z yields and then all detections vanish.
compare_losses = st.one_of(
    st.floats(0.0, 60.0), st.floats(3150.0, 3300.0), st.sampled_from([3203.0, 3225.2])
)


@st.composite
def configs(draw, solver, max_values):
    swept = draw(st.sampled_from(["theta", "mu"]))
    swept_values = draw(st.lists(thetas if swept == "theta" else mus, min_size=1,
                                 max_size=max_values))
    return config_kwargs(
        swept,
        tuple(swept_values),
        draw(mus if swept == "theta" else thetas),
        compare_loss_db=draw(compare_losses),
        bisection_tolerance=10.0 ** draw(st.floats(-10.0, -3.0)),
        theta_mode=draw(st.sampled_from(["independent", "dependent"])),
        p_d=draw(st.sampled_from([0.0, 1e-7])),
        solver=solver,
    )


@given(kwargs=configs(PAPER_FAITHFUL, 4))
@example(kwargs=config_kwargs("theta", (1e-5, 1.0, 0.1), 1e-9))
@example(kwargs=config_kwargs("mu", (1e-9, 1e-3), 1e-6, compare_loss_db=3203.0, p_d=0.0))
@example(kwargs=config_kwargs("mu", (1e-9,), 1e-6, compare_loss_db=3225.2, p_d=0.0))
@example(kwargs=config_kwargs("mu", (1e-9, 800.0), 1e-3, theta_mode="independent"))
@example(kwargs=config_kwargs("theta", (1e-5, 2.0), 1e-9))
@settings(max_examples=40)
def test_batched_search_equals_the_serial_search(kwargs):
    assert outcome(find_crossover, kwargs) == outcome(serial_crossover, kwargs)


@given(kwargs=configs(VERTEX_LP, 2))
@settings(max_examples=6)
def test_batched_vertex_search_equals_the_serial_search(kwargs):
    assert outcome(find_crossover, kwargs) == outcome(serial_crossover, kwargs)


def faulty_prepare(faults):
    """prepare, with the devices at the (mu, delta) points of faults made
    singular with the given error."""

    def prepare_with_faults(devices, probs, fixed=None):
        prepared = prepare(devices, probs, fixed)
        devices = [devices] if isinstance(devices, DeviceModel) else devices
        singular = tuple(faults.get((mu, delta), s)
                         for (delta, _, _, mu), s in zip(devices, prepared.lt.singular))
        return dataclasses.replace(prepared, lt=dataclasses.replace(prepared.lt, singular=singular))

    return prepare_with_faults


def searches(monkeypatch, faults):
    # The batched and the serial search, both with the faults.
    monkeypatch.setattr(engine, "prepare", faulty_prepare(faults))
    return find_crossover, lambda c: serial_crossover(c, faulty_prepare(faults))


def test_earlier_record_fails_first(monkeypatch):
    # Record 1 fails in its scan, before its bracket (0.05, 0.06); record 0
    # fails later, at its third bisection step.  A value-by-value search
    # meets record 0's failure first, so that is the one raised.
    config = CrossoverConfig("mu", (1e-9, 1e-8), DeviceModel(theta_hat=1e-6),
                             bisection_tolerance=1e-6)
    visited = []

    def logging_prepare(devices, probs):
        if isinstance(devices, DeviceModel):
            visited.append((devices.mu, devices.delta))
        return prepare(devices, probs)

    serial_crossover(config, logging_prepare)
    steps = [delta for mu, delta in visited if mu == 1e-9 and delta not in DELTA_SCAN]
    faults = {
        (1e-9, steps[2]): SingularSystemError("record 0, bisection step 3"),
        (1e-8, DELTA_SCAN[3]): SingularSystemError("record 1, scan"),
    }
    for search in searches(monkeypatch, faults):
        with pytest.raises(SingularSystemError, match="record 0, bisection step 3"):
            search(config)
    del faults[1e-9, steps[2]]
    for search in searches(monkeypatch, faults):
        with pytest.raises(SingularSystemError, match="record 1, scan"):
            search(config)


def test_scan_stops_at_the_first_sign_change(monkeypatch):
    # Record 0 brackets at (0.05, 0.06), so its faults past the bracket, in
    # the bracket's batch (0.07) or later (0.2), are never met; record 1
    # never crosses, so its scan reaches delta = 0.5.
    config = CrossoverConfig("mu", (1e-8, 1e-3), DeviceModel(theta_hat=1e-6),
                             bisection_tolerance=1e-6)
    records = find_crossover(config)
    assert [r.status for r in records] == ["crossover", "no-crossover"]
    faults = {(1e-8, DELTA_SCAN[i]): SingularSystemError("record 0, past its bracket")
              for i in (7, 20)}
    for search in searches(monkeypatch, faults):
        assert search(config) == records
    faults[1e-3, DELTA_SCAN[50]] = SingularSystemError("record 1, last scan point")
    for search in searches(monkeypatch, faults):
        with pytest.raises(SingularSystemError, match="record 1, last scan point"):
            search(config)


def test_lazy_scan_device_count(monkeypatch):
    # Every bracket of this grid lies below delta = 0.11, so the lazy scan
    # evaluates few of the 51 scan points per value; bisection takes 27
    # steps per value and the final delta* one more.  Scanning all 51
    # points of every value took 3,160 devices in 68 batches.
    counted = []

    def counting_evaluate_grid(prepared, eta, *args):
        counted.append(len(eta))
        return evaluate_grid(prepared, eta, *args)

    monkeypatch.setattr(engine, "evaluate_grid", counting_evaluate_grid)
    mus = tuple(10.0 ** (-9.0 + 2.0 * i / 39) for i in range(40))
    config = CrossoverConfig("mu", mus, DeviceModel(theta_hat=1e-6), compare_loss_db=20.0,
                             bisection_tolerance=1e-10)
    records = find_crossover(config)
    assert all(r.status == "crossover" for r in records)
    assert (sum(counted), len(counted)) == (1495, 31)


def test_crossover_computes_each_swept_values_fixed_terms_once(monkeypatch):
    # The 40-value search of test_lazy_scan_device_count shares one dict of
    # delta-independent source terms over its 31 batches: one _fixed_terms
    # call per swept value, and the same 1,495 devices.
    calls, counted = [], []

    def counting_fixed_terms(*key):
        calls.append(key)
        return fixed_terms(*key)

    def counting_evaluate_grid(prepared, eta, *args):
        counted.append(len(eta))
        return evaluate_grid(prepared, eta, *args)

    fixed_terms = qstates._fixed_terms
    monkeypatch.setattr(qstates, "_fixed_terms", counting_fixed_terms)
    monkeypatch.setattr(engine, "evaluate_grid", counting_evaluate_grid)
    mus = tuple(10.0 ** (-9.0 + 2.0 * i / 39) for i in range(40))
    config = CrossoverConfig("mu", mus, DeviceModel(theta_hat=1e-6), compare_loss_db=20.0,
                             bisection_tolerance=1e-10)
    records = find_crossover(config)
    assert all(r.status == "crossover" for r in records)
    assert (sum(counted), len(counted)) == (1495, 31)
    assert sorted(calls) == [(1e-6, True, mu) for mu in mus]
    # The dict lives for one call: a second search computes them again.
    assert find_crossover(config) == records
    assert len(calls) == 80


@pytest.mark.parametrize(
    "tol, batches",
    [(1e-10, [5, 5, 1, 1]), (0.02, [5, 5, 1])],
    ids=["exact-zero-at-a-midpoint", "tolerance-wider-than-the-grid-bracket"],
)
def test_synthetic_gap_ends_the_bisection(monkeypatch, tol, batches):
    # The gap delta - 0.055 brackets at (0.05, 0.06), whose midpoint is
    # 0.055: at tolerance 1e-10 the first step lands on the exact zero and
    # ends the bisection; at 0.02 the bracket is already narrower than the
    # tolerance, so no step is taken.  Either way delta* is 0.055.
    sizes = []

    def synthetic_rates(config, eta, points, fixed):
        if points:
            sizes.append(len(points))
        return [(1.0, 1.0) if d == 0.055 else (d, 0.055) for d, _ in points]

    monkeypatch.setattr(engine, "_rates", synthetic_rates)
    config = CrossoverConfig("mu", (1e-9,), DeviceModel(theta_hat=1e-6),
                             bisection_tolerance=tol)
    assert find_crossover(config) == [CrossoverRecord("mu", 1e-9, 0.055, 1.0, 1.0, "crossover")]
    assert sizes == batches
