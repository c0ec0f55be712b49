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
from flawedqkd import engine
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
        gaps = [lt - lp for lt, lp in (rates(d, value) for d in DELTA_SCAN)]
        bracket = None
        for i in range(len(DELTA_SCAN) - 1):
            if gaps[i] != 0.0 and gaps[i + 1] != 0.0 and gaps[i] * gaps[i + 1] < 0.0:
                bracket = (DELTA_SCAN[i], DELTA_SCAN[i + 1], gaps[i])
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


def test_earlier_record_fails_first(monkeypatch):
    # Record 1 fails in its scan; record 0 fails later, at its third
    # bisection step.  A value-by-value search meets record 0's failure
    # first, so that is the one raised.
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
        (1e-8, 0.2): SingularSystemError("record 1, scan"),
    }

    def faulty_prepare(devices, probs):
        prepared = prepare(devices, probs)
        devices = [devices] if isinstance(devices, DeviceModel) else devices
        singular = tuple(faults.get((d.mu, d.delta), s)
                         for d, s in zip(devices, prepared.lt.singular))
        return dataclasses.replace(prepared, lt=dataclasses.replace(prepared.lt, singular=singular))

    monkeypatch.setattr(engine, "prepare", faulty_prepare)
    for search in (find_crossover, lambda c: serial_crossover(c, faulty_prepare)):
        with pytest.raises(SingularSystemError, match="record 0, bisection step 3"):
            search(config)
    del faults[1e-9, steps[2]]
    for search in (find_crossover, lambda c: serial_crossover(c, faulty_prepare)):
        with pytest.raises(SingularSystemError, match="record 1, scan"):
            search(config)
