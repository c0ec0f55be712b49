"""A sweep evaluates its whole loss grid as arrays from one prepared device.

Every row must carry exactly the bits of a one-point evaluation at its
loss, so neither the grid length nor the array shapes may change a value,
and the bits of the scalar per-point arithmetic the arrays replaced.
"""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flawedqkd import (
    PAPER_FAITHFUL,
    SOLVER_MODES,
    ChannelModel,
    DegenerateStateError,
    DeviceModel,
    EstimatorError,
    NoDetectionError,
    ProtocolProbabilities,
    SingularSystemError,
    SweepConfig,
    coin_imbalance,
    evaluate_grid,
    key_rate_lp,
    key_rate_lt,
    loss_grid,
    prepare,
    run_sweep,
    system_efficiency,
)
from flawedqkd.channel import yield_alignments
from flawedqkd.engine import Sweep, SweepRow
import flawedqkd.grid as grid
from flawedqkd.grid import GridRates
from flawedqkd.lt_estimator import LtTerms
from flawedqkd.qstates import source_terms

# Small flaws, plus the devices whose lt evaluation fails everywhere.
devices = st.one_of(
    st.builds(
        DeviceModel,
        delta=st.floats(0.0, 0.4),
        theta_hat=st.floats(0.0, 5e-3),
        theta_mode=st.sampled_from(["independent", "dependent"]),
        mu=st.floats(0.0, 1e-4),
    ),
    st.sampled_from(
        [DeviceModel(theta_hat=1.0), DeviceModel(delta=3.14159265), DeviceModel(mu=2000)]
    ),
)
dark_counts = st.sampled_from([0.0, 1e-9, 1e-7, 1e-5])
probabilities = st.builds(
    ProtocolProbabilities, p_za=st.floats(0.05, 0.95), p_zb=st.floats(0.05, 0.95)
)
METHOD_POINTS = {
    "lt": lambda device, channel, probs, solver: key_rate_lt(device, channel, probs, solver),
    "lp": lambda device, channel, probs, solver: key_rate_lp(device, channel, probs),
}


def assert_row_matches_point(row, device, p_d, f_ec, probs, solver):
    channel = ChannelModel(row.loss_db, p_d, f_ec)
    try:
        point = METHOD_POINTS[row.method](device, channel, probs, solver)
    except EstimatorError as exc:
        assert row.error == str(exc)
        return
    assert row == point


@given(
    device=devices,
    p_d=dark_counts,
    f_ec=st.floats(1.0, 1.5),
    probs=probabilities,
    start=st.floats(0.0, 80.0),
    step=st.floats(0.01, 5.0),
    points=st.integers(1, 40),
    solver=st.sampled_from(SOLVER_MODES),
)
@settings(max_examples=60)
def test_sweep_rows_equal_single_points(device, p_d, f_ec, probs, start, step, points, solver):
    stop = start + step * (points - 1)
    rows = run_sweep(SweepConfig(device, start, stop, step, p_d, f_ec, probs, solver=solver))
    assert len(rows) == 2 * len(loss_grid(start, stop, step))
    for row in rows:
        assert_row_matches_point(row, device, p_d, f_ec, probs, solver)


@given(
    device=devices,
    p_d=dark_counts,
    losses=st.lists(st.floats(0.0, 120.0), min_size=1, max_size=30),
)
@settings(max_examples=40)
def test_grid_order_and_length_leave_values_alone(device, p_d, losses):
    # An unsorted grid, its reverse and each point alone give the same bits.
    probs = ProtocolProbabilities()
    prepared = prepare(device, probs)
    eta = np.array([system_efficiency(ChannelModel(loss)) for loss in losses])
    forward = evaluate_grid(prepared, eta, p_d, 1.16)
    backward = evaluate_grid(prepared, eta[::-1].copy(), p_d, 1.16)
    for i in range(len(losses)):
        alone = evaluate_grid(prepared, eta[i:i + 1], p_d, 1.16)
        for method, rates in forward.items():
            reverse = len(losses) - 1 - i
            for other, j in ((alone[method], 0), (backward[method], reverse)):
                assert (other.errors[j] is None) == (rates.errors[i] is None)
                if rates.errors[i] is None:
                    assert other.e_z[j] == rates.e_z[i]
                    assert other.e_x[j] == rates.e_x[i]
                    assert other.rate_raw[j] == rates.rate_raw[i]


def per_point_reference(device, loss, p_d, f_ec, probs):
    """The paper-solver lt and the lp rows at one loss, computed scalar by
    scalar in the operand order of the per-point code the grid replaced:
    (e_z, e_x, rate_raw) per method, or the estimator's error message.
    Like the grid, lt works on yields conditional on the sent pulse and
    Bob's basis; p_za and p_zb enter only the rate."""
    eta = 10.0 ** (-loss / 10.0)
    d = delta = device.delta
    y_det = 4.0 * (1.0 - eta / 2.0) * p_d + eta
    if y_det <= 0.0:
        return {m: "no detections: eta = 0 and p_d = 0" for m in ("lt", "lp")}
    e_z = (
        2.0 * (1.0 - eta / 2.0) * p_d
        + eta / 2.0
        + (eta / 4.0) * (math.cos(2 * delta) + math.cos(delta)) * (p_d - 1.0)
    ) / y_det
    if e_z < 0.0:
        return {m: f"e_z = {e_z} < 0 at eta = {eta}" for m in ("lt", "lp")}
    y_z = probs.p_za * probs.p_zb * y_det

    def h(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)

    def rate(e_x):
        return e_z, e_x, y_z * (1.0 - h(min(e_x, 0.5)) - f_ec * h(min(e_z, 0.5)))

    out = {}
    source = source_terms([device])
    # Python floats, as prepare passes them.
    enhanced = coin_imbalance(source.overlaps[0].tolist()) / y_det
    if enhanced > 0.5:
        out["lp"] = rate(1.0)
    else:
        e, dp = min(e_z, 0.5), enhanced
        e_x = e + 4.0 * dp * (1.0 - dp) * (1.0 - 2.0 * e) + 4.0 * (1.0 - 2.0 * dp) * math.sqrt(
            dp * (1.0 - dp) * e * (1.0 - e)
        )
        out["lp"] = rate(min(e_x, 1.0))

    # Keyed by (outcome, sent) setting, numbered 0Z, 1Z, 0X, 1X.
    yields = {}
    x_pair, z_pair = (2, 3), (0, 1)
    for sent, (zero, one), c in (
        (0, x_pair, math.sin(d / 2)),
        (0, z_pair, math.cos(d)),
        (1, x_pair, -math.sin(3 * d / 2)),
        (1, z_pair, -math.cos(2 * d)),
        (2, x_pair, math.cos(d)),
    ):
        yields[zero, sent] = (
            (1.0 - eta / 2.0) * p_d
            + (eta / 4.0) * (1.0 + c) * (1.0 - p_d / 2.0)
            + (eta / 8.0) * (1.0 - c) * p_d
        )
        yields[one, sent] = (
            (1.0 - eta / 2.0) * p_d
            + (eta / 8.0) * (1.0 + c) * p_d
            + (eta / 4.0) * (1.0 - c) * (1.0 - p_d / 2.0)
        )
    z_sum = yields[0, 0] + yields[1, 0] + yields[0, 1] + yields[1, 1]
    if z_sum <= 0.0:
        out["lt"] = "no Z-basis detections; e_X is undefined"
        return out
    decs = source.sent[0]
    coef = np.array([(w, w * px, w * pz) for w, *_, px, pz in decs]).T
    if abs(np.linalg.det(coef)) < 1e-12:
        out["lt"] = "the three encoding states are collinear; the yield system cannot be inverted"
        return out
    inv = np.linalg.inv(coef)
    lam_min = np.array([q[4] for q in decs])
    lam_max = np.array([q[3] for q in decs])
    num = 0.0
    for s, j in ((0, 1), (1, 0)):
        ytil = np.array([yields[2 + s, k] for k in range(3)])
        central = ytil @ inv
        low = central + np.minimum(-lam_min[:, None] * inv, -lam_max[:, None] * inv).sum(axis=0)
        up = central + np.maximum(-lam_min[:, None] * inv, -lam_max[:, None] * inv).sum(axis=0)
        reach = min(min(up[0], 1.0), 1.0 - max(low[0], 0.0), 0.5)
        if reach < max(low[1], -up[1], low[2], -up[2], 0.0) - 1e-9:
            out["lt"] = "no physical transmission rates are consistent with the yields"
            return out
        if source.degenerate[0] is not None:
            raise source.degenerate[0]
        a_j, _, _, lam_max_j, _, px, pz = source.virtual[0, j]
        val = up[0]
        val += px * (up[1] if px >= 0.0 else low[1])
        val += pz * (up[2] if pz >= 0.0 else low[2])
        num += max(a_j * val + lam_max_j, 0.0)
    # Each Z bit is sent half the time.  Near a subnormal eta the Z sum is
    # tiny and the ratio may overflow.
    with np.errstate(over="ignore"):
        e_x = num / (z_sum / 2.0)
    out["lt"] = rate(float(min(max(e_x, 0.0), 1.0)))
    return out


@given(
    device=st.builds(
        DeviceModel,
        delta=st.floats(0.0, 0.4),
        theta_hat=st.floats(0.0, 5e-3),
        theta_mode=st.sampled_from(["independent", "dependent"]),
        mu=st.floats(0.0, 1e-4),
    ),
    p_d=dark_counts,
    f_ec=st.floats(1.0, 1.5),
    probs=probabilities,
    start=st.one_of(st.floats(0.0, 80.0), st.floats(3150.0, 3300.0)),
    step=st.floats(0.01, 5.0),
    points=st.integers(1, 40),
)
@settings(max_examples=60)
def test_sweep_rows_equal_the_per_point_arithmetic(device, p_d, f_ec, probs, start, step, points):
    stop = start + step * (points - 1)
    rows = run_sweep(SweepConfig(device, start, stop, step, p_d, f_ec, probs))
    for row in rows:
        expected = per_point_reference(device, row.loss_db, p_d, f_ec, probs)[row.method]
        if isinstance(expected, str):
            assert row.error == expected
        else:
            assert (row.e_z, row.e_x, row.rate_raw) == expected


def test_pinned_point_at_a_fifth_of_a_db():
    # The grid's eta is Python's 10.0 ** (-loss / 10.0) per point; a
    # vectorized power differs from it in the last bit first at 0.2 dB.
    device = DeviceModel(delta=0.063, theta_hat=1e-3, mu=1e-7)
    probs = ProtocolProbabilities()
    for solver in SOLVER_MODES:
        rows = run_sweep(SweepConfig(device, 0.0, 0.4, 0.2, probs=probs, solver=solver))
        at_fifth = [row for row in rows if row.loss_db == 0.2]
        assert [row.method for row in at_fifth] == ["lt", "lp"]
        for row in at_fifth:
            assert row.eta == 10.0 ** (-0.2 / 10.0)
            assert_row_matches_point(row, device, 1e-7, 1.16, probs, solver)


def selection_draws(seed, n):
    """Seeded (device, p_d, probs) draws: small flaws in both theta modes,
    every fourth device delta-only, p_d 0 or 1e-7, and two random (p_za,
    p_zb) pairs per device."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        delta_only = i % 4 == 0
        device = DeviceModel(
            delta=float(rng.uniform(0.0, 0.3)),
            theta_hat=0.0 if delta_only else float(rng.choice([0.0, rng.uniform(0.0, 5e-3)])),
            theta_mode=str(rng.choice(["independent", "dependent"])),
            mu=0.0 if delta_only else float(rng.choice([0.0, 10.0 ** rng.uniform(-9.0, -4.0)])),
        )
        probs = [ProtocolProbabilities(*rng.uniform(0.05, 0.95, 2).tolist()) for _ in range(2)]
        draws.append((device, float(rng.choice([0.0, 1e-7])), probs))
    return draws


def test_error_rates_do_not_depend_on_the_selection_probabilities():
    # lt works on yields conditional on the sent pulse and Bob's basis and
    # lp on the detection probability, so p_za and p_zb enter only the
    # rate: each point's failure, e_z and e_x keep the default's bits.
    eta = np.array([10.0 ** (-loss / 10.0) for loss in (0.0, 0.2, 3.0, 10.0, 20.0, 35.0, 60.0)])

    def error_rates(device, probs, p_d, solver):
        # Per method and point, the failure or the bits of e_z and e_x.
        rates = evaluate_grid(prepare(device, probs), eta, p_d, 1.16, solver=solver)
        return {m: [str(e) if e is not None else (z.hex(), x.hex())
                    for e, z, x in zip(r.errors, r.e_z.tolist(), r.e_x.tolist())]
                for m, r in rates.items()}

    for device, p_d, draws in selection_draws(seed=37, n=300):
        for solver in SOLVER_MODES:
            default = error_rates(device, ProtocolProbabilities(), p_d, solver)
            for probs in draws:
                assert error_rates(device, probs, p_d, solver) == default, (device, probs, solver)
    device, channel = DeviceModel(delta=0.1, theta_hat=1e-3, mu=1e-6), ChannelModel(10.0)
    e_x = key_rate_lt(device, channel, ProtocolProbabilities(), PAPER_FAITHFUL).e_x
    assert e_x == 0.17093718566272897
    assert key_rate_lt(device, channel, ProtocolProbabilities(p_za=0.3), PAPER_FAITHFUL).e_x == e_x


class TestErrorsPerPoint:
    def test_device_failure_yields_to_no_detections(self):
        # 0 and 2500 dB detect something, 5000 dB (eta = 0) nothing at all
        prepared = prepare(DeviceModel(theta_hat=1.0), ProtocolProbabilities())
        eta = np.array([1.0, 1e-250, 0.0])
        rates = evaluate_grid(prepared, eta, 0.0, 1.16)
        kinds = [type(e) for e in rates["lt"].errors]
        assert kinds == [SingularSystemError, SingularSystemError, NoDetectionError]
        assert [e is None for e in rates["lp"].errors] == [True, True, False]

    def test_underflowing_qubit_weights_are_singular(self):
        # At mu = 709 the qubit weights are subnormal and the determinant
        # underflows; numpy's det used to warn, which aborted the call.
        prepared = prepare(DeviceModel(mu=709.0, theta_mode="independent"), ProtocolProbabilities())
        assert isinstance(prepared.lt.singular[0], SingularSystemError)

    def test_degenerate_virtual_state_fails_only_lt(self):
        prepared = prepare(DeviceModel(delta=3.14159265), ProtocolProbabilities())
        rates = evaluate_grid(prepared, np.array([0.1, 0.01]), 1e-7, 1.16)
        assert all(isinstance(e, DegenerateStateError) for e in rates["lt"].errors)
        assert rates["lp"].errors == [None, None]

    def test_subnormal_eta_loses_only_the_z_yields(self):
        # eta = 5e-324: one detection in 2e323, but every Z yield underflows
        prepared = prepare(DeviceModel(delta=0.1), ProtocolProbabilities())
        rates = evaluate_grid(prepared, np.array([5e-324]), 0.0, 1.16)
        assert str(rates["lt"].errors[0]) == "no Z-basis detections; e_X is undefined"
        assert rates["lp"].errors == [None]

    def test_unknown_solver(self):
        prepared = prepare(DeviceModel(), ProtocolProbabilities())
        with pytest.raises(ValueError, match="mode"):
            evaluate_grid(prepared, np.array([1.0]), 1e-7, 1.16, solver="simplex")

    def test_only_the_requested_methods(self):
        prepared = prepare(DeviceModel(), ProtocolProbabilities())
        rates = evaluate_grid(prepared, np.array([1.0]), 1e-7, 1.16, ("lp",), PAPER_FAITHFUL)
        assert list(rates) == ["lp"]


class TestNoGridWideAbort:
    """Every failure stays in its point's error slot, down to the subnormal
    transmittances where the terms of the bit error round apart."""

    WIDE_DEVICES = st.builds(
        DeviceModel,
        delta=st.floats(0.0, 3.14),
        theta_hat=st.floats(0.0, 1.57),
        theta_mode=st.sampled_from(["independent", "dependent"]),
        mu=st.floats(0.0, 1e3),
    )
    ETAS = st.one_of(st.floats(0.0, 1.0), st.integers(0, 2 ** 52).map(lambda k: k * 5e-324))

    @given(
        device=st.one_of(devices, WIDE_DEVICES),
        eta=st.lists(ETAS, min_size=1, max_size=20),
        p_d=dark_counts,
        solver=st.sampled_from(SOLVER_MODES),
    )
    @settings(max_examples=150)
    def test_each_point_fails_alone_or_stays_in_range(self, device, eta, p_d, solver):
        prepared = prepare(device, ProtocolProbabilities())
        rates = evaluate_grid(prepared, np.array(eta), p_d, 1.16, solver=solver)
        for method in rates.values():
            for i, error in enumerate(method.errors):
                if error is not None:
                    assert isinstance(error, EstimatorError)
                    continue
                assert 0.0 <= method.e_z[i] <= 1.0
                assert 0.0 <= method.e_x[i] <= 1.0
                assert math.isfinite(method.rate_raw[i])

    @given(
        device=devices,
        p_d=dark_counts,
        start=st.floats(3150.0, 3300.0),
        step=st.floats(0.01, 5.0),
        points=st.integers(1, 40),
        solver=st.sampled_from(SOLVER_MODES),
    )
    @settings(max_examples=40)
    def test_sweep_into_the_subnormal_range_keeps_its_rows(
        self, device, p_d, start, step, points, solver
    ):
        stop = start + step * (points - 1)
        config = SweepConfig(device, start, stop, step, p_d, solver=solver)
        rows = run_sweep(config)
        assert len(rows) == 2 * len(loss_grid(start, stop, step))


class TestDeviceAxis:
    """A batch of devices gives each device exactly its own bits."""

    DEVICES = [
        DeviceModel(delta=0.05, theta_hat=1e-6, mu=1e-8),
        DeviceModel(theta_hat=1.0),  # collinear: singular
        DeviceModel(delta=0.2, theta_hat=2e-3, theta_mode="independent", mu=1e-5),
        DeviceModel(delta=3.14159265),  # degenerate virtual state
        DeviceModel(mu=2000),  # degenerate: both virtual states vanish
        DeviceModel(),
    ]

    @staticmethod
    def arrays(prepared):
        lt = prepared.lt
        return {
            "alignment": prepared.alignment, "tilt": prepared.tilt, "coin": prepared.coin,
            "coef": lt.coef, "inv": lt.inv, "lam_min": lt.lam_min, "lam_max": lt.lam_max, "box_lower": lt.box_lower,
            "box_upper": lt.box_upper, "virtual": lt.virtual, "corner": lt.corner,
        }

    @staticmethod
    def failures(prepared):
        return [(type(e), str(e)) if e is not None else None
                for e in (*prepared.lt.singular, *prepared.lt.degenerate)]

    @given(devices=st.lists(devices, min_size=1, max_size=6))
    @settings(max_examples=40)
    def test_prepare_rows_equal_single_devices(self, devices):
        self.check_rows(devices)

    def test_singular_and_degenerate_rows(self):
        self.check_rows(self.DEVICES)

    @given(deltas=st.lists(st.floats(0.0, math.pi, exclude_max=True), min_size=1, max_size=6))
    @example(deltas=[0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(math.pi, 0.0)])
    @settings(max_examples=200)
    def test_tilt_is_the_bit_error_formula(self, deltas):
        # c(0Z, Z) - c(1Z, Z) is cos(2 delta) + cos(delta) bit for bit.
        tilt = prepare([(d, 0.0, True, 0.0) for d in deltas], ProtocolProbabilities()).tilt
        formula = np.array([math.cos(2 * d) + math.cos(d) for d in deltas])
        assert tilt.view(np.int64).tolist() == formula.view(np.int64).tolist()

    def check_rows(self, devices):
        probs = ProtocolProbabilities(0.6, 0.7)
        batch = prepare(devices, probs)
        assert len(batch.tilt) == len(devices)
        for i, device in enumerate(devices):
            # The one pass computes each term with the function that defines it.
            assert tuple(batch.alignment[i].tolist()) == yield_alignments(device.delta)
            assert batch.tilt[i] == math.cos(2 * device.delta) + math.cos(device.delta)
            assert batch.coin[i] == coin_imbalance(source_terms([device]).overlaps[0].tolist())
            alone = prepare(device, probs)
            for name, values in self.arrays(alone).items():
                row = self.arrays(batch)[name][i:i + 1]
                assert row.shape == values.shape, name
                assert row.tobytes() == values.tobytes(), name
            both = batch.lt.singular[i], batch.lt.degenerate[i]
            assert self.failures(alone) == [
                (type(e), str(e)) if e is not None else None for e in both
            ]

    @given(
        devices=st.lists(devices, min_size=1, max_size=8),
        p_d=dark_counts,
        solver=st.sampled_from(SOLVER_MODES),
        data=st.data(),
    )
    @settings(max_examples=40)
    def test_each_device_at_its_own_eta(self, devices, p_d, solver, data):
        losses = data.draw(st.lists(st.floats(0.0, 120.0), min_size=len(devices),
                                    max_size=len(devices)))
        self.check_grid(devices, losses, p_d, solver)

    @pytest.mark.parametrize("solver", SOLVER_MODES)
    def test_failing_devices_fail_only_their_points(self, solver):
        self.check_grid(self.DEVICES, [0.0, 20.0, 40.0, 10.0, 30.0, 3000.0], 1e-7, solver)

    def check_grid(self, devices, losses, p_d, solver):
        probs = ProtocolProbabilities()
        eta = np.array([system_efficiency(ChannelModel(loss)) for loss in losses])
        batch = evaluate_grid(prepare(devices, probs), eta, p_d, 1.16, solver=solver)
        for i, device in enumerate(devices):
            alone = evaluate_grid(prepare(device, probs), eta[i:i + 1], p_d, 1.16, solver=solver)
            for method, rates in batch.items():
                error, single = rates.errors[i], alone[method].errors[0]
                assert type(error) is type(single) and str(error) == str(single)
                if error is None:
                    assert rates.e_z[i] == alone[method].e_z[0]
                    assert rates.e_x[i] == alone[method].e_x[0]
                    assert rates.rate_raw[i] == alone[method].rate_raw[0]

    @pytest.mark.parametrize(
        "device, message",
        [
            ((math.nan, 0.0, True, 0.0), "delta must lie in [0, pi), got nan"),
            ((0.1, 5.0, True, 0.0), "theta_hat must lie in [0, pi/2), got 5.0"),
            ((0.1, 0.0, True, 10**400), f"mu must be finite, got {10**400}"),
            ((0.1, 0.0, True, math.nan), "mu must be nonnegative, got nan"),
        ],
        ids=["delta-nan", "theta_hat-past-pi/2", "mu-int-past-float-range", "mu-nan"],
    )
    def test_out_of_range_tuple_fails_as_its_device_model(self, device, message):
        # Unchecked, the nan fails late at the entropy and theta_hat = 5 rad
        # is evaluated.
        delta, theta_hat, _, mu = device
        with pytest.raises(ValueError, match=re.escape(message)):
            DeviceModel(delta, theta_hat, "dependent", mu)
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_grid(prepare([device], ProtocolProbabilities()), np.array([0.1]), 1e-7, 1.16)

    def test_no_devices_prepare_empty_arrays(self):
        prepared = prepare([], ProtocolProbabilities())
        shapes = {name: array.shape for name, array in self.arrays(prepared).items()}
        assert shapes["alignment"] == (0, 5) and shapes["tilt"] == shapes["coin"] == (0,)
        assert self.failures(prepared) == []

    def test_device_count_must_match_the_grid(self):
        prepared = prepare(self.DEVICES[:2], ProtocolProbabilities())
        with pytest.raises(ValueError, match="2 prepared devices do not match 3"):
            evaluate_grid(prepared, np.array([1.0, 0.5, 0.1]), 1e-7, 1.16)

    def test_a_list_of_transmittances_gives_the_array_rates(self):
        prepared = prepare(self.DEVICES[:3], ProtocolProbabilities())
        eta = [1.0, 0.5, 1e-3]
        from_list = evaluate_grid(prepared, eta, 1e-7, 1.16)
        from_array = evaluate_grid(prepared, np.array(eta), 1e-7, 1.16)
        for method, rates in from_array.items():
            for name in ("e_z", "e_x", "rate_raw"):
                assert getattr(from_list[method], name).tobytes() == getattr(rates, name).tobytes()
            assert list(map(repr, from_list[method].errors)) == list(map(repr, rates.errors))

    # Unrefused, a 0-d array fails on iterating a float and a 2-D one on a
    # comparison, each with a TypeError that names nothing.
    @pytest.mark.parametrize("eta", [np.array(0.5), np.array([[0.5]]), [[0.5, 0.1]]],
                             ids=["0-d", "1x1", "nested-list"])
    def test_a_grid_of_another_shape_fails_by_name(self, eta):
        prepared = prepare(self.DEVICES[0], ProtocolProbabilities())
        with pytest.raises(ValueError, match=r"^transmittances of shape \(.*\) are not a grid"):
            evaluate_grid(prepared, eta, 1e-7, 1.16)

    @pytest.mark.parametrize(
        "eta, p_d, f_ec, message",
        [
            ([0.1, 2.0], 1e-7, 1.16, "eta must lie in [0, 1], got 2.0"),
            ([math.nan], 1e-7, 1.16, "eta must lie in [0, 1], got nan"),
            ([0.1, math.inf], 1e-7, 1.16, "eta must lie in [0, 1], got inf"),
            ([-0.1], 1e-7, 1.16, "eta must lie in [0, 1], got -0.1"),
            ([0.1], math.nan, 1.16, "p_d must lie in [0, 1), got nan"),
            ([0.1], 1.0, 1.16, "p_d must lie in [0, 1), got 1.0"),
            ([0.1], 1e-7, math.nan, "f_ec must be finite and >= 1, got nan"),
            ([0.1], 1e-7, 0.5, "f_ec must be finite and >= 1, got 0.5"),
            ([0.1], 1e-7, math.inf, "f_ec must be finite and >= 1, got inf"),
            (["0.5"], 1e-7, 1.16, "eta must lie in [0, 1], got '0.5'"),
            ([None], 1e-7, 1.16, "eta must lie in [0, 1], got None"),
        ],
        ids=["eta-above-1", "eta-nan", "eta-inf", "eta-negative", "p_d-nan", "p_d-1",
             "f_ec-nan", "f_ec-below-1", "f_ec-inf", "eta-str", "eta-none"],
    )
    def test_out_of_range_channel_fails_by_name(self, eta, p_d, f_ec, message):
        # Unchecked, f_ec = nan gives a silent nan rate, eta = 2 a live lt
        # rate, and a nan eta or p_d fails late at the entropy; a string or
        # None fails the range comparison with a TypeError naming nothing.
        prepared = prepare(self.DEVICES[0], ProtocolProbabilities())
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate_grid(prepared, np.array(eta), p_d, f_ec)


class TestColumnRows:
    """Rows zipped from the columns equal the per-element rows, cell for
    cell: max(rate_raw, 0.0) keeps -0.0 and nan, and a failed point keeps
    only its message."""

    LOSSES = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    RAW = [-1e-3, -0.0, 0.0, 2e-4, math.nan, math.inf, 0.125]

    def rates(self, failed_at):
        n = len(self.LOSSES)
        error = NoDetectionError("no detections: eta = 0 and p_d = 0")
        return GridRates(np.linspace(0.01, 0.07, n), np.linspace(0.1, 0.7, n) ** 2,
                         np.array(self.RAW), [error if i == failed_at else None for i in range(n)])

    @staticmethod
    def cells(row):
        return tuple(v.hex() if isinstance(v, float) else repr(v) for v in row)

    @pytest.mark.parametrize("methods", [("lt",), ("lp",), ("lt", "lp")])
    def test_rows_equal_the_per_element_rows(self, methods):
        etas = [10.0 ** (-loss / 10.0) for loss in self.LOSSES]
        rates = {m: self.rates(failed_at) for m, failed_at in zip(methods, (2, 5))}
        expected = []
        for i, (loss, eta) in enumerate(zip(self.LOSSES, etas)):
            for m, r in rates.items():
                if r.errors[i] is not None:
                    expected.append(SweepRow(loss, eta, m, None, None, None, None,
                                             str(r.errors[i])))
                else:
                    raw = r.rate_raw[i].item()
                    expected.append(SweepRow(loss, eta, m, r.e_z[i].item(), r.e_x[i].item(),
                                             raw, max(raw, 0.0)))
        rows = Sweep(self.LOSSES, etas, rates).rows()
        assert [self.cells(row) for row in rows] == [self.cells(row) for row in expected]
        assert all(type(row) is SweepRow for row in rows)
        for row in rows:
            numbers = row[:2] + row[3:7] if row.error is None else row[:2]
            assert all(type(v) is float for v in numbers)


def test_grid_reads_no_lt_terms_field():
    # lt_estimator owns the loss-tolerant chain and its device terms; the
    # grid hands prepared.lt to lt_phase_errors and never reads its format.
    fields = {field.name for field in dataclasses.fields(LtTerms)}
    tree = ast.parse(Path(grid.__file__).read_text(encoding="utf-8"))
    reads = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in fields]
    assert not reads, f"grid.py reads LtTerms fields: {reads}"
