import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flawedqkd import (
    ChannelModel,
    DeviceModel,
    NoDetectionError,
    ProtocolProbabilities,
    binary_entropy,
    evaluate_grid,
    key_rate_lt,
    prepare,
    system_efficiency,
    tha_coefficients,
    z_basis_yield,
)
from flawedqkd import channel as channel_module
from flawedqkd.channel import (
    FLOAT_LIMIT,
    clamped_entropies,
    detection_probability,
    detector_yields,
    efficiency,
    yield_alignments,
)
from flawedqkd.cli import main

channels = st.builds(
    ChannelModel,
    loss_db=st.floats(0.0, 60.0),
    p_d=st.floats(0.0, 1e-4),
    f_ec=st.floats(1.0, 1.5),
)
prob_choices = st.builds(
    ProtocolProbabilities,
    p_za=st.floats(0.05, 0.95),
    p_zb=st.floats(0.05, 0.95),
)
deltas = st.floats(0.0, 2.5)


def reference_yields(delta, eta, p_d, probs):
    """Independent transcription of the ten detection formulas.

    Written out term by term, on purpose, so the table under test is
    checked against a second copy that shares no code with it.
    """
    s = math.sin(delta / 2)
    s3 = math.sin(3 * delta / 2)
    c1 = math.cos(delta)
    c2 = math.cos(2 * delta)
    dark = (1 - eta / 2) * p_d

    def plus(c):
        return dark + (eta / 4) * (1 + c) * (1 - p_d / 2) + (eta / 8) * (1 - c) * p_d

    def minus(c):
        return dark + (eta / 8) * (1 + c) * p_d + (eta / 4) * (1 - c) * (1 - p_d / 2)

    p0z = probs.p_za / 2
    p1z = probs.p_za / 2
    p0x = 1 - probs.p_za
    pxb = 1 - probs.p_zb
    pzb = probs.p_zb
    return {
        ("0X", "0Z"): p0z * pxb * plus(s),
        ("1X", "0Z"): p0z * pxb * minus(s),
        ("0Z", "0Z"): p0z * pzb * plus(c1),
        ("1Z", "0Z"): p0z * pzb * minus(c1),
        ("0X", "1Z"): p1z * pxb * plus(-s3),
        ("1X", "1Z"): p1z * pxb * minus(-s3),
        ("0Z", "1Z"): p1z * pzb * plus(-c2),
        ("1Z", "1Z"): p1z * pzb * minus(-c2),
        ("0X", "0X"): p0x * pxb * plus(c1),
        ("1X", "0X"): p0x * pxb * minus(c1),
    }


def joint_yields(probs, delta, eta, p_d):
    """One device's detector_yields, each row times Alice's probability of
    its pulse and Bob's of its basis."""
    selection = np.array((
        probs.p_0z * probs.p_xb, probs.p_0z * probs.p_zb, probs.p_1z * probs.p_xb,
        probs.p_1z * probs.p_zb, probs.p_0x * probs.p_xb,
    ))
    return selection * detector_yields(np.array([yield_alignments(delta)]), eta, p_d)[0]


# Where each (outcome, sent) yield sits in the (outcome, row) array of
# detector_yields.
ENTRIES = {
    ("0X", "0Z"): (0, 0), ("1X", "0Z"): (1, 0),
    ("0Z", "0Z"): (0, 1), ("1Z", "0Z"): (1, 1),
    ("0X", "1Z"): (0, 2), ("1X", "1Z"): (1, 2),
    ("0Z", "1Z"): (0, 3), ("1Z", "1Z"): (1, 3),
    ("0X", "0X"): (0, 4), ("1X", "0X"): (1, 4),
}


class TestChannelModel:
    def test_efficiency(self):
        assert system_efficiency(ChannelModel(0.0)) == 1.0
        assert system_efficiency(ChannelModel(20.0)) == pytest.approx(0.01, rel=1e-12)
        assert system_efficiency(ChannelModel(3.0)) == pytest.approx(0.501187233627, rel=1e-10)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_db": -1.0},
            {"loss_db": 10.0, "p_d": -1e-9},
            {"loss_db": 10.0, "p_d": 1.0},
            {"loss_db": 10.0, "f_ec": 0.99},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ChannelModel(**kwargs)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (lambda v: ChannelModel(v), "loss_db", math.nan),
        (lambda v: ChannelModel(10.0, f_ec=v), "f_ec", math.nan),
        (lambda v: ChannelModel(10.0, f_ec=v), "f_ec", math.inf),
        (lambda v: DeviceModel(mu=v), "mu", math.nan),
        # An int past float range compares below math.inf, and float() of it
        # overflows.
        (lambda v: ChannelModel(10.0, f_ec=v), "f_ec must be finite", FLOAT_LIMIT),
        (lambda v: DeviceModel(mu=v), "mu must be finite", FLOAT_LIMIT),
        (tha_coefficients, "mu must be finite", FLOAT_LIMIT),
        (lambda v: ChannelModel(v), "loss_db must be finite or inf", FLOAT_LIMIT),
    ],
    ids=["loss_db-nan", "f_ec-nan", "f_ec-inf", "mu-nan", "f_ec-int-past-float-range",
         "mu-int-past-float-range", "tha_coefficients-mu-int-past-float-range",
         "loss_db-int-past-float-range"],
)
def test_non_finite_parameters_fail_early_by_name(build, field, value):
    with pytest.raises(ValueError, match=field):
        build(value)


def test_float_limit_is_the_least_int_past_float_range():
    assert float(FLOAT_LIMIT - 1) == sys.float_info.max
    with pytest.raises(OverflowError):
        float(FLOAT_LIMIT)
    # The largest int that float() takes is finite.
    ChannelModel(10.0, f_ec=FLOAT_LIMIT - 1)
    DeviceModel(mu=FLOAT_LIMIT - 1)
    tha_coefficients(FLOAT_LIMIT - 1)


class TestProtocolProbabilities:
    def test_split(self, probs):
        assert probs.p_0z == 0.25
        assert probs.p_1z == 0.25
        assert probs.p_0x == 0.5
        assert probs.p_xb == 0.5

    @pytest.mark.parametrize("kwargs", [{"p_za": 0.0}, {"p_za": 1.0}, {"p_zb": -0.2}, {"p_zb": 1.3}])
    def test_rejects_degenerate_choices(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolProbabilities(**kwargs)

    # The rate carries p_za p_zb, and below the least normal float it keeps
    # too few bits: without the refusal, rate --loss 10 --delta 0.1 --theta
    # 1e-3 --mu 1e-6 --pza 1e-320 prints lt's rate_raw as 1.383383808e-322,
    # where 2e-320 times the rate at p_za = 1/2 is 1.3839e-322.
    @pytest.mark.parametrize("kwargs", [
        {"p_za": 1e-315}, {"p_za": 1e-318}, {"p_za": 1e-320}, {"p_za": 1e-322},
        {"p_za": 5e-324}, {"p_za": 2 * sys.float_info.min * (1 - 2**-52)},
        {"p_za": 1e-160, "p_zb": 1e-160}, {"p_zb": 1e-320},
    ])
    def test_rejects_subnormal_yield_prefactors(self, kwargs):
        with pytest.raises(ValueError, match=r"rate factor p_za \* p_zb .* from p_za=.* and p_zb="):
            ProtocolProbabilities(**kwargs)

    def test_least_p_za_with_normal_prefactors(self):
        # At p_zb = 1/2 the rate factor p_za p_zb is normal from p_za =
        # 2 min on; the other selection products, such as p_za / 4, may be
        # subnormal, since they enter no result.
        least = ProtocolProbabilities(p_za=2 * sys.float_info.min)
        assert least.p_za * least.p_zb == sys.float_info.min
        channel = ChannelModel(10.0)
        device = DeviceModel(delta=0.1, theta_hat=1e-3, mu=1e-6)
        e_x = key_rate_lt(device, channel, ProtocolProbabilities()).e_x
        for p_za in (2 * sys.float_info.min, 4 * sys.float_info.min * (1 - 2**-52)):
            probs = ProtocolProbabilities(p_za=p_za)
            assert key_rate_lt(device, channel, probs).e_x == e_x

    def test_cli_names_the_selection_probabilities(self, capsys):
        code = main(["rate", "--loss", "10", "--pza", "1e-320"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: the rate factor p_za * p_zb must be at least 2.2250738585072014e-308,"
            " got 5e-321 from p_za=1e-320 and p_zb=0.5\n")


class TestActualYields:
    @given(deltas, channels, prob_choices)
    def test_matches_reference_transcription(self, delta, channel, probs):
        eta = system_efficiency(channel)
        y = joint_yields(probs, delta, eta, channel.p_d)
        ref = reference_yields(delta, eta, channel.p_d, probs)
        for key, index in ENTRIES.items():
            assert y[index] == pytest.approx(ref[key], rel=1e-12, abs=1e-300)

    def test_pinned_values(self, probs):
        # frozen at delta = 0.126, loss 20 dB, p_d = 1e-7
        y = joint_yields(probs, 0.126, efficiency(20.0), 1e-7)
        expected = {
            ("0X", "0X"): 0.00124507012326,
            ("0X", "0Z"): 0.000332186914836,
            ("0X", "1Z"): 0.000253800944473,
            ("0Z", "0Z"): 0.000622535061628,
            ("0Z", "1Z"): 9.88256891992e-06,
            ("1X", "0X"): 4.97962674332e-06,
            ("1X", "0Z"): 0.000292837960164,
            ("1X", "1Z"): 0.000371223930527,
            ("1Z", "0Z"): 2.48981337166e-06,
            ("1Z", "1Z"): 0.00061514230608,
        }
        for key, value in expected.items():
            assert y[ENTRIES[key]] == pytest.approx(value, rel=1e-10)

    def test_ideal_lossless_dark_free(self, probs):
        y = joint_yields(probs, 0.0, efficiency(20.0), 0.0)
        eta = 0.01
        assert y[ENTRIES["0Z", "0Z"]] == pytest.approx(eta / 16, rel=1e-12)
        assert y[ENTRIES["1Z", "0Z"]] == 0.0

    def test_untilted_x_outcomes_are_even(self, probs):
        y = joint_yields(probs, 0.0, efficiency(7.0), 1e-6)
        assert y[ENTRIES["0X", "0Z"]] == pytest.approx(y[ENTRIES["1X", "0Z"]], rel=1e-14)

    @given(deltas, channels, prob_choices)
    def test_yields_are_probabilities(self, delta, channel, probs):
        y = joint_yields(probs, delta, system_efficiency(channel), channel.p_d)
        # Alice's probability of the row's pulse times Bob's of its basis.
        caps = (
            probs.p_0z * probs.p_xb,
            probs.p_0z * probs.p_zb,
            probs.p_1z * probs.p_xb,
            probs.p_1z * probs.p_zb,
            probs.p_0x * probs.p_xb,
        )
        for outcome in (0, 1):
            for row, cap in enumerate(caps):
                assert y[outcome, row] >= 0.0
                assert y[outcome, row] <= cap + 1e-15

    @given(deltas, channels, prob_choices)
    def test_z_detection_sum_is_half_the_sifted_yield(self, delta, channel, probs):
        # summing the four Z-basis entries loses one factor of two relative
        # to the closed form because each sent bit splits p_za
        y = joint_yields(probs, delta, system_efficiency(channel), channel.p_d)
        z_sum = y[0, 1] + y[1, 1] + y[0, 3] + y[1, 3]
        assert 2.0 * z_sum == pytest.approx(z_basis_yield(channel, probs), rel=1e-12, abs=1e-300)

    def test_z_detection_sum_pinned(self, probs):
        y = joint_yields(probs, 0.126, efficiency(20.0), 1e-7)
        assert y[0, 1] + y[1, 1] + y[0, 3] + y[1, 3] == pytest.approx(0.00125004975, rel=1e-10)
        assert z_basis_yield(ChannelModel(20.0), probs) == pytest.approx(
            0.0025000995, rel=1e-10
        )

    @given(deltas, channels)
    def test_detection_probability_is_basis_and_tilt_blind(self, delta, channel):
        # conditioned on any sent state and any Bob basis, the total
        # detection probability collapses to the same tilt-free number
        eta = system_efficiency(channel)
        y = detector_yields(np.array([yield_alignments(delta)]), eta, channel.p_d)[0]
        expected = 2.0 * (1.0 - eta / 2.0) * channel.p_d + eta / 2.0
        # The X and the Z row of each Z pulse.
        for x_row, z_row in ((0, 1), (2, 3)):
            x_sum = y[0, x_row] + y[1, x_row]
            z_sum = y[0, z_row] + y[1, z_row]
            assert x_sum == pytest.approx(expected, rel=1e-11, abs=1e-300)
            assert z_sum == pytest.approx(expected, rel=1e-11, abs=1e-300)

    def test_detection_probability_pinned(self):
        eta = efficiency(13.0)
        for delta in (0.0, 0.126, 0.7):
            y = detector_yields(np.array([yield_alignments(delta)]), eta, 3e-6)[0]
            x_sum = y[ENTRIES["0X", "0Z"]] + y[ENTRIES["1X", "0Z"]]
            assert x_sum == pytest.approx(0.0250652113252, rel=1e-10)


class TestBitErrorRate:
    def test_pinned_values(self, probs):
        tilted = prepare(DeviceModel(delta=0.126), probs)
        plain = prepare(DeviceModel(), probs)
        at_20db = np.array([efficiency(20.0)])
        assert evaluate_grid(tilted, at_20db, 0.0, 1.16, ("lp",))["lp"].e_z[0] == pytest.approx(
            0.0098779568210648, abs=1e-13
        )
        assert evaluate_grid(tilted, at_20db, 1e-7, 1.16, ("lp",))["lp"].e_z[0] == pytest.approx(
            0.00989751191229, rel=1e-10
        )
        e_z = evaluate_grid(plain, np.array([efficiency(20.0), efficiency(40.0)]), 1e-7, 1.16,
                            ("lp",))["lp"].e_z
        assert e_z[0] == pytest.approx(1.99492060216e-05, rel=1e-10)
        assert e_z[1] == pytest.approx(0.00199198246852, rel=1e-10)

    def test_dark_count_dominated_limit(self, probs):
        # at extreme loss the dark counts randomize the key toward 1/2
        prepared = prepare(DeviceModel(delta=0.126), probs)
        e = evaluate_grid(prepared, np.array([efficiency(80.0)]), 1e-7, 1.16, ("lp",))["lp"].e_z[0]
        assert e == pytest.approx(0.488045804962, rel=1e-10)
        assert e < 0.5

    def test_ideal_is_error_free(self, probs):
        rates = evaluate_grid(prepare(DeviceModel(), probs), np.array([1.0]), 0.0, 1.16, ("lp",))
        assert rates["lp"].e_z[0] == 0.0

    def test_grows_with_loss(self, probs):
        eta = np.array([efficiency(l) for l in range(0, 71, 5)])
        prepared = prepare(DeviceModel(delta=0.126), probs)
        rates = evaluate_grid(prepared, eta, 1e-7, 1.16, ("lp",))["lp"].e_z.tolist()
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_no_detections(self, probs):
        eta = np.array([system_efficiency(ChannelModel(float("inf"), p_d=0.0))])
        rates = evaluate_grid(prepare(DeviceModel(), probs), eta, 0.0, 1.16)
        for method in ("lt", "lp"):
            assert isinstance(rates[method].errors[0], NoDetectionError)

    def test_matches_yield_table_ratio(self, probs):
        prepared = prepare(DeviceModel(delta=0.2), probs)
        eta = np.array([efficiency(15.0)])
        y = detector_yields(prepared.alignment, eta, 1e-6)[0]
        # (1Z, 0Z) + (0Z, 1Z) over the four Z-basis detections.
        wrong = y[1, 1] + y[0, 3]
        e_z = evaluate_grid(prepared, eta, 1e-6, 1.16, ("lp",))["lp"].e_z[0]
        assert e_z == pytest.approx(wrong / (y[0, 1] + y[1, 1] + y[0, 3] + y[1, 3]), rel=1e-11)


class TestBasisDetectionProbability:
    def test_closed_form(self):
        assert detection_probability(efficiency(20.0), 1e-7) == pytest.approx(
            4 * (1 - 0.005) * 1e-7 + 0.01, rel=1e-12
        )

    def test_z_basis_yield(self, probs):
        ch = ChannelModel(20.0, p_d=0.0)
        assert z_basis_yield(ch, probs) == pytest.approx(0.0025, rel=1e-12)

class TestBinaryEntropy:
    def test_pinned_values(self):
        assert binary_entropy(0.11) == pytest.approx(0.49991595816453, abs=1e-13)
        assert binary_entropy(0.3) == pytest.approx(0.881290899231, rel=1e-11)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    @pytest.mark.parametrize("x", [-0.01, 1.01, 2.0])
    def test_rejects_out_of_range(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)

    @given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
    def test_concavity(self, a, b):
        mid = binary_entropy((a + b) / 2)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2 - 1e-12


class TestClampedEntropies:
    """clamped_entropies is binary_entropy(min(x, 1/2)) over a list, bit for
    bit, with 0.0 at failed points and math.log2 only on open arguments."""

    EDGES = [0.0, -0.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0,
             1.5, 1e300, math.inf, 5e-324, 2.2250738585072014e-308 / 3, 2.2250738585072014e-308,
             math.nan, -5e-324, -0.25, -math.inf]
    # What a point's failure slot holds: an error or a flag is failed, None
    # or False is live.
    FAILURES = [None, False, True, NoDetectionError("no detections: eta = 0 and p_d = 0")]

    @given(st.lists(st.tuples(
        st.one_of(st.sampled_from(EDGES), st.floats(), st.floats(0.0, 0.5)),
        st.sampled_from(FAILURES),
    ), max_size=30))
    def test_matches_binary_entropy_of_the_clamped_argument(self, points):
        xs = [x for x, _ in points]
        failures = [failed for _, failed in points]
        expected, message = [], None
        for x, failed in points:
            if failed:
                expected.append(0.0)
                continue
            try:
                expected.append(binary_entropy(min(x, 0.5)))
            except ValueError as exc:
                message = str(exc)
                break
        logged = []

        def log2(y):
            logged.append(y)
            return math.log2(y)

        with mock.patch.object(channel_module, "log2", log2):
            if message is None:
                got = clamped_entropies(xs, failures)
            else:
                with pytest.raises(ValueError, match=re.escape(message)):
                    clamped_entropies(xs, failures)
        if message is None:
            assert [type(h) for h in got] == [float] * len(xs)
            assert [h.hex() for h in got] == [h.hex() for h in expected]
        # log2 is called on x, then on 1 - x, for x in (0, 1/2) alone.
        assert all(0.0 < y < 0.5 for y in logged[::2])
        assert logged[1::2] == [1.0 - y for y in logged[::2]]
