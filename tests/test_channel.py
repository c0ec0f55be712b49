import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flawedqkd import (
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    ChannelModel,
    DeviceModel,
    NoDetectionError,
    ProtocolProbabilities,
    actual_yields,
    basis_detection_probability,
    binary_entropy,
    bit_error_rate,
    from_distance,
    system_efficiency,
    z_basis_yield,
)

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


class TestChannelModel:
    def test_efficiency(self):
        assert system_efficiency(ChannelModel(0.0)) == 1.0
        assert system_efficiency(ChannelModel(20.0)) == pytest.approx(0.01, rel=1e-12)
        assert system_efficiency(ChannelModel(3.0)) == pytest.approx(0.501187233627, rel=1e-10)

    def test_from_distance(self):
        assert from_distance(50.0).loss_db == pytest.approx(10.0)
        assert from_distance(50.0, receiver_loss_db=3.0).loss_db == pytest.approx(13.0)
        ch = from_distance(10.0, alpha_db_per_km=0.5, p_d=1e-6)
        assert ch.loss_db == pytest.approx(5.0)
        assert ch.p_d == 1e-6

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

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            from_distance(-1.0)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (lambda v: ChannelModel(v), "loss_db", math.nan),
        (lambda v: ChannelModel(10.0, f_ec=v), "f_ec", math.nan),
        (lambda v: ChannelModel(10.0, f_ec=v), "f_ec", math.inf),
        (lambda v: DeviceModel(mu=v), "mu", math.nan),
    ],
    ids=["loss_db-nan", "f_ec-nan", "f_ec-inf", "mu-nan"],
)
def test_non_finite_parameters_fail_early_by_name(build, field, value):
    with pytest.raises(ValueError, match=field):
        build(value)


class TestProtocolProbabilities:
    def test_split(self, probs):
        assert probs.p_0z == 0.25
        assert probs.p_1z == 0.25
        assert probs.p_0x == 0.5
        assert probs.p_xb == 0.5
        assert probs.sent_probability(SETTING_0X) == 0.5

    def test_never_sends_1x(self, probs):
        with pytest.raises(ValueError):
            probs.sent_probability(SETTING_1X)

    @pytest.mark.parametrize("kwargs", [{"p_za": 0.0}, {"p_za": 1.0}, {"p_zb": -0.2}, {"p_zb": 1.3}])
    def test_rejects_degenerate_choices(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolProbabilities(**kwargs)


class TestActualYields:
    @given(deltas, channels, prob_choices)
    def test_matches_reference_transcription(self, delta, channel, probs):
        table = actual_yields(DeviceModel(delta=delta), channel, probs)
        ref = reference_yields(delta, system_efficiency(channel), channel.p_d, probs)
        by_label = {SETTING_0Z: "0Z", SETTING_1Z: "1Z", SETTING_0X: "0X", SETTING_1X: "1X"}
        for (outcome, sent), value in table.items():
            expected = ref[(by_label[outcome], by_label[sent])]
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_pinned_values(self, probs):
        # frozen at delta = 0.126, loss 20 dB, p_d = 1e-7
        table = actual_yields(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        expected = {
            (SETTING_0X, SETTING_0X): 0.00124507012326,
            (SETTING_0X, SETTING_0Z): 0.000332186914836,
            (SETTING_0X, SETTING_1Z): 0.000253800944473,
            (SETTING_0Z, SETTING_0Z): 0.000622535061628,
            (SETTING_0Z, SETTING_1Z): 9.88256891992e-06,
            (SETTING_1X, SETTING_0X): 4.97962674332e-06,
            (SETTING_1X, SETTING_0Z): 0.000292837960164,
            (SETTING_1X, SETTING_1Z): 0.000371223930527,
            (SETTING_1Z, SETTING_0Z): 2.48981337166e-06,
            (SETTING_1Z, SETTING_1Z): 0.00061514230608,
        }
        for key, value in expected.items():
            assert table.value(*key) == pytest.approx(value, rel=1e-10)

    def test_ideal_lossless_dark_free(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(20.0, p_d=0.0), probs)
        eta = 0.01
        assert table.value(SETTING_0Z, SETTING_0Z) == pytest.approx(eta / 16, rel=1e-12)
        assert table.value(SETTING_1Z, SETTING_0Z) == 0.0

    def test_untilted_x_outcomes_are_even(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(7.0, p_d=1e-6), probs)
        assert table.value(SETTING_0X, SETTING_0Z) == pytest.approx(
            table.value(SETTING_1X, SETTING_0Z), rel=1e-14
        )

    @given(deltas, channels, prob_choices)
    def test_yields_are_probabilities(self, delta, channel, probs):
        table = actual_yields(DeviceModel(delta=delta), channel, probs)
        for (outcome, sent), value in table.items():
            assert value >= 0.0
            cap = probs.sent_probability(sent) * (
                probs.p_zb if outcome.basis == "Z" else probs.p_xb
            )
            assert value <= cap + 1e-15

    @given(deltas, channels, prob_choices)
    def test_z_detection_sum_is_half_the_sifted_yield(self, delta, channel, probs):
        # summing the four Z-basis entries loses one factor of two relative
        # to the closed form because each sent bit splits p_za
        table = actual_yields(DeviceModel(delta=delta), channel, probs)
        assert 2.0 * table.z_detection_sum() == pytest.approx(
            z_basis_yield(channel, probs), rel=1e-12, abs=1e-300
        )

    def test_z_detection_sum_pinned(self, probs):
        table = actual_yields(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        assert table.z_detection_sum() == pytest.approx(0.00125004975, rel=1e-10)
        assert z_basis_yield(ChannelModel(20.0), probs) == pytest.approx(
            0.0025000995, rel=1e-10
        )

    @given(deltas, channels, prob_choices)
    def test_detection_probability_is_basis_and_tilt_blind(self, delta, channel, probs):
        # conditioned on any sent state and any Bob basis, the total
        # detection probability collapses to the same tilt-free number
        table = actual_yields(DeviceModel(delta=delta), channel, probs)
        eta = system_efficiency(channel)
        expected = 2.0 * (1.0 - eta / 2.0) * channel.p_d + eta / 2.0
        for sent in (SETTING_0Z, SETTING_1Z):
            x_sum = table.value(SETTING_0X, sent) + table.value(SETTING_1X, sent)
            z_sum = table.value(SETTING_0Z, sent) + table.value(SETTING_1Z, sent)
            p = probs.sent_probability(sent)
            assert x_sum / (p * probs.p_xb) == pytest.approx(expected, rel=1e-11, abs=1e-300)
            assert z_sum / (p * probs.p_zb) == pytest.approx(expected, rel=1e-11, abs=1e-300)

    def test_detection_probability_pinned(self, probs):
        channel = ChannelModel(13.0, p_d=3e-6)
        for delta in (0.0, 0.126, 0.7):
            table = actual_yields(DeviceModel(delta=delta), channel, probs)
            x_sum = table.value(SETTING_0X, SETTING_0Z) + table.value(SETTING_1X, SETTING_0Z)
            assert x_sum / (0.25 * 0.5) == pytest.approx(0.0250652113252, rel=1e-10)


class TestBitErrorRate:
    def test_pinned_values(self):
        assert bit_error_rate(
            DeviceModel(delta=0.126), ChannelModel(20.0, p_d=0.0)
        ) == pytest.approx(0.0098779568210648, abs=1e-13)
        assert bit_error_rate(DeviceModel(delta=0.126), ChannelModel(20.0)) == pytest.approx(
            0.00989751191229, rel=1e-10
        )
        assert bit_error_rate(DeviceModel(), ChannelModel(20.0)) == pytest.approx(
            1.99492060216e-05, rel=1e-10
        )
        assert bit_error_rate(DeviceModel(), ChannelModel(40.0)) == pytest.approx(
            0.00199198246852, rel=1e-10
        )

    def test_dark_count_dominated_limit(self):
        # at extreme loss the dark counts randomize the key toward 1/2
        e = bit_error_rate(DeviceModel(delta=0.126), ChannelModel(80.0))
        assert e == pytest.approx(0.488045804962, rel=1e-10)
        assert e < 0.5

    def test_ideal_is_error_free(self):
        assert bit_error_rate(DeviceModel(), ChannelModel(0.0, p_d=0.0)) == 0.0

    def test_grows_with_loss(self):
        device = DeviceModel(delta=0.126)
        rates = [bit_error_rate(device, ChannelModel(l)) for l in range(0, 71, 5)]
        assert all(a <= b + 1e-15 for a, b in zip(rates, rates[1:]))

    def test_no_detections(self):
        with pytest.raises(NoDetectionError):
            bit_error_rate(DeviceModel(), ChannelModel(float("inf"), p_d=0.0))

    def test_matches_yield_table_ratio(self, probs):
        device = DeviceModel(delta=0.2)
        channel = ChannelModel(15.0, p_d=1e-6)
        table = actual_yields(device, channel, probs)
        wrong = table.value(SETTING_1Z, SETTING_0Z) + table.value(SETTING_0Z, SETTING_1Z)
        assert bit_error_rate(device, channel) == pytest.approx(
            wrong / table.z_detection_sum(), rel=1e-11
        )


class TestBasisDetectionProbability:
    def test_closed_form(self):
        ch = ChannelModel(20.0, p_d=1e-7)
        assert basis_detection_probability(ch) == pytest.approx(
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
