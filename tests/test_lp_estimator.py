import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flawedqkd import (
    ChannelModel,
    DeviceModel,
    NoDetectionError,
    ProtocolProbabilities,
    coin_imbalance,
    evaluate_grid,
    key_rate_lp,
    prepare,
    system_efficiency,
)
from flawedqkd.channel import detection_probability, efficiency
from flawedqkd.lp_estimator import coin_phase_errors
from flawedqkd.qstates import source_terms

devices = st.builds(
    DeviceModel,
    delta=st.floats(0.0, 2.5),
    theta_hat=st.floats(0.0, 1.4),
    theta_mode=st.sampled_from(["independent", "dependent"]),
    mu=st.floats(0.0, 3.0),
)


def imbalance(device):
    return coin_imbalance(source_terms([device]).overlaps[0])


class TestCoinImbalance:
    def test_ideal_coin_is_balanced(self):
        assert imbalance(DeviceModel()) < 1e-12

    def test_tilt_only(self):
        # exact high-precision values for the pure encoding-phase flaw
        assert imbalance(DeviceModel(delta=0.126)) == pytest.approx(
            0.0007593770648606, abs=1e-14
        )
        assert imbalance(DeviceModel(delta=0.063)) == pytest.approx(
            0.000187973205282, rel=1e-9
        )

    def test_all_flaws(self):
        d = DeviceModel(delta=0.126, theta_hat=1e-3, theta_mode="dependent", mu=1e-6)
        assert imbalance(d) == pytest.approx(0.00076422527468, rel=1e-9)

    def test_heavy_leak_approaches_half(self):
        assert imbalance(DeviceModel(mu=3.0)) == pytest.approx(
            0.475106465816, rel=1e-9
        )

    @given(devices)
    def test_stays_in_range(self, device):
        assert 0.0 <= imbalance(device) <= 0.5

    @given(st.floats(0.0, 3.0))
    def test_grows_with_tilt(self, delta):
        assert imbalance(DeviceModel(delta=min(delta, 3.0))) >= 0.0


class TestDeltaPrime:
    def test_loss_enhancement(self, probs):
        coin = prepare(DeviceModel(delta=0.126), probs).coin
        assert coin[0] / detection_probability(efficiency(20.0), 1e-7) == pytest.approx(
            0.0759346842856, rel=1e-9
        )

    def test_capped_at_half(self):
        # the coin bound caps the enhanced imbalance at 1/2; beyond it the
        # coin has run away and the bound is 1
        enhanced = 0.4 / detection_probability(efficiency(60.0), 1e-7)
        assert enhanced > 0.5
        assert coin_phase_errors(0.3, enhanced) == 1.0

    def test_no_detections(self, probs):
        eta = np.array([system_efficiency(ChannelModel(float("inf"), p_d=0.0))])
        rates = evaluate_grid(prepare(DeviceModel(delta=0.126), probs), eta, 0.0, 1.16, ("lp",))
        assert isinstance(rates["lp"].errors[0], NoDetectionError)

    def test_monotone_in_loss(self):
        coin = 0.001
        eta = np.array([efficiency(float(l)) for l in range(0, 61, 5)])
        values = (coin / detection_probability(eta, 1e-7)).tolist()
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestPhaseErrorBound:
    def test_balanced_coin_adds_nothing(self):
        assert coin_phase_errors(0.03, 0.0) == pytest.approx(0.03, abs=1e-15)

    def test_pinned_value(self):
        # exact high-precision evaluation of the bound formula
        assert coin_phase_errors(0.01, 0.001) == pytest.approx(
            0.026470332927451, abs=1e-13
        )

    def test_coin_fully_random(self):
        # d' = 1/2 kills the square-root term and leaves 1 - e_z
        assert coin_phase_errors(0.3, 0.5) == pytest.approx(0.7, abs=1e-12)

    def test_dominates_bit_error_rate(self):
        # the phase error can never undercut the bit error it is built from
        for i in range(21):
            for k in range(21):
                e_z = 0.5 * i / 20
                d_p = 0.5 * k / 20
                assert coin_phase_errors(e_z, d_p) >= e_z - 1e-12

    @given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
    def test_capped_at_one(self, e_z, d_prime):
        assert 0.0 <= coin_phase_errors(e_z, d_prime) <= 1.0


class TestPhaseErrorRate:
    def test_tilted_device(self, probs):
        point = key_rate_lp(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        assert point.e_x == pytest.approx(0.373976496682, rel=1e-9)

    def test_plain_device_tracks_bit_errors(self):
        point = key_rate_lp(DeviceModel(), ChannelModel(20.0), ProtocolProbabilities())
        assert point.e_x == pytest.approx(1.99505371109e-05, rel=1e-9)

    def test_runaway_enhancement_gives_total_loss(self):
        # Delta / detection probability > 1/2: the bound degenerates to 1
        point = key_rate_lp(DeviceModel(mu=3.0), ChannelModel(20.0), ProtocolProbabilities())
        assert point.e_x == 1.0

    @given(devices, st.floats(0.0, 50.0))
    def test_stays_in_unit_interval(self, device, loss):
        e = key_rate_lp(device, ChannelModel(loss), ProtocolProbabilities()).e_x
        assert 0.0 <= e <= 1.0


class TestKeyRate:
    def test_tilted_device_dead_at_20db(self, probs):
        point = key_rate_lp(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        assert point.rate == 0.0
        assert point.rate_raw == pytest.approx(-0.000116523384498, rel=1e-9)

    def test_tilted_device_alive_at_0db(self, probs):
        point = key_rate_lp(DeviceModel(delta=0.126), ChannelModel(0.0), probs)
        assert point.rate == pytest.approx(0.186324695672, rel=1e-9)
        assert point.e_x == pytest.approx(0.0237337384194, rel=1e-9)

    def test_plain_device(self, probs):
        point = key_rate_lp(DeviceModel(), ChannelModel(20.0), probs)
        assert point.rate == pytest.approx(0.00249826200626, rel=1e-9)

    def test_half_tilt(self, probs):
        point = key_rate_lp(DeviceModel(delta=0.063), ChannelModel(20.0), probs)
        assert point.rate == pytest.approx(0.00123875287901, rel=1e-9)
        assert point.e_x == pytest.approx(0.101997582956, rel=1e-9)

    def test_rate_decreases_with_tilt(self, probs):
        channel = ChannelModel(10.0)
        rates = [
            key_rate_lp(DeviceModel(delta=d), channel, probs).rate
            for d in (0.0, 0.03, 0.063, 0.126)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))
