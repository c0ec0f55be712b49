import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flawedqkd import (
    PAPER_FAITHFUL,
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    THREE_SETTINGS,
    VERTEX_LP,
    ChannelModel,
    DegenerateStateError,
    DeviceModel,
    InfeasibleStatisticsError,
    NoDetectionError,
    ProtocolProbabilities,
    SingularSystemError,
    YieldTable,
    actual_decomposition,
    actual_yields,
    coefficient_matrix,
    key_rate_lp,
    key_rate_lt,
    normalized_yields,
    phase_error_rate_lt,
    transmission_rate_bounds,
    virtual_yield_upper,
)

# Device with every flaw switched on, pinned throughout this module.  Dead
# at 20 dB, still producing key at 10 dB.
COMPOSITE = DeviceModel(delta=0.063, theta_hat=1e-3, theta_mode="dependent", mu=1e-7)

small_devices = st.builds(
    DeviceModel,
    delta=st.floats(0.0, 0.4),
    theta_hat=st.floats(0.0, 5e-3),
    theta_mode=st.sampled_from(["independent", "dependent"]),
    mu=st.floats(0.0, 1e-4),
)


def _triples(values):
    return pytest.approx(values, rel=1e-9, abs=1e-14)


class TestCoefficientMatrix:
    def test_tilted_matrix(self):
        mat = coefficient_matrix(DeviceModel(delta=0.126))
        assert mat[0] == _triples((1.0, 1.0, 1.0))
        assert mat[1] == _triples((0.0, -0.12566686855, 0.998016156287))
        assert mat[2] == _triples((1.0, -0.992072496418, -0.0629583337695))
        assert np.linalg.det(mat) == pytest.approx(2.12169918112, rel=1e-10)

    def test_ideal_determinant(self):
        assert np.linalg.det(coefficient_matrix(DeviceModel())) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_collinear_states_rejected(self):
        # theta_hat = 1 in dependent mode rotates the X state fully out of
        # the qubit mode, collapsing the third column
        with pytest.raises(SingularSystemError):
            coefficient_matrix(DeviceModel(theta_hat=1.0, theta_mode="dependent"))


class TestNormalizedYields:
    def test_rejects_bad_outcome(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(10.0), probs)
        with pytest.raises(ValueError):
            normalized_yields(2, table, probs)

    def test_composite_values(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(20.0), probs)
        assert normalized_yields(0, table, probs) == _triples(
            (0.00257883646949, 0.00226420099521, 0.00499513964121)
        )
        assert normalized_yields(1, table, probs) == _triples(
            (0.00242136253051, 0.00273599800479, 5.05935878768e-06)
        )

    def test_live_point_values(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(10.0), probs)
        assert normalized_yields(0, table, probs) == _triples(
            (0.0257874646949, 0.0226411099521, 0.0499504964121)
        )
        assert normalized_yields(1, table, probs) == _triples(
            (0.0242127253051, 0.0273590800479, 4.96935878768e-05)
        )


class TestTransmissionRateBounds:
    def test_clean_channel_collapses_to_point(self, probs):
        # with no side channels both solvers must return the exact linear
        # solution (eta/4) * (1, cos(delta/2), sin(delta/2)) for outcome 0
        device = DeviceModel(delta=0.126)
        table = actual_yields(device, ChannelModel(20.0, p_d=0.0), probs)
        expected = {
            0: (0.0025, 0.00249504039072, 0.000157395834424),
            1: (0.0025, -0.00249504039072, -0.000157395834424),
        }
        for mode in (PAPER_FAITHFUL, VERTEX_LP):
            for s, point in expected.items():
                b = transmission_rate_bounds(s, table, device, probs, mode)
                assert b.lower == _triples(point)
                assert b.upper == _triples(point)

    def test_ideal_outcome_one(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(20.0, p_d=0.0), probs)
        b = transmission_rate_bounds(1, table, DeviceModel(), probs)
        assert b.lower == _triples((0.0025, -0.0025, 0.0))

    def test_interval_solver_composite(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(20.0), probs)
        b0 = transmission_rate_bounds(0, table, COMPOSITE, probs, PAPER_FAITHFUL)
        assert b0.lower == _triples(
            (0.000764884109194, -0.000780337671007, -0.00166124701588)
        )
        assert b0.upper == _triples(
            (0.00423037831131, 0.00578040518208, 0.00182355805012)
        )
        b1 = transmission_rate_bounds(1, table, COMPOSITE, probs, PAPER_FAITHFUL)
        assert b1.lower == _triples(
            (0.000764885990405, -0.0057778715112, -0.00181872285182)
        )
        assert b1.upper == _triples(
            (0.00423038019252, 0.000782871341889, 0.00166608221417)
        )
        assert b0.witness_lower is None and b0.witness_upper is None

    def test_vertex_solver_composite(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(20.0), probs)
        b0 = transmission_rate_bounds(0, table, COMPOSITE, probs, VERTEX_LP)
        assert b0.lower == _triples(
            (0.00170498116932, -0.000780337671007, -0.00166124701588)
        )
        assert b0.upper == _triples(
            (0.00423037831131, 0.00329264595325, 0.00118022581811)
        )
        b1 = transmission_rate_bounds(1, table, COMPOSITE, probs, VERTEX_LP)
        assert b1.lower == _triples(
            (0.00105254249751, -0.00418279440028, -0.00181872285182)
        )
        assert b1.upper == _triples(
            (0.00423038019252, 0.000586987006212, 0.00136877027513)
        )
        assert b1.witness_lower is not None and len(b1.witness_upper) == 3

    def test_vertex_solver_live_point(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(10.0), probs)
        b0 = transmission_rate_bounds(0, table, COMPOSITE, probs, VERTEX_LP)
        assert b0.lower == _triples(
            (0.024199541604, 0.0217085073158, -0.0009527150928)
        )
        assert b0.upper == _triples(
            (0.0267304769345, 0.025787206388, 0.00189429592967)
        )

    def test_vertex_never_looser_than_interval(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(20.0), probs)
        for s in (0, 1):
            bi = transmission_rate_bounds(s, table, COMPOSITE, probs, PAPER_FAITHFUL)
            bv = transmission_rate_bounds(s, table, COMPOSITE, probs, VERTEX_LP)
            for i in range(3):
                assert bv.lower[i] >= bi.lower[i] - 1e-12
                assert bv.upper[i] <= bi.upper[i] + 1e-12

    def test_rejects_unknown_mode(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(10.0), probs)
        with pytest.raises(ValueError):
            transmission_rate_bounds(0, table, DeviceModel(), probs, "simplex")

    def test_side_channel_widths_pinned(self):
        decs = [actual_decomposition(s, COMPOSITE) for s in THREE_SETTINGS]
        assert [d.lambda_max for d in decs] == _triples(
            (0.000316277745998, 0.00316243571858, 0.00160359261951)
        )
        assert [d.lambda_min for d in decs] == _triples(
            (-0.000316177746003, -0.00315246614764, -0.00160102522069)
        )

    def test_contradictory_yields_are_infeasible(self, probs):
        # both Z pulses land on outcome 0X with normalized yield 0.9 while
        # the X pulse almost never does; the unique linear solution then
        # needs |q_x| > min(q_Id, 1 - q_Id), which no state can do
        entries = {}
        for outcome in (SETTING_0X, SETTING_1X):
            for sent in THREE_SETTINGS:
                entries[(outcome, sent)] = 0.0
        for outcome in (SETTING_0Z, SETTING_1Z):
            for sent in (SETTING_0Z, SETTING_1Z):
                entries[(outcome, sent)] = 0.0
        entries[(SETTING_0X, SETTING_0Z)] = 0.9 * 0.25 * 0.5
        entries[(SETTING_0X, SETTING_1Z)] = 0.9 * 0.25 * 0.5
        entries[(SETTING_0X, SETTING_0X)] = 0.01 * 0.5 * 0.5
        with pytest.raises(InfeasibleStatisticsError):
            transmission_rate_bounds(0, YieldTable(entries), DeviceModel(), probs, VERTEX_LP)

    @given(small_devices, st.floats(0.0, 30.0), st.sampled_from([0, 1]))
    @settings(max_examples=60)
    def test_bounds_are_ordered_and_contain_vertex_box(self, device, loss, s):
        probs = ProtocolProbabilities()
        table = actual_yields(device, ChannelModel(loss), probs)
        bi = transmission_rate_bounds(s, table, device, probs, PAPER_FAITHFUL)
        bv = transmission_rate_bounds(s, table, device, probs, VERTEX_LP)
        for i in range(3):
            assert bi.lower[i] <= bi.upper[i] + 1e-15
            assert bv.lower[i] <= bv.upper[i] + 1e-15
            assert bv.lower[i] >= bi.lower[i] - 1e-9
            assert bv.upper[i] <= bi.upper[i] + 1e-9


class TestVirtualYieldUpper:
    def test_ideal_phase_error_yield_vanishes(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(0.0, p_d=0.0), probs)
        b0 = transmission_rate_bounds(0, table, DeviceModel(), probs)
        b1 = transmission_rate_bounds(1, table, DeviceModel(), probs)
        assert virtual_yield_upper(0, 1, b0, DeviceModel(), probs) == 0.0
        assert virtual_yield_upper(1, 0, b1, DeviceModel(), probs) == 0.0

    def test_nonnegative_and_bounded(self, probs):
        table = actual_yields(COMPOSITE, ChannelModel(20.0), probs)
        for s in (0, 1):
            b = transmission_rate_bounds(s, table, COMPOSITE, probs)
            for j in (0, 1):
                y = virtual_yield_upper(s, j, b, COMPOSITE, probs)
                assert 0.0 <= y <= 1.0

    def test_rejects_bad_outcome(self, probs):
        table = actual_yields(DeviceModel(), ChannelModel(10.0), probs)
        b = transmission_rate_bounds(0, table, DeviceModel(), probs)
        with pytest.raises(ValueError):
            virtual_yield_upper(2, 0, b, DeviceModel(), probs)


class TestPhaseErrorRate:
    def test_clean_channel_tilt_invariance(self, probs):
        # with pure qubit states the tilt is fully corrected by the
        # estimator, so e_X matches the untitled device exactly
        e_tilted = phase_error_rate_lt(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        e_plain = phase_error_rate_lt(DeviceModel(), ChannelModel(20.0), probs)
        assert e_tilted == pytest.approx(1.99492060216e-05, rel=1e-9)
        assert e_plain == pytest.approx(1.99492060216e-05, rel=1e-9)

    def test_dark_free_tilted_error_vanishes(self, probs):
        e = phase_error_rate_lt(DeviceModel(delta=0.126), ChannelModel(20.0, p_d=0.0), probs)
        assert abs(e) < 1e-12

    def test_composite_saturates(self, probs):
        for mode in (PAPER_FAITHFUL, VERTEX_LP):
            assert phase_error_rate_lt(COMPOSITE, ChannelModel(20.0), probs, mode) == 1.0

    def test_live_point_both_solvers(self, probs):
        e8 = phase_error_rate_lt(COMPOSITE, ChannelModel(10.0), probs, PAPER_FAITHFUL)
        ev = phase_error_rate_lt(COMPOSITE, ChannelModel(10.0), probs, VERTEX_LP)
        assert e8 == pytest.approx(0.146200182879, rel=1e-9)
        assert ev == pytest.approx(0.146185870983, rel=1e-9)
        assert ev <= e8

    def test_no_detections(self, probs):
        with pytest.raises(NoDetectionError):
            phase_error_rate_lt(DeviceModel(), ChannelModel(float("inf"), p_d=0.0), probs)

    @given(small_devices, st.floats(0.0, 40.0))
    @settings(max_examples=40)
    def test_stays_in_unit_interval(self, device, loss):
        probs = ProtocolProbabilities()
        e = phase_error_rate_lt(device, ChannelModel(loss), probs)
        assert 0.0 <= e <= 1.0


class TestKeyRate:
    def test_clean_tilted_rate(self, probs):
        point = key_rate_lt(DeviceModel(delta=0.126), ChannelModel(20.0), probs)
        assert point.rate == pytest.approx(0.00226691206605, rel=1e-9)
        assert point.e_z == pytest.approx(0.00989751191229, rel=1e-9)
        assert point.rate == point.rate_raw
        assert point.loss_db == 20.0
        assert point.eta == pytest.approx(0.01, rel=1e-12)

    def test_composite_dead_at_20db(self, probs):
        point = key_rate_lt(COMPOSITE, ChannelModel(20.0), probs)
        assert point.rate == 0.0
        assert point.rate_raw == pytest.approx(-7.30593622901e-05, rel=1e-9)
        assert point.e_x == 1.0
        assert point.e_z == pytest.approx(0.00249768716815, rel=1e-9)

    def test_composite_live_at_10db(self, probs):
        boxed = key_rate_lt(COMPOSITE, ChannelModel(10.0), probs, PAPER_FAITHFUL)
        vertex = key_rate_lt(COMPOSITE, ChannelModel(10.0), probs, VERTEX_LP)
        assert boxed.rate == pytest.approx(0.00926773679739, rel=1e-9)
        assert vertex.rate == pytest.approx(0.00926864776575, rel=1e-9)
        assert boxed.e_z == pytest.approx(0.00247977715294, rel=1e-9)
        assert vertex.rate >= boxed.rate

    def test_degenerate_virtual_state_propagates(self, probs):
        with pytest.raises(DegenerateStateError):
            key_rate_lt(DeviceModel(delta=3.14159265), ChannelModel(5.0), probs)

    def test_singular_system_propagates(self, probs):
        with pytest.raises(SingularSystemError):
            key_rate_lt(
                DeviceModel(theta_hat=1.0, theta_mode="dependent"), ChannelModel(5.0), probs
            )

    def test_excess_phase_error_never_goes_negative(self, probs):
        # e_X = 1 means the entropy argument is clamped at 1/2; the raw
        # rate goes negative but the reported rate is floored at zero
        point = key_rate_lt(COMPOSITE, ChannelModel(20.0), probs)
        assert point.rate_raw < 0.0
        assert point.rate == 0.0

    @pytest.mark.parametrize(
        "estimate",
        [
            lambda ch, probs: key_rate_lt(COMPOSITE, ch, probs, PAPER_FAITHFUL),
            lambda ch, probs: key_rate_lt(COMPOSITE, ch, probs, VERTEX_LP),
            lambda ch, probs: key_rate_lp(COMPOSITE, ch, probs),
        ],
        ids=["lt-paper", "lt-vertex", "lp"],
    )
    def test_fields_are_plain_floats(self, probs, estimate):
        point = estimate(ChannelModel(10.0), probs)
        for f in fields(point):
            assert type(getattr(point, f.name)) is float, f.name
