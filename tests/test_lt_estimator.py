
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flawedqkd import (
    PAPER_FAITHFUL,
    SOLVER_MODES,
    VERTEX_LP,
    ChannelModel,
    DegenerateStateError,
    DeviceModel,
    NoDetectionError,
    ProtocolProbabilities,
    SingularSystemError,
    evaluate_grid,
    key_rate_lp,
    key_rate_lt,
    prepare,
    system_efficiency,
)
from flawedqkd.channel import X_ROWS, detector_yields, efficiency, yield_prefactors
from flawedqkd.lt_estimator import (
    halfspace_rhs,
    halfspace_rows,
    interval_box,
    triple_systems,
    unphysical,
    vertex_box,
    virtual_yields,
)
from flawedqkd.qstates import source_terms

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
    def test_tilted_matrix(self, probs):
        mat = prepare(DeviceModel(delta=0.126), probs).lt.coef[0]
        assert mat[0] == _triples((1.0, 1.0, 1.0))
        assert mat[1] == _triples((0.0, -0.12566686855, 0.998016156287))
        assert mat[2] == _triples((1.0, -0.992072496418, -0.0629583337695))
        assert np.linalg.det(mat) == pytest.approx(2.12169918112, rel=1e-10)

    def test_ideal_determinant(self, probs):
        assert np.linalg.det(prepare(DeviceModel(), probs).lt.coef[0]) == pytest.approx(
            2.0, rel=1e-12
        )

    def test_collinear_states_rejected(self, probs):
        # theta_hat = 1 in dependent mode rotates the X state fully out of
        # the qubit mode, collapsing the third column
        terms = prepare(DeviceModel(theta_hat=1.0, theta_mode="dependent"), probs).lt
        assert isinstance(terms.singular[0], SingularSystemError)


class TestNormalizedYields:
    def test_composite_values(self, probs):
        prepared = prepare(COMPOSITE, probs)
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 1e-7)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        assert ytil[0] == _triples((0.00257883646949, 0.00226420099521, 0.00499513964121))
        assert ytil[1] == _triples((0.00242136253051, 0.00273599800479, 5.05935878768e-06))

    def test_live_point_values(self, probs):
        prepared = prepare(COMPOSITE, probs)
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(10.0), 1e-7)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        assert ytil[0] == _triples((0.0257874646949, 0.0226411099521, 0.0499504964121))
        assert ytil[1] == _triples((0.0242127253051, 0.0273590800479, 4.96935878768e-05))


class TestTransmissionRateBounds:
    def test_clean_channel_collapses_to_point(self, probs):
        # with no side channels both solvers must return the exact linear
        # solution (eta/4) * (1, cos(delta/2), sin(delta/2)) for outcome 0
        prepared = prepare(DeviceModel(delta=0.126), probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 0.0)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        expected = {
            0: (0.0025, 0.00249504039072, 0.000157395834424),
            1: (0.0025, -0.00249504039072, -0.000157395834424),
        }
        lower, upper = interval_box(ytil[None], terms)
        rows = halfspace_rows(terms.coef[0])
        systems = triple_systems(rows)
        for s, point in expected.items():
            assert lower[0, s] == _triples(point)
            assert upper[0, s] == _triples(point)
            v_lower, v_upper, _, _ = vertex_box(
                rows, systems, halfspace_rhs(ytil[s], terms.lam_min[0], terms.lam_max[0])
            )
            assert v_lower == _triples(point)
            assert v_upper == _triples(point)

    def test_ideal_outcome_one(self, probs):
        prepared = prepare(DeviceModel(), probs)
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 0.0)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        lower, _ = interval_box(ytil[None], prepared.lt)
        assert lower[0, 1] == _triples((0.0025, -0.0025, 0.0))

    def test_interval_solver_composite(self, probs):
        prepared = prepare(COMPOSITE, probs)
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 1e-7)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        lower, upper = interval_box(ytil[None], prepared.lt)
        assert not unphysical(lower, upper).any()
        assert lower[0, 0] == _triples(
            (0.000764884109194, -0.000780337671007, -0.00166124701588)
        )
        assert upper[0, 0] == _triples(
            (0.00423037831131, 0.00578040518208, 0.00182355805012)
        )
        assert lower[0, 1] == _triples(
            (0.000764885990405, -0.0057778715112, -0.00181872285182)
        )
        assert upper[0, 1] == _triples(
            (0.00423038019252, 0.000782871341889, 0.00166608221417)
        )

    def test_vertex_solver_composite(self, probs):
        prepared = prepare(COMPOSITE, probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 1e-7)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        rows = halfspace_rows(terms.coef[0])
        systems = triple_systems(rows)
        rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
        lower, upper, _, _ = vertex_box(rows, systems, rhs[0])
        assert lower == _triples(
            (0.00170498116932, -0.000780337671007, -0.00166124701588)
        )
        assert upper == _triples(
            (0.00423037831131, 0.00329264595325, 0.00118022581811)
        )
        lower, upper, _, witness_upper = vertex_box(rows, systems, rhs[1])
        assert lower == _triples(
            (0.00105254249751, -0.00418279440028, -0.00181872285182)
        )
        assert upper == _triples(
            (0.00423038019252, 0.000586987006212, 0.00136877027513)
        )
        assert len(witness_upper) == 3

    def test_vertex_solver_live_point(self, probs):
        prepared = prepare(COMPOSITE, probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(10.0), 1e-7)
        ytil = yields[0, 0, X_ROWS] / prepared.prefactor[X_ROWS]
        rows = halfspace_rows(terms.coef[0])
        lower, upper, _, _ = vertex_box(
            rows, triple_systems(rows), halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
        )
        assert lower == _triples(
            (0.024199541604, 0.0217085073158, -0.0009527150928)
        )
        assert upper == _triples(
            (0.0267304769345, 0.025787206388, 0.00189429592967)
        )

    def test_vertex_never_looser_than_interval(self, probs):
        prepared = prepare(COMPOSITE, probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 1e-7)
        ytil = yields[0, :, X_ROWS] / prepared.prefactor[X_ROWS]
        box_lower, box_upper = interval_box(ytil[None], terms)
        rows = halfspace_rows(terms.coef[0])
        systems = triple_systems(rows)
        for s in (0, 1):
            rhs = halfspace_rhs(ytil[s], terms.lam_min[0], terms.lam_max[0])
            v_lower, v_upper, _, _ = vertex_box(rows, systems, rhs)
            for i in range(3):
                assert v_lower[i] >= box_lower[0, s, i] - 1e-12
                assert v_upper[i] <= box_upper[0, s, i] + 1e-12

    def test_rejects_unknown_mode(self, probs):
        prepared = prepare(DeviceModel(), probs)
        with pytest.raises(ValueError):
            evaluate_grid(prepared, np.array([efficiency(10.0)]), 1e-7, 1.16, solver="simplex")

    def test_side_channel_widths_pinned(self):
        # Fields 3 and 4 of each sent state's terms: lambda_max, lambda_min.
        decs = source_terms([COMPOSITE]).sent[0]
        assert [d[3] for d in decs] == _triples(
            (0.000316277745998, 0.00316243571858, 0.00160359261951)
        )
        assert [d[4] for d in decs] == _triples(
            (-0.000316177746003, -0.00315246614764, -0.00160102522069)
        )

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    def test_contradictory_yields_are_infeasible(self, probs, mode):
        # both Z pulses land on outcome 0X with normalized yield 0.9 while
        # the X pulse almost never does; the unique linear solution then
        # needs |q_x| > min(q_Id, 1 - q_Id), which no state can do
        terms = prepare(DeviceModel(), probs).lt
        observed = np.array([0.9 * 0.25 * 0.5, 0.9 * 0.25 * 0.5, 0.01 * 0.5 * 0.5])
        ytil = observed / yield_prefactors(probs)[X_ROWS]
        if mode == PAPER_FAITHFUL:
            assert unphysical(*interval_box(ytil[None, None], terms)).all()
        else:
            rows = halfspace_rows(terms.coef[0])
            rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
            assert vertex_box(rows, triple_systems(rows), rhs) is None

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    def test_inflated_x_yield_is_infeasible(self, probs, mode):
        # 50 times the 0X->0X yield pushes the interval box to q_x near 2.4
        # with q_Id near 0.1, far outside the physical region
        prepared = prepare(COMPOSITE, probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(10.0), 1e-7)
        yields[0, 0, 4] *= 50.0
        ytil = yields[0, 0, X_ROWS] / prepared.prefactor[X_ROWS]
        if mode == PAPER_FAITHFUL:
            assert unphysical(*interval_box(ytil[None, None], terms)).all()
        else:
            rows = halfspace_rows(terms.coef[0])
            rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
            assert vertex_box(rows, triple_systems(rows), rhs) is None

    @pytest.mark.parametrize("mode", SOLVER_MODES)
    @pytest.mark.parametrize("q", [(0.1, 0.3, 0.0), (0.9, -0.3, 0.0), (0.2, 0.0, -0.3)])
    def test_rates_outside_the_physical_region_are_infeasible(self, probs, mode, q):
        # the ideal device has no side channel, so the yields fix q exactly;
        # each q has |q_x| or |q_z| below 1/2 but above min(q_Id, 1 - q_Id)
        terms = prepare(DeviceModel(), probs).lt
        ytil = np.array(q) @ terms.coef[0]
        if mode == PAPER_FAITHFUL:
            assert unphysical(*interval_box(ytil[None, None], terms)).all()
        else:
            rows = halfspace_rows(terms.coef[0])
            rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
            assert vertex_box(rows, triple_systems(rows), rhs) is None

    @given(small_devices, st.floats(0.0, 30.0), st.sampled_from([0, 1]))
    @settings(max_examples=60)
    def test_bounds_are_ordered_and_contain_vertex_box(self, device, loss, s):
        prepared = prepare(device, ProtocolProbabilities())
        terms = prepared.lt
        eta = system_efficiency(ChannelModel(loss))
        yields = detector_yields(prepared.prefactor, prepared.alignment, eta, 1e-7)
        ytil = yields[0, s, X_ROWS] / prepared.prefactor[X_ROWS]
        box_lower, box_upper = interval_box(ytil[None, None], terms)
        assert not unphysical(box_lower, box_upper).any()
        bi_lower, bi_upper = box_lower[0, 0], box_upper[0, 0]
        rows = halfspace_rows(terms.coef[0])
        rhs = halfspace_rhs(ytil, terms.lam_min[0], terms.lam_max[0])
        bv_lower, bv_upper, _, _ = vertex_box(rows, triple_systems(rows), rhs)
        for i in range(3):
            assert bi_lower[i] <= bi_upper[i] + 1e-15
            assert bv_lower[i] <= bv_upper[i] + 1e-15
            assert bv_lower[i] >= bi_lower[i] - 1e-9
            assert bv_upper[i] <= bi_upper[i] + 1e-9


class TestVirtualYieldUpper:
    def test_ideal_phase_error_yield_vanishes(self, probs):
        prepared = prepare(DeviceModel(), probs)
        terms = prepared.lt
        yields = detector_yields(prepared.prefactor, prepared.alignment, 1.0, 0.0)
        lower, upper = interval_box(yields[:, :, X_ROWS] / prepared.prefactor[X_ROWS], terms)
        # Outcome s against the virtual state of bit 1 - s, s = 0 then 1.
        v = terms.virtual
        y = virtual_yields(
            lower, upper, terms.corner, v[..., 0], v[..., 3], v[..., 5], v[..., 6],
            probs.p_za * probs.p_zb,
        )
        assert y[0, 0] == 0.0
        assert y[0, 1] == 0.0

    def test_nonnegative_and_bounded(self, probs):
        prepared = prepare(COMPOSITE, probs)
        yields = detector_yields(prepared.prefactor, prepared.alignment, efficiency(20.0), 1e-7)
        lower, upper = interval_box(yields[:, :, X_ROWS] / prepared.prefactor[X_ROWS], prepared.lt)
        for s in (0, 1):
            for j in (0, 1):
                weight, _, _, lam_max, _, px, pz = source_terms([COMPOSITE]).virtual[0, j]
                y = virtual_yields(
                    lower[0, s], upper[0, s], prepared.lt.corner[0, 1 - j],
                    weight, lam_max, px, pz, probs.p_za * probs.p_zb,
                )
                assert 0.0 <= y <= 1.0


class TestPhaseErrorRate:
    def test_clean_channel_tilt_invariance(self, probs):
        # with pure qubit states the tilt is fully corrected by the
        # estimator, so e_X matches the untitled device exactly
        e_tilted = key_rate_lt(DeviceModel(delta=0.126), ChannelModel(20.0), probs).e_x
        e_plain = key_rate_lt(DeviceModel(), ChannelModel(20.0), probs).e_x
        assert e_tilted == pytest.approx(1.99492060216e-05, rel=1e-9)
        assert e_plain == pytest.approx(1.99492060216e-05, rel=1e-9)

    def test_dark_free_tilted_error_vanishes(self, probs):
        e = key_rate_lt(DeviceModel(delta=0.126), ChannelModel(20.0, p_d=0.0), probs).e_x
        assert abs(e) < 1e-12

    def test_composite_saturates(self, probs):
        for mode in (PAPER_FAITHFUL, VERTEX_LP):
            assert key_rate_lt(COMPOSITE, ChannelModel(20.0), probs, mode).e_x == 1.0

    def test_live_point_both_solvers(self, probs):
        e8 = key_rate_lt(COMPOSITE, ChannelModel(10.0), probs, PAPER_FAITHFUL).e_x
        ev = key_rate_lt(COMPOSITE, ChannelModel(10.0), probs, VERTEX_LP).e_x
        assert e8 == pytest.approx(0.146200182879, rel=1e-9)
        assert ev == pytest.approx(0.146185870983, rel=1e-9)
        assert ev <= e8

    def test_no_detections(self, probs):
        with pytest.raises(NoDetectionError):
            key_rate_lt(DeviceModel(), ChannelModel(float("inf"), p_d=0.0), probs)

    @given(small_devices, st.floats(0.0, 40.0))
    @settings(max_examples=40)
    def test_stays_in_unit_interval(self, device, loss):
        probs = ProtocolProbabilities()
        e = key_rate_lt(device, ChannelModel(loss), probs).e_x
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
        for name in ("loss_db", "eta", "e_z", "e_x", "rate_raw", "rate"):
            assert type(getattr(point, name)) is float, name
