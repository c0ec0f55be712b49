import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flawedqkd import (
    SETTING_0X,
    SETTING_0Z,
    SETTING_1X,
    SETTING_1Z,
    THREE_SETTINGS,
    FOUR_SETTINGS,
    BlochVector,
    DegenerateStateError,
    DeviceModel,
    QubitKet,
    Setting,
    actual_decomposition,
    bloch_vector,
    full_overlap,
    mode_angles,
    qubit_state,
    tha_coefficients,
    virtual_decomposition,
)

# Strategy kept away from the delta -> pi corner where the virtual states
# legitimately degenerate.
devices = st.builds(
    DeviceModel,
    delta=st.floats(0.0, 2.5),
    theta_hat=st.floats(0.0, 1.4),
    theta_mode=st.sampled_from(["independent", "dependent"]),
    mu=st.floats(0.0, 3.0),
)


class TestSetting:
    def test_labels(self):
        assert SETTING_0Z.label() == "0Z"
        assert SETTING_1X.label() == "1X"
        assert THREE_SETTINGS == (SETTING_0Z, SETTING_1Z, SETTING_0X)
        assert len(FOUR_SETTINGS) == 4

    def test_rejects_bad_bit_and_basis(self):
        with pytest.raises(ValueError):
            Setting(2, "Z")
        with pytest.raises(ValueError):
            Setting(0, "Y")


class TestDeviceModel:
    def test_defaults_are_ideal(self):
        d = DeviceModel()
        assert d.delta == 0.0 and d.theta_hat == 0.0 and d.mu == 0.0
        assert d.theta_mode == "dependent"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": -0.1},
            {"delta": math.pi},
            {"delta": 9.0},
            {"theta_hat": -1e-3},
            {"theta_hat": math.pi / 2},
            {"theta_mode": "sideways"},
            {"mu": -1e-9},
            {"mu": math.inf},
        ],
    )
    def test_rejects_out_of_range_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DeviceModel(**kwargs)


class TestQubitStates:
    def test_reference_state_is_pole(self):
        k = qubit_state(SETTING_0Z, 0.7)
        assert (k.c0, k.c1) == (1.0, 0.0)

    def test_ideal_states(self):
        r = math.sqrt(0.5)
        kx = qubit_state(SETTING_0X, 0.0)
        assert kx.c0 == pytest.approx(r, abs=1e-15)
        assert kx.c1 == pytest.approx(r, abs=1e-15)
        kz = qubit_state(SETTING_1Z, 0.0)
        assert (kz.c0, kz.c1) == (0.0, 1.0)

    def test_tilted_amplitudes(self):
        # values pinned from an exact high-precision evaluation at delta = 0.126
        k0x = qubit_state(SETTING_0X, 0.126)
        assert k0x.c0 == pytest.approx(0.684485816592, abs=1e-12)
        assert k0x.c1 == pytest.approx(0.729026177092, abs=1e-12)
        k1z = qubit_state(SETTING_1Z, 0.126)
        assert k1z.c0 == pytest.approx(-0.0629583337695, abs=1e-12)
        assert k1z.c1 == pytest.approx(0.998016156287, abs=1e-12)
        k1x = qubit_state(SETTING_1X, 0.126)
        assert k1x.c0 == pytest.approx(-0.770673989595, abs=1e-12)
        assert k1x.c1 == pytest.approx(0.637229630323, abs=1e-12)

    @given(devices, st.sampled_from(FOUR_SETTINGS))
    def test_states_stay_normalized(self, device, setting):
        assert qubit_state(setting, device.delta).norm_sq() == pytest.approx(1.0, abs=1e-12)


class TestBlochVector:
    def test_poles_and_equator(self):
        assert bloch_vector(QubitKet(1.0, 0.0)) == BlochVector(0.0, 1.0)
        b = bloch_vector(QubitKet(math.sqrt(0.5), math.sqrt(0.5)))
        assert b.px == pytest.approx(1.0, abs=1e-12)
        assert b.pz == pytest.approx(0.0, abs=1e-12)

    def test_tilted_values(self):
        b = bloch_vector(qubit_state(SETTING_1Z, 0.126))
        assert b.px == pytest.approx(-0.12566686855, abs=1e-12)
        assert b.pz == pytest.approx(-0.992072496418, abs=1e-12)
        b = bloch_vector(qubit_state(SETTING_0X, 0.126))
        assert b.px == pytest.approx(0.998016156287, abs=1e-12)
        assert b.pz == pytest.approx(-0.0629583337695, abs=1e-12)
        b = bloch_vector(qubit_state(SETTING_1X, 0.126))
        assert b.px == pytest.approx(-0.982192602979, abs=1e-12)
        assert b.pz == pytest.approx(0.187876796476, abs=1e-12)

    def test_rejects_unnormalized_ket(self):
        with pytest.raises(ValueError):
            bloch_vector(QubitKet(1.0, 1.0))

    @given(devices, st.sampled_from(FOUR_SETTINGS))
    def test_unit_norm(self, device, setting):
        b = bloch_vector(qubit_state(setting, device.delta))
        assert b.px * b.px + b.pz * b.pz == pytest.approx(1.0, abs=1e-12)


class TestModeAngles:
    def test_dependent_scaling(self):
        angles = mode_angles(DeviceModel(theta_hat=1e-3, theta_mode="dependent"))
        assert angles[SETTING_0Z] == 0.0
        assert angles[SETTING_1Z] == pytest.approx(math.pi * 1e-3)
        assert angles[SETTING_0X] == pytest.approx(math.pi / 2 * 1e-3)
        assert angles[SETTING_1X] == pytest.approx(3 * math.pi / 2 * 1e-3)

    def test_independent_is_uniform(self):
        angles = mode_angles(DeviceModel(theta_hat=1e-3, theta_mode="independent"))
        assert set(angles.values()) == {1e-3}


class TestThaCoefficients:
    def test_no_leak(self):
        assert tha_coefficients(0.0) == (1.0, 0.0)

    def test_small_leak(self):
        c_i, c_d = tha_coefficients(1e-6)
        assert c_i == pytest.approx(0.99999950000012, abs=1e-13)
        assert c_d == pytest.approx(0.00099999975000005, rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            tha_coefficients(-0.5)

    def test_rejects_infinite(self):
        with pytest.raises(ValueError, match="mu"):
            tha_coefficients(math.inf)

    @given(st.floats(0.0, 50.0))
    def test_amplitudes_partition_unity(self, mu):
        c_i, c_d = tha_coefficients(mu)
        assert c_i * c_i + c_d * c_d == pytest.approx(1.0, abs=1e-12)


class TestActualDecomposition:
    def test_ideal_is_pure_qubit(self):
        for s in FOUR_SETTINGS:
            dec = actual_decomposition(s, DeviceModel())
            assert dec.qubit_weight == 1.0
            assert dec.side_weight == 0.0
            assert dec.cross_mag == 0.0
            assert dec.lambda_max == 0.0 and dec.lambda_min == 0.0

    def test_leak_only(self):
        dec = actual_decomposition(SETTING_0Z, DeviceModel(mu=1e-3))
        assert dec.qubit_weight == pytest.approx(0.999000499833, abs=1e-12)
        assert dec.side_weight == pytest.approx(0.000999500166625, rel=1e-10)
        assert dec.cross_mag == pytest.approx(0.0315990690692, rel=1e-10)
        assert dec.lambda_max == pytest.approx(0.0321027707647, rel=1e-10)
        assert dec.lambda_min == pytest.approx(-0.0311032705981, rel=1e-10)

    def test_rotation_only(self):
        dec = actual_decomposition(
            SETTING_1Z, DeviceModel(theta_hat=1e-3, theta_mode="dependent")
        )
        assert dec.qubit_weight == pytest.approx(0.999990130428, abs=1e-12)
        assert dec.lambda_max == pytest.approx(0.00314651064452, rel=1e-10)

    @given(devices, st.sampled_from(FOUR_SETTINGS))
    def test_weights_partition_unity(self, device, setting):
        dec = actual_decomposition(setting, device)
        assert dec.qubit_weight + dec.side_weight == pytest.approx(1.0, abs=1e-12)

    @given(devices, st.sampled_from(FOUR_SETTINGS))
    def test_lambda_eigenvalue_identities(self, device, setting):
        # lambda_max/min are the eigenvalues of [[side, cross], [cross, 0]]
        dec = actual_decomposition(setting, device)
        assert dec.lambda_max + dec.lambda_min == pytest.approx(dec.side_weight, abs=1e-12)
        assert dec.lambda_max * dec.lambda_min == pytest.approx(
            -dec.cross_mag**2, abs=1e-12
        )
        assert dec.lambda_min <= 0.0 <= dec.lambda_max


class TestVirtualDecomposition:
    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError):
            virtual_decomposition(2, DeviceModel())

    def test_tilt_only_weights(self):
        # exact high-precision value for the j=0 qubit weight at delta = 0.126
        d = DeviceModel(delta=0.126)
        v0 = virtual_decomposition(0, d)
        assert v0.qubit_weight == pytest.approx(0.46852083311524, abs=1e-13)
        assert v0.side_weight == 0.0
        assert v0.cross_mag == 0.0
        assert v0.lambda_max == 0.0
        v1 = virtual_decomposition(1, d)
        assert v1.qubit_weight == pytest.approx(0.531479166885, abs=1e-12)

    def test_tilt_only_bloch(self):
        d = DeviceModel(delta=0.126)
        v0 = virtual_decomposition(0, d)
        assert v0.bloch.px == pytest.approx(math.cos(0.063), abs=1e-12)
        assert v0.bloch.pz == pytest.approx(math.sin(0.063), abs=1e-12)
        v1 = virtual_decomposition(1, d)
        assert v1.bloch.px == pytest.approx(-math.cos(0.063), abs=1e-12)
        assert v1.bloch.pz == pytest.approx(-math.sin(0.063), abs=1e-12)

    def test_all_flaws_together(self):
        d = DeviceModel(delta=0.126, theta_hat=1e-3, theta_mode="dependent", mu=1e-6)
        v0 = virtual_decomposition(0, d)
        assert v0.qubit_weight == pytest.approx(0.468518052547, rel=1e-10)
        assert v0.side_weight == pytest.approx(2.96739026546e-06, rel=1e-9)
        assert v0.cross_mag == pytest.approx(0.00117909961764, rel=1e-9)
        assert v0.lambda_max == pytest.approx(0.00118058424626, rel=1e-9)
        assert v0.bloch.px == pytest.approx(0.998016487177, rel=1e-10)
        assert v0.bloch.pz == pytest.approx(0.0629530882709, rel=1e-10)
        v1 = virtual_decomposition(1, d)
        assert v1.qubit_weight == pytest.approx(0.531476012672, rel=1e-10)
        assert v1.cross_mag == pytest.approx(0.0012558251257, rel=1e-9)
        assert v1.lambda_max == pytest.approx(0.00125730969728, rel=1e-9)
        assert v1.bloch.px == pytest.approx(-0.99801586457, rel=1e-10)
        assert v1.bloch.pz == pytest.approx(-0.0629629578917, rel=1e-10)

    def test_degenerate_near_pi(self):
        # sin(delta/2) rounds to 1 here and the j=0 qubit weight underflows
        with pytest.raises(DegenerateStateError):
            virtual_decomposition(0, DeviceModel(delta=3.14159265))

    @given(devices)
    @settings(max_examples=300)
    def test_weights_close(self, device):
        v0 = virtual_decomposition(0, device)
        v1 = virtual_decomposition(1, device)
        total = v0.qubit_weight + v1.qubit_weight + v0.side_weight + v1.side_weight
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(devices, st.sampled_from([0, 1]))
    def test_bloch_unit_norm(self, device, j):
        b = virtual_decomposition(j, device).bloch
        assert b.px * b.px + b.pz * b.pz == pytest.approx(1.0, abs=1e-12)

    @given(devices, st.sampled_from([0, 1]))
    def test_lambda_eigenvalue_identities(self, device, j):
        vd = virtual_decomposition(j, device)
        assert vd.lambda_max + vd.lambda_min == pytest.approx(vd.side_weight, abs=1e-12)
        assert vd.lambda_max * vd.lambda_min == pytest.approx(-vd.cross_mag**2, abs=1e-12)


class TestFullOverlap:
    def test_opposite_bits_nearly_orthogonal(self):
        d = DeviceModel(delta=0.126, theta_hat=1e-3, theta_mode="dependent", mu=1e-6)
        assert full_overlap(SETTING_0Z, SETTING_1Z, d) == pytest.approx(
            -0.0629579601249, rel=1e-10
        )
        assert full_overlap(
            SETTING_0Z, SETTING_1Z, DeviceModel(delta=0.126)
        ) == pytest.approx(-0.0629583337695, rel=1e-10)

    def test_ideal_overlaps(self):
        d = DeviceModel()
        assert full_overlap(SETTING_0Z, SETTING_0Z, d) == pytest.approx(1.0, abs=1e-15)
        assert full_overlap(SETTING_0Z, SETTING_1Z, d) == pytest.approx(0.0, abs=1e-15)
        assert full_overlap(SETTING_0Z, SETTING_0X, d) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    @given(devices, st.sampled_from(FOUR_SETTINGS), st.sampled_from(FOUR_SETTINGS))
    def test_symmetric_and_bounded(self, device, s1, s2):
        ov = full_overlap(s1, s2, device)
        assert ov == pytest.approx(full_overlap(s2, s1, device), abs=1e-15)
        assert abs(ov) <= 1.0 + 1e-12
