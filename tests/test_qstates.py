import ast
import hashlib
import math
import random
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flawedqkd import (
    DegenerateStateError,
    DeviceModel,
    ProtocolProbabilities,
    prepare,
    qstates,
    tha_coefficients,
)
from flawedqkd.qstates import source_terms

# Strategy kept away from the delta -> pi corner where the virtual states
# legitimately degenerate.
devices = st.builds(
    DeviceModel,
    delta=st.floats(0.0, 2.5),
    theta_hat=st.floats(0.0, 1.4),
    theta_mode=st.sampled_from(["independent", "dependent"]),
    mu=st.floats(0.0, 3.0),
)


class TestDeviceModel:
    def test_defaults_are_ideal(self):
        d = DeviceModel()
        assert d.delta == 0.0 and d.theta_hat == 0.0 and d.mu == 0.0
        assert d.theta_mode == "dependent"

    def test_holds_only_its_parameters(self):
        names = [f.name for f in fields(DeviceModel)]
        assert names == ["delta", "theta_hat", "theta_mode", "mu"]

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


def kets(delta):
    """The kets of 0Z, 1Z, 0X and 1X at tilt delta, read off source_terms
    for a device with no other flaw: a Z ket from its Bloch vector, with
    c1 >= 0 as the kets have it, and an X ket from its overlaps with the
    Z kets, given that 0Z is (1, 0)."""
    terms = source_terms([DeviceModel(delta=delta)])
    z_kets = []
    for *_, px, pz in terms.sent[0, :2].tolist():
        c1 = math.sqrt((1.0 - pz) / 2.0)
        z_kets.append((px / (2.0 * c1) if c1 else math.sqrt((1.0 + pz) / 2.0), c1))
    b0, b1 = z_kets[1]
    overlaps = terms.overlaps[0].tolist()
    x_kets = [(overlaps[x], (overlaps[2 + x] - b0 * overlaps[x]) / b1) for x in (0, 1)]
    return z_kets + x_kets


def mode_angles(device):
    """The rotation angles of 0Z, 1Z, 0X and 1X of a device without tilt
    or leak, read off source_terms: a sent state's qubit weight is the
    squared cosine of its angle, and 1X's overlap with 0Z is 0X's with the
    cosine of 1X's angle in place of 0X's and the sign of the ket flipped."""
    terms = source_terms([device])
    cos = [math.sqrt(w) for w in terms.sent[0, :, 0].tolist()]
    overlaps = terms.overlaps[0].tolist()
    cos.append(-overlaps[1] / overlaps[0] * cos[2])
    return [math.acos(c) for c in cos]


# Settings are numbered 0Z, 1Z, 0X, 1X; the kets, Bloch vectors and mode
# angles that source_terms builds its closed forms from, read off its output.
class TestQubitStates:
    def test_reference_state_is_pole(self):
        assert kets(0.7)[0] == (1.0, 0.0)

    def test_ideal_states(self):
        r = math.sqrt(0.5)
        kx = kets(0.0)[2]
        assert kx[0] == pytest.approx(r, abs=1e-15)
        assert kx[1] == pytest.approx(r, abs=1e-15)
        assert kets(0.0)[1] == (0.0, 1.0)

    def test_tilted_amplitudes(self):
        # values pinned from an exact high-precision evaluation at delta = 0.126
        k0x = kets(0.126)[2]
        assert k0x[0] == pytest.approx(0.684485816592, abs=1e-12)
        assert k0x[1] == pytest.approx(0.729026177092, abs=1e-12)
        k1z = kets(0.126)[1]
        assert k1z[0] == pytest.approx(-0.0629583337695, abs=1e-12)
        assert k1z[1] == pytest.approx(0.998016156287, abs=1e-12)
        k1x = kets(0.126)[3]
        assert k1x[0] == pytest.approx(-0.770673989595, abs=1e-12)
        assert k1x[1] == pytest.approx(0.637229630323, abs=1e-12)

    @given(devices, st.sampled_from(range(4)))
    def test_states_stay_normalized(self, device, index):
        c0, c1 = kets(device.delta)[index]
        assert c0 * c0 + c1 * c1 == pytest.approx(1.0, abs=1e-12)


class TestBlochVector:
    def test_poles_and_equator(self):
        # The Bloch vectors of the kets (1, 0) and (sqrt(1/2), sqrt(1/2)).
        sent = source_terms([DeviceModel()]).sent[0]
        assert tuple(sent[0, 5:].tolist()) == (0.0, 1.0)
        px, pz = sent[2, 5:]
        assert px == pytest.approx(1.0, abs=1e-12)
        assert pz == pytest.approx(0.0, abs=1e-12)

    def test_tilted_values(self):
        _, z1, x0 = source_terms([DeviceModel(delta=0.126)]).sent[0]
        assert z1[5] == pytest.approx(-0.12566686855, abs=1e-12)
        assert z1[6] == pytest.approx(-0.992072496418, abs=1e-12)
        assert x0[5] == pytest.approx(0.998016156287, abs=1e-12)
        assert x0[6] == pytest.approx(-0.0629583337695, abs=1e-12)

    @given(devices)
    def test_unit_norm(self, device):
        for *_, px, pz in source_terms([device]).sent[0]:
            assert px * px + pz * pz == pytest.approx(1.0, abs=1e-12)


class TestModeAngles:
    def test_dependent_scaling(self):
        angles = mode_angles(DeviceModel(theta_hat=1e-3, theta_mode="dependent"))
        assert angles[0] == 0.0
        assert angles[1] == pytest.approx(math.pi * 1e-3)
        assert angles[2] == pytest.approx(math.pi / 2 * 1e-3)
        assert angles[3] == pytest.approx(3 * math.pi / 2 * 1e-3)

    def test_independent_is_uniform(self):
        device = DeviceModel(theta_hat=1e-3, theta_mode="independent")
        assert len(set(source_terms([device]).sent[0, :, 0].tolist())) == 1
        assert mode_angles(device) == pytest.approx([1e-3] * 4)


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


# A state's terms: qubit weight, side weight, cross magnitude, lambda_max,
# lambda_min, px, pz; source_terms(...).sent[i, k] and .virtual[i, j].
class TestActualDecomposition:
    def test_ideal_is_pure_qubit(self):
        for w, side, cross, lam_max, lam_min, _, _ in source_terms([DeviceModel()]).sent[0]:
            assert w == 1.0
            assert side == 0.0
            assert cross == 0.0
            assert lam_max == 0.0 and lam_min == 0.0

    def test_leak_only(self):
        w, side, cross, lam_max, lam_min, _, _ = source_terms([DeviceModel(mu=1e-3)]).sent[0, 0]
        assert w == pytest.approx(0.999000499833, abs=1e-12)
        assert side == pytest.approx(0.000999500166625, rel=1e-10)
        assert cross == pytest.approx(0.0315990690692, rel=1e-10)
        assert lam_max == pytest.approx(0.0321027707647, rel=1e-10)
        assert lam_min == pytest.approx(-0.0311032705981, rel=1e-10)

    def test_rotation_only(self):
        w, _, _, lam_max, _, _, _ = source_terms(
            [DeviceModel(theta_hat=1e-3, theta_mode="dependent")]
        ).sent[0, 1]
        assert w == pytest.approx(0.999990130428, abs=1e-12)
        assert lam_max == pytest.approx(0.00314651064452, rel=1e-10)

    @given(devices)
    def test_weights_partition_unity(self, device):
        for w, side, *_ in source_terms([device]).sent[0]:
            assert w + side == pytest.approx(1.0, abs=1e-12)

    @given(devices)
    def test_lambda_eigenvalue_identities(self, device):
        # lambda_max/min are the eigenvalues of [[side, cross], [cross, 0]]
        for _, side, cross, lam_max, lam_min, _, _ in source_terms([device]).sent[0]:
            assert lam_max + lam_min == pytest.approx(side, abs=1e-12)
            assert lam_max * lam_min == pytest.approx(-cross**2, abs=1e-12)
            assert lam_min <= 0.0 <= lam_max


class TestVirtualDecomposition:
    def test_tilt_only_weights(self):
        # exact high-precision value for the j=0 qubit weight at delta = 0.126
        virtual = source_terms([DeviceModel(delta=0.126)]).virtual
        w0, side0, cross0, lam_max0, _, _, _ = virtual[0, 0]
        assert w0 == pytest.approx(0.46852083311524, abs=1e-13)
        assert side0 == 0.0
        assert cross0 == 0.0
        assert lam_max0 == 0.0
        assert virtual[0, 1, 0] == pytest.approx(0.531479166885, abs=1e-12)

    def test_tilt_only_bloch(self):
        virtual = source_terms([DeviceModel(delta=0.126)]).virtual
        *_, px0, pz0 = virtual[0, 0]
        assert px0 == pytest.approx(math.cos(0.063), abs=1e-12)
        assert pz0 == pytest.approx(math.sin(0.063), abs=1e-12)
        *_, px1, pz1 = virtual[0, 1]
        assert px1 == pytest.approx(-math.cos(0.063), abs=1e-12)
        assert pz1 == pytest.approx(-math.sin(0.063), abs=1e-12)

    def test_all_flaws_together(self):
        d = DeviceModel(delta=0.126, theta_hat=1e-3, theta_mode="dependent", mu=1e-6)
        virtual = source_terms([d]).virtual
        w0, side0, cross0, lam_max0, _, px0, pz0 = virtual[0, 0]
        assert w0 == pytest.approx(0.468518052547, rel=1e-10)
        assert side0 == pytest.approx(2.96739026546e-06, rel=1e-9)
        assert cross0 == pytest.approx(0.00117909961764, rel=1e-9)
        assert lam_max0 == pytest.approx(0.00118058424626, rel=1e-9)
        assert px0 == pytest.approx(0.998016487177, rel=1e-10)
        assert pz0 == pytest.approx(0.0629530882709, rel=1e-10)
        w1, _, cross1, lam_max1, _, px1, pz1 = virtual[0, 1]
        assert w1 == pytest.approx(0.531476012672, rel=1e-10)
        assert cross1 == pytest.approx(0.0012558251257, rel=1e-9)
        assert lam_max1 == pytest.approx(0.00125730969728, rel=1e-9)
        assert px1 == pytest.approx(-0.99801586457, rel=1e-10)
        assert pz1 == pytest.approx(-0.0629629578917, rel=1e-10)

    def test_degenerate_near_pi(self):
        # sin(delta/2) rounds to 1 here and the j=0 qubit weight underflows
        terms = source_terms([DeviceModel(delta=3.14159265), DeviceModel()])
        assert isinstance(terms.degenerate[0], DegenerateStateError)
        assert str(terms.degenerate[0]).startswith("virtual state j=0 ")
        assert terms.degenerate[1] is None
        assert not terms.virtual[0].any()

    def test_bit_one_fails_first(self):
        # Both virtual states vanish; bit 1 is split first and reports.
        error = source_terms([DeviceModel(mu=2000)]).degenerate[0]
        assert str(error).startswith("virtual state j=1 ")

    @given(devices)
    @settings(max_examples=300)
    def test_weights_close(self, device):
        (w0, side0, *_), (w1, side1, *_) = source_terms([device]).virtual[0]
        total = w0 + w1 + side0 + side1
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(devices, st.sampled_from([0, 1]))
    def test_bloch_unit_norm(self, device, j):
        *_, px, pz = source_terms([device]).virtual[0, j]
        assert px * px + pz * pz == pytest.approx(1.0, abs=1e-12)

    @given(devices, st.sampled_from([0, 1]))
    def test_lambda_eigenvalue_identities(self, device, j):
        _, side, cross, lam_max, lam_min, _, _ = source_terms([device]).virtual[0, j]
        assert lam_max + lam_min == pytest.approx(side, abs=1e-12)
        assert lam_max * lam_min == pytest.approx(-cross**2, abs=1e-12)


# source_terms(...).overlaps[i] gives (0Z, 0X), (0Z, 1X), (1Z, 0X), (1Z, 1X).
class TestFullOverlap:
    def test_ideal_overlaps(self):
        assert source_terms([DeviceModel()]).overlaps[0][0] == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )

    @given(devices)
    def test_symmetric_and_bounded(self, device):
        for ov in source_terms([device]).overlaps[0]:
            assert abs(ov) <= 1.0 + 1e-12


def pin_devices(n):
    """n seeded parameter tuples: every combination of the edge values, then
    random devices with tiny, near-limit and uniform angles, delta and
    theta_hat of both signs of zero, and mu from 0 to 2000 (where the
    virtual states degenerate), in both theta modes."""
    rng = random.Random(23)

    def angle(top):
        kind = rng.random()
        if kind < 0.1:
            return rng.choice((0.0, -0.0))
        if kind < 0.3:
            return top * 10.0 ** rng.uniform(-12.0, -1.0)
        if kind < 0.45:
            return top * (1.0 - 10.0 ** rng.uniform(-15.0, -2.0))
        return rng.uniform(0.0, top) % top

    def mu():
        kind = rng.random()
        if kind < 0.15:
            return rng.choice((0.0, 1e-12, 2000.0))
        if kind < 0.5:
            return 10.0 ** rng.uniform(-12.0, -6.0)
        return 10.0 ** rng.uniform(-12.0, math.log10(2000.0))

    edges = [
        (delta, theta_hat, dependent, mu)
        for delta in (0.0, -0.0, math.nextafter(math.pi, 0.0), 3.14159265)
        for theta_hat in (0.0, -0.0, math.nextafter(math.pi / 2, 0.0))
        for dependent in (True, False)
        for mu in (0.0, 1e-12, 2000.0)
    ]
    return edges + [(angle(math.pi), angle(math.pi / 2), rng.random() < 0.5, mu())
                    for _ in range(n - len(edges))]


class TestBitIdentity:
    def test_source_terms_digest(self):
        # Every array's bytes and every degenerate message of 10,000 devices
        # (1,175 of them degenerate), as computed at commit ea7d09b with
        # glibc's libm on x86-64: the source terms' sent, virtual and
        # overlaps, then the alignment, tilt and coin that prepare derives
        # from them.  Squaring any one of cos_0, cos_1, sin_0 or sin_1 as
        # x * x in place of x ** 2, or regrouping a product such as
        # 0.25 * c_i * c_i, changes it; at 2,000 devices the sin_1 square
        # did not.
        devices = pin_devices(10_000)
        terms = source_terms(devices)
        prepared = prepare(devices, ProtocolProbabilities())
        digest = hashlib.sha256()
        for array in (*terms[:3], prepared.alignment, prepared.tilt, prepared.coin):
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
        for error in terms.degenerate:
            digest.update(f"{error!r}\n".encode())
        assert sum(e is not None for e in terms.degenerate) == 1175
        assert digest.hexdigest() == (
            "1e027a33379d3d20153a567c9f75c0ceb235d4324aceaed98c06b7e77123663d"
        )


def _exact(terms):
    # A SourceTerms' arrays as integers, bit for bit, and its messages.
    return ([np.ascontiguousarray(a).view(np.int64).tolist() for a in terms[:3]],
            [None if e is None else repr(e) for e in terms.degenerate])


@pytest.mark.parametrize("seed", range(4))
def test_shared_fixed_terms_are_bit_equal_to_a_fresh_call_per_device(seed):
    # One dict across several calls, in shuffled device order, with theta_hat
    # and mu of both signs of zero met in either order first (they share a
    # key) and degenerate mu = 2000 devices: every row and message is that
    # of a fresh call for its device alone.
    rng = random.Random(seed)
    zeros = (0.0, -0.0) if seed % 2 else (-0.0, 0.0)
    keys = [(theta_hat, dependent, mu) for theta_hat in (*zeros, 1e-3, 0.7)
            for dependent in (True, False) for mu in (*zeros, 1e-8, 2000.0)]
    devices = [(rng.choice((0.0, -0.0, 0.05, 1.3, 3.14159265)), *key)
               for key in keys for _ in range(3)]
    devices += pin_devices(400)[-300:]
    rng.shuffle(devices)
    fixed = {}
    chunks = [devices[i:i + 37] for i in range(0, len(devices), 37)]
    shared = [_exact(source_terms(chunk, fixed)) for chunk in chunks]
    for chunk, (arrays, messages) in zip(chunks, shared):
        for i, device in enumerate(chunk):
            fresh_arrays, fresh_messages = _exact(source_terms([device]))
            assert [a[i] for a in arrays] == [a[0] for a in fresh_arrays], device
            assert messages[i] == fresh_messages[0], device
    assert any(m is not None for _, messages in shared for m in messages)
    assert len(fixed) < len(devices)


def test_a_bad_delta_is_named_before_a_bad_theta_hat_or_mu():
    # As a DeviceModel checks them, whether the fixed terms are new or not.
    fixed = {}
    source_terms([(0.1, 1e-3, True, 1e-8)], fixed)
    for device in ((math.nan, 1e-3, True, 1e-8), (-1.0, 2.0, True, 1e-8),
                   (-1.0, 1e-3, True, -1.0)):
        with pytest.raises(ValueError, match="^delta must"):
            source_terms([device], fixed)


# The source model characterizes the emitted states alone; the receiver's
# terms and the coin imbalance are derived from it in grid.prepare.
SOURCE_IMPORTS = {("channel", "FLOAT_LIMIT"), ("channel", "check"),
                  ("errors", "DegenerateStateError")}


def test_source_model_imports_no_receiver_or_estimator_term():
    tree = ast.parse(Path(qstates.__file__).read_text(encoding="utf-8"))
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level for alias in node.names}
    absolute = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names if alias.name.split(".")[0] == "flawedqkd"]
    assert imported <= SOURCE_IMPORTS and not absolute, sorted(imported - SOURCE_IMPORTS)


def test_source_terms_hold_only_the_source():
    assert qstates.SourceTerms._fields == ("sent", "virtual", "overlaps", "degenerate")
    terms = qstates.source_terms([(0.1, 1e-3, True, 1e-6)])
    widths = [terms.sent[0].size, terms.virtual[0].size, terms.overlaps[0].size]
    assert widths == [21, 14, 4]
