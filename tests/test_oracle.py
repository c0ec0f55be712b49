"""The explicit-state oracle reproduces the library's source terms and
channel, and bounds the printed phase errors.

The oracle (tests/oracle.py) builds each emitted state as a vector and
splits it numerically; the library's source_terms uses closed forms.  The
sent and virtual splits and the cross-basis overlaps are compared on
devices with flaws far larger than the key-rate tests use.  Bob's two
measurement axes reproduce the channel's alignments, and the true phase
error they give is a floor for every sound bound.
"""

import math
import time
from dataclasses import replace

import numpy as np

from flawedqkd import ChannelModel, DeviceModel, ProtocolProbabilities, key_rate_lp
from flawedqkd.channel import efficiency, yield_alignments
from flawedqkd.cli import build_parser
from flawedqkd.qstates import source_terms
from conftest import random_devices
from golden_cli import CASES, golden, parse
from oracle import (
    bob_axes,
    explicit_emitted_states,
    explicit_qubit_split,
    explicit_virtual_state,
    honest_phase_error,
    qubit_moments,
)

DEVICES = random_devices(seed=16, n=1000, delta_max=2.5, theta_max=1.4, mu_max=3.0)
TERMS = source_terms(DEVICES)
TOL = 1e-12


def test_emitted_states_are_normalized():
    for device in DEVICES:
        for psi in explicit_emitted_states(device):
            assert abs(psi @ psi - 1.0) <= TOL


def test_sent_splits_match_explicit_states():
    for device, sent in zip(DEVICES, TERMS.sent):
        states = explicit_emitted_states(device)
        for psi, (w, _, _, lam_max, lam_min, px, pz) in zip(states, sent):
            moments, lo, hi = explicit_qubit_split(psi)
            assert np.abs(moments - (w, w * px, w * pz)).max() <= TOL, device
            assert abs(lo - lam_min) <= TOL and abs(hi - lam_max) <= TOL, device


def test_virtual_splits_match_explicit_states():
    # The Bloch z component is not compared: source_terms negates the
    # one the virtual ket gives, an open question in ROADMAP.md.
    for device, virtual in zip(DEVICES, TERMS.virtual):
        states = explicit_emitted_states(device)
        for j in (0, 1):
            (weight, x_moment, _), lo, hi = explicit_qubit_split(
                explicit_virtual_state(states, j)
            )
            a_j, _, _, lam_max, lam_min, px, _ = virtual[j]
            assert abs(weight - a_j) <= TOL, (device, j)
            assert abs(x_moment / weight - px) <= TOL, (device, j)
            assert abs(lo - lam_min) <= TOL and abs(hi - lam_max) <= TOL, (device, j)


def test_overlaps_match_explicit_states_without_rotation():
    """The cross-basis overlaps equal <psi_z|psi_x> once theta_hat is 0.

    With a rotation they are not compared: the closed form keeps only the
    co-polarized product cos(theta_z) cos(theta_x) and drops the
    sin(theta_z) sin(theta_x) overlap of the rotated components, so on
    these devices it differs from the explicit overlap by up to 0.76.
    That is the known lp overlap defect (the full_overlap FOUND entry in
    CHANGES.md), which ROADMAP.md item 3 removes.
    """
    devices = [replace(device, theta_hat=0.0) for device in DEVICES]
    for device, overlaps in zip(devices, source_terms(devices).overlaps):
        states = explicit_emitted_states(device)
        explicit = [states[z] @ states[x] for z in (0, 1) for x in (2, 3)]
        assert np.abs(overlaps - explicit).max() <= TOL, device


def test_bob_axes_reproduce_the_yield_alignments():
    # Rows (0Z, X), (0Z, Z), (1Z, X), (1Z, Z), (0X, X): the sent state and
    # the axis each measures along.
    rows = ((0, 1), (0, 0), (1, 1), (1, 0), (2, 1))
    for delta in np.linspace(0.0, 3.0, 301).tolist():
        for theta_hat in (0.0, 0.3):
            device = DeviceModel(delta=delta, theta_hat=theta_hat, mu=0.1)
            axes = bob_axes(delta)
            moments = [qubit_moments(psi) for psi in explicit_emitted_states(device)]
            aligned = [axes[a] @ moments[k][1:] / moments[k][0] for k, a in rows]
            assert np.abs(np.array(aligned) - yield_alignments(delta)).max() <= 2e-15, device


def test_a_tilt_only_device_has_the_closed_form_phase_error():
    # Without dark counts every click scales with eta, and the + and -
    # virtual states of a delta-only device err with sin^2(delta/2).
    for delta in np.linspace(0.0, 0.3, 31).tolist():
        for eta in (1.0, 1e-3, 1e-7):
            truth = honest_phase_error(DeviceModel(delta=delta), eta, 0.0)
            assert abs(truth - math.sin(delta / 2.0) ** 2) <= 1e-12 * math.sin(delta / 2.0) ** 2


def honest_draws(seed, n):
    """Random devices, losses from 0 to 60 dB and dark counts, as
    (device, loss_db, p_d)."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        device = DeviceModel(
            delta=float(rng.uniform(0.0, 0.3)),
            theta_hat=float(rng.choice([0.0, rng.uniform(0.0, 1e-2)])),
            theta_mode=str(rng.choice(["independent", "dependent"])),
            mu=float(rng.choice([0.0, 10.0 ** rng.uniform(-9.0, -4.0)])),
        )
        draws.append((device, float(rng.uniform(0.0, 60.0)), float(rng.choice([0.0, 1e-7, 1e-5]))))
    return draws


def test_lp_bound_is_at_least_the_honest_phase_error():
    probs = ProtocolProbabilities()
    for device, loss_db, p_d in honest_draws(seed=13, n=400):
        row = key_rate_lp(device, ChannelModel(loss_db, p_d), probs)
        truth = honest_phase_error(device, efficiency(loss_db), p_d)
        assert row.e_x >= truth * (1.0 - 1e-12), (device, loss_db, p_d, row.e_x, truth)


def golden_lp_rows():
    """Each live lp row of the exit-0 rate and sweep golden cases with the
    default probabilities, as (case, device, p_d, loss_db, e_x), the
    device and p_d rebuilt from the case's command line."""
    parser = build_parser()
    for name, command, _ in CASES:
        given = vars(parser.parse_args(command.split()))
        code, rows = parse(golden(name))
        if code != 0 or given["command"] == "crossover" or {"pza", "pzb"} & given.keys():
            continue
        device = DeviceModel(
            delta=given.get("delta", 0.0),
            theta_hat=given.get("theta", 0.0),
            theta_mode=given.get("theta_mode", "dependent"),
            mu=given.get("mu", 0.0),
        )
        p_d = given.get("pd", ChannelModel.p_d)
        for row in rows:
            if row["method"] == "lp" and row["e_x"] is not None:
                yield name, device, p_d, row["loss_db"], row["e_x"]


def test_golden_lp_rows_bound_the_honest_phase_error():
    # Both sides are clamped at 1/2, where neither gives key: at delta =
    # 3.14159265 and 0 dB (degenerate-sweep-json) lp prints e_x 0.5000002019
    # against a truth of 0.99999985.  A truth of 0/0 (a subnormal eta at
    # p_d = 0) bounds nothing; such rows are skipped and counted.
    start = time.perf_counter()
    checked = skipped = 0
    for name, device, p_d, loss_db, e_x in golden_lp_rows():
        with np.errstate(invalid="ignore"):
            truth = honest_phase_error(device, efficiency(loss_db), p_d)
        if math.isnan(truth):
            skipped += 1
            continue
        assert min(e_x, 0.5) >= min(truth, 0.5) * (1.0 - 1e-9), (name, loss_db, e_x, truth)
        checked += 1
    assert checked >= 390, (checked, skipped)
    assert time.perf_counter() - start < 1.0
