"""Explicit-state model of the source, independent of the library's closed
forms.

Each emitted state is built as a real vector in qubit (x) polarization (x)
leak from the device model's definitions: the encoded phase of each
setting is its ideal phase scaled by (1 + delta/pi); a dependent rotation
turns the polarization by theta_hat times the ideal phase; the probe light
leaves the leak mode in |lambda_I> with amplitude exp(-mu/2) and otherwise
in a state of its own, orthogonal to every other setting's.  Its qubit part
and the bounds on the rest are then found numerically.
"""

import itertools
import math

import numpy as np

from flawedqkd import (
    ChannelModel,
    ProtocolProbabilities,
    binary_entropy,
    system_efficiency,
    z_basis_yield,
)
from flawedqkd.channel import (
    X_ROWS,
    Z_ROWS,
    bit_errors,
    detection_probability,
    detector_yields,
    yield_alignments,
)

PROBS = ProtocolProbabilities()
# Ideal encoded phases of 0Z, 1Z, 0X and 1X; the protocol sends the first three.
IDEAL_PHASES = (0.0, math.pi, math.pi / 2, 3 * math.pi / 2)
PAULI_IXZ = (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]))
LEAK_DIM = 1 + len(IDEAL_PHASES)


def explicit_emitted_states(device):
    """The states of 0Z, 1Z, 0X and 1X as real vectors in qubit (x)
    polarization (x) leak."""
    c_i = math.exp(-device.mu / 2.0)
    c_d = math.sqrt(1.0 - math.exp(-device.mu))
    states = []
    for k, ideal in enumerate(IDEAL_PHASES):
        phase = ideal * (1.0 + device.delta / math.pi)
        if device.theta_mode == "dependent":
            theta = device.theta_hat * ideal
        else:
            theta = device.theta_hat
        qubit = np.array([math.cos(phase / 2.0), math.sin(phase / 2.0)])
        polarization = np.array([math.cos(theta), math.sin(theta)])
        leak = np.zeros(LEAK_DIM)
        leak[0] = c_i
        leak[1 + k] = c_d
        states.append(np.kron(np.kron(qubit, polarization), leak))
    return states


def explicit_virtual_state(states, j):
    """The unnormalized virtual state for phase-error bit j."""
    return (states[0] + (-1) ** j * states[1]) / 2.0


def explicit_qubit_split(psi):
    """Split psi into its component in span{|0>,|1>} (x) |H> (x) |lambda_I>
    and the rest.

    Returns Tr(|q><q| sigma) for sigma in (I, X, Z), which is
    E * (1, px, pz) of the qubit part q, and the extreme eigenvalues of
    |psi><psi| - |q><q|, which bound the part of any detection
    probability that the qubit part does not carry.
    """
    q = psi.reshape(2, 2, LEAK_DIM)[:, 0, 0]
    q_full = np.zeros_like(psi)
    q_full.reshape(2, 2, LEAK_DIM)[:, 0, 0] = q
    eigs = np.linalg.eigvalsh(np.outer(psi, psi) - np.outer(q_full, q_full))
    return np.array([q @ sigma @ q for sigma in PAULI_IXZ]), eigs[0], eigs[-1]


def explicit_state_lt(device, loss_db):
    """Interval-box e_x and unclamped rate rebuilt from explicit states.

    The channel statistics (yields, e_z, sifted yield) are the model's
    observed data and come from the library; the source side is rebuilt
    here.  The transmission rates q solve w_k . q = ytil_k - lambda_k with
    each lambda_k free in its eigenvalue interval; q is affine in lambda,
    so its box is spanned by the 8 corners of the lambda box, and the
    virtual yield is maximized over the 8 corners of the q box.
    """
    channel = ChannelModel(loss_db)
    states = explicit_emitted_states(device)
    splits = [explicit_qubit_split(psi) for psi in states[:3]]
    weights = np.array([w for w, _, _ in splits])
    lam = np.array([[lo, hi] for _, lo, hi in splits])
    eta = system_efficiency(channel)
    alignment = np.array([yield_alignments(device.delta)])
    yields = detector_yields(alignment, eta, channel.p_d)[0]
    corners = list(itertools.product((0, 1), repeat=3))
    num = 0.0
    for s, j in ((0, 1), (1, 0)):
        ytil = yields[s, X_ROWS]
        qs = np.array(
            [np.linalg.solve(weights, ytil - lam[np.arange(3), c]) for c in corners]
        )
        q_box = np.array([qs.min(axis=0), qs.max(axis=0)])
        w_virtual, _, lam_max = explicit_qubit_split(explicit_virtual_state(states, j))
        best = max(w_virtual @ q_box[c, np.arange(3)] for c in corners)
        num += max(best + lam_max, 0.0)
    # (0Z, 0Z) + (1Z, 0Z) + (0Z, 1Z) + (1Z, 1Z), outcome first; each Z bit
    # is sent half the time.
    z_sum = yields[0, 1] + yields[1, 1] + yields[0, 3] + yields[1, 3]
    e_x = min(num / (z_sum / 2.0), 1.0)
    tilt = math.cos(2 * device.delta) + math.cos(device.delta)
    e_z = bit_errors(eta, channel.p_d, tilt) / detection_probability(eta, channel.p_d)
    rate_raw = z_basis_yield(channel, PROBS) * (
        1.0 - binary_entropy(min(e_x, 0.5)) - channel.f_ec * binary_entropy(min(e_z, 0.5))
    )
    return e_x, rate_raw


def qubit_moments(psi):
    """Tr(rho sigma) for sigma in (I, X, Z), with rho the qubit's reduced
    state of psi: what a measurement of qubit (x) I on polarization and
    leak sees."""
    m = psi.reshape(2, -1)
    rho = m @ m.T
    return np.array([np.trace(rho @ sigma) for sigma in PAULI_IXZ])


def bob_axes(delta):
    """The Bloch (x, z) axes n_Z and n_X along which the channel model's
    Bob measures the qubit alone.

    A sent qubit cos(phi/2)|0> + sin(phi/2)|1> has the Bloch vector
    (sin phi, cos phi), with phi = 0, pi + delta and pi/2 + delta/2 for
    0Z, 1Z and 0X.  The click model gives outcome 0 of a row eta/4 (1 + c)
    and outcome 1 eta/4 (1 - c), where c = n . r is the alignment that
    ``yield_alignments`` lists for the rows (0Z, X), (0Z, Z), (1Z, X),
    (1Z, Z) and (0X, X).

    Z axis: (0Z, Z) gives n_z = cos delta, and (1Z, Z) gives
    -n_x sin delta - cos^2 delta = -cos 2 delta, so n_x = -sin delta:
    n_Z = (-sin delta, cos delta).

    X axis: (0Z, X) gives n_z = sin(delta/2), and (0X, X) gives
    n_x cos(delta/2) - sin^2(delta/2) = cos delta, so n_x = cos(delta/2):
    n_X = (cos(delta/2), sin(delta/2)).  (1Z, X) then gives
    -cos(delta/2) sin delta - sin(delta/2) cos delta = -sin(3 delta/2),
    as listed.
    """
    n_z = np.array([-math.sin(delta), math.cos(delta)])
    n_x = np.array([math.cos(delta / 2.0), math.sin(delta / 2.0)])
    return n_z, n_x


def honest_phase_error(device, eta, p_d):
    """The true phase error of the model's own channel at transmittance eta
    and dark-count probability p_d.

    Bob measures each virtual state (psi_0Z +- psi_1Z)/2 along n_X with
    qubit (x) I.  The click model is linear in the state, so a virtual
    state of weight A_j and X moment m_j clicks as A_j pulses of alignment
    m_j / A_j.  Outcome 1 on the + state and outcome 0 on the - state are
    phase errors; their probability, given a Z pulse and Bob's Z basis,
    is divided by the probability that such a pulse is detected: half the
    sum of the library's Z-basis yields, as each Z bit is sent half the
    time.
    """
    states = explicit_emitted_states(device)
    _, n_x = bob_axes(device.delta)
    moments = [qubit_moments(explicit_virtual_state(states, j)) for j in (0, 1)]
    weights = np.array([w for w, _, _ in moments])
    alignment = np.array([[n_x @ (x, z) / w for w, x, z in moments]])
    virtual = weights * detector_yields(alignment, eta, p_d)[0]
    yields = detector_yields(np.array([yield_alignments(device.delta)]), eta, p_d)[0]
    return (virtual[1, 0] + virtual[0, 1]) / (yields[:, Z_ROWS].sum() / 2.0)
