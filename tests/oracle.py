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
    bit_errors,
    detection_probability,
    detector_yields,
    error_tilt,
    yield_alignments,
    yield_prefactors,
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
    prefactor = yield_prefactors(PROBS)
    alignment = np.array([yield_alignments(device.delta)])
    yields = detector_yields(prefactor, alignment, eta, channel.p_d)[0]
    corners = list(itertools.product((0, 1), repeat=3))
    num = 0.0
    for s, j in ((0, 1), (1, 0)):
        ytil = yields[s, X_ROWS] / prefactor[X_ROWS]
        qs = np.array(
            [np.linalg.solve(weights, ytil - lam[np.arange(3), c]) for c in corners]
        )
        q_box = np.array([qs.min(axis=0), qs.max(axis=0)])
        w_virtual, _, lam_max = explicit_qubit_split(explicit_virtual_state(states, j))
        best = max(w_virtual @ q_box[c, np.arange(3)] for c in corners)
        num += max(PROBS.p_za * PROBS.p_zb * (best + lam_max), 0.0)
    # (0Z, 0Z) + (1Z, 0Z) + (0Z, 1Z) + (1Z, 1Z), outcome first.
    z_sum = yields[0, 1] + yields[1, 1] + yields[0, 3] + yields[1, 3]
    e_x = min(num / z_sum, 1.0)
    e_z = bit_errors(eta, channel.p_d, error_tilt(device.delta)) / detection_probability(
        eta, channel.p_d
    )
    rate_raw = z_basis_yield(channel, PROBS) * (
        1.0 - binary_entropy(min(e_x, 0.5)) - channel.f_ec * binary_entropy(min(e_z, 0.5))
    )
    return e_x, rate_raw
