"""Quantum-coin phase-error estimation for basis-dependent sources.

Instead of inverting yields, this method compresses all source flaws into a
single imbalance Delta between the Z-basis and X-basis source states, then
pays for channel loss by dividing Delta by the detection probability.  The
resulting loss-enhanced imbalance converts the observed bit error rate into
a phase-error bound.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def coin_imbalance(overlaps: Sequence[float]) -> float:
    """Imbalance Delta of the quantum coin, from one device's row of
    cross-basis overlaps in ``source_terms(...).overlaps``.

    Delta = (1 - Re<Y_Z|Y_X>)/2 where the joint-state overlap combines the
    four cross-basis overlaps with a minus sign on the (1Z, 1X) term.  The
    emitted 1X state carries an unobservable global phase, so the sign of
    its two terms is chosen to maximize the overlap; the ideal device then
    gives exactly Delta = 0.
    """
    ov_00, ov_01, ov_10, ov_11 = overlaps
    fixed = (ov_00 + ov_10) / (2.0 * math.sqrt(2.0))
    phased = (ov_01 - ov_11) / (2.0 * math.sqrt(2.0))
    overlap = fixed + abs(phased)
    delta = (1.0 - overlap) / 2.0
    return min(max(delta, 0.0), 0.5)


def coin_phase_errors(e_z, enhanced):
    """Phase-error bounds for bit error rates e_z in [0, 1/2] and
    loss-enhanced imbalances (arrays of one shape).

    An imbalance whose loss enhancement exceeds 1/2 gives Eve full control
    of the coin, so the bound degenerates to 1; otherwise it is the coin
    bound, capped at 1.
    """
    runaway = enhanced > 0.5
    d = np.minimum(enhanced, 0.5)
    d_rest, e_rest = 1.0 - d, 1.0 - e_z
    e_x = (
        e_z
        + 4.0 * d * d_rest * (1.0 - 2.0 * e_z)
        + 4.0 * (1.0 - 2.0 * d) * np.sqrt(d * d_rest * e_z * e_rest)
    )
    return np.where(runaway, 1.0, np.minimum(e_x, 1.0))
