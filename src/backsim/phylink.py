"""Physical-layer mathematics for backscatter links.

Detection model: interference at the receiver is treated as Gaussian, so a
coherent BPSK link with a given SINR has bit error probability
Q(sqrt(2 * SINR)). The unmodulated carrier leaking straight from the power
beacon to a receiver is a known constant tone and is assumed perfectly
removed before detection.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc


def q_function(x):
    """Standard normal tail probability, Q(x) = erfc(x / sqrt(2)) / 2."""
    q = 0.5 * erfc(np.asarray(x, dtype=float) / math.sqrt(2.0))
    if q.ndim == 0:
        return float(q)
    return q


def bpsk_ber(sinr_linear):
    """Coherent BPSK bit error probability at a linear SINR.

    Interference is treated as Gaussian, so the error probability is
    Q(sqrt(2 * sinr)); accepts scalars or arrays.
    """
    s = np.asarray(sinr_linear, dtype=float)
    if not np.all(s >= 0.0):  # also rejects NaN
        raise ValueError("SINR must be non-negative")
    return q_function(np.sqrt(2.0 * s))


def energy_rate_frontier(beta_grid, snr):
    """Energy-rate tradeoff of a BPSK tag swept over reflection scalings.

    Shrinking both reflection coefficients (+1, -1) by ``beta`` reflects a
    fraction beta^2 of the incident power and leaves 1 - beta^2 to the
    harvester (before harvester efficiency), while the received SINR falls
    from ``snr`` (linear, unscaled) to beta^2 * snr. Returns one
    (harvested_fraction, ber) pair per beta, in grid order.
    """
    frontier = []
    for beta in map(float, beta_grid):
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        frontier.append((1.0 - beta**2, float(bpsk_ber(beta**2 * snr))))
    return frontier
