"""Physical-layer mathematics for backscatter links.

Detection model: interference at the receiver is treated as Gaussian, so a
coherent BPSK link with a given SINR has bit error probability
Q(sqrt(2 * SINR)). The unmodulated carrier leaking straight from the power
beacon to a receiver is a known constant tone and is assumed perfectly
removed before detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ReflectionConstellation:
    """A set of complex reflection coefficients with one bit label each."""

    points: tuple
    labels: tuple

    def __post_init__(self):
        points = tuple(complex(p) for p in self.points)
        labels = tuple(str(l) for l in self.labels)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        if len(points) < 2:
            raise ValueError("a constellation needs at least 2 points")
        if len(points) != len(labels):
            raise ValueError("need exactly one label per point")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if any(abs(p) > 1.0 + 1e-12 for p in points):
            raise ValueError("reflection coefficients must have magnitude <= 1")

    @classmethod
    def bpsk(cls):
        return cls(points=(1.0 + 0.0j, -1.0 + 0.0j), labels=("1", "0"))

    @property
    def mean_reflected_power(self):
        """Mean |coefficient|^2 over the points, the reflected power fraction."""
        return float(np.mean([abs(p) ** 2 for p in self.points]))


def scale_constellation(constellation, beta):
    """Shrink every point towards the origin by ``beta``.

    Returns the scaled constellation and the harvested power fraction
    1 - beta^2 * mean(|point|^2): whatever is not reflected is available to
    the harvester (before harvester efficiency). Reflected and harvested
    fractions sum to 1 exactly.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    scaled = ReflectionConstellation(
        points=tuple(beta * p for p in constellation.points),
        labels=constellation.labels,
    )
    harvested_fraction = 1.0 - beta**2 * constellation.mean_reflected_power
    return scaled, harvested_fraction


def energy_rate_frontier(constellation, beta_grid, snr):
    """Energy-rate tradeoff curve swept over constellation scalings.

    ``snr`` is the linear SINR of the unscaled constellation. For each beta
    the received signal power shrinks by beta^2 while the harvested
    fraction grows; points are returned as (harvested_fraction, ber) in
    ascending beta order.
    """
    betas = sorted(float(b) for b in beta_grid)
    frontier = []
    for beta in betas:
        _, harvested = scale_constellation(constellation, beta)
        frontier.append((harvested, float(bpsk_ber(beta**2 * snr))))
    return frontier
