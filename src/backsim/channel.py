"""Free-space path gains and per-link power budgets.

All links use the aperture form of the Friis transmission equation,
gain = A_tx * A_rx / (wavelength^2 * distance^2), because node antennas
are characterised by their effective apertures rather than by gains.
Gains are clamped at 1 so no passive link can amplify; with the default
apertures the clamp only binds at centimetre range, well inside the
exclusion zone around the power beacon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8


def friis_gain(distance_m, wavelength_m, aperture_tx_m2, aperture_rx_m2):
    """Free-space power gain between two aperture antennas.

    Accepts scalars or numpy arrays for ``distance_m``. Raises ValueError
    for non-positive distances, wavelengths or apertures (degenerate
    geometry), and clamps the result to at most 1.
    """
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be strictly positive")
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be strictly positive")
    if aperture_tx_m2 <= 0.0 or aperture_rx_m2 <= 0.0:
        raise ValueError("antenna apertures must be strictly positive")
    gain = (aperture_tx_m2 * aperture_rx_m2) / (wavelength_m**2 * d**2)
    gain = np.minimum(gain, 1.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def dbm_to_watts(p_dbm):
    """Convert dBm to watts, 10**((p - 30) / 10)."""
    return 10.0 ** ((np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)


@dataclass(frozen=True)
class LinkBudget:
    """Powers seen by one receiver in one slot, all in watts."""

    tx_power_w: float
    gain: float
    rx_signal_w: float
    interference_w: float
    noise_w: float

    def __post_init__(self):
        if not 0.0 < self.gain <= 1.0:
            raise ValueError("gain must lie in (0, 1]")
        if self.tx_power_w < 0.0 or self.rx_signal_w < 0.0 or self.interference_w < 0.0:
            raise ValueError("powers must be non-negative")
        if self.noise_w <= 0.0:
            raise ValueError("noise power must be strictly positive")
        expected = self.tx_power_w * self.gain
        if abs(self.rx_signal_w - expected) > 1e-9 * max(expected, 1e-300):
            raise ValueError("rx_signal_w must equal tx_power_w * gain")

    @classmethod
    def from_gain(cls, tx_power_w, gain, interference_w, noise_w):
        return cls(tx_power_w, gain, tx_power_w * gain, interference_w, noise_w)

    @property
    def sinr(self):
        return self.rx_signal_w / (self.interference_w + self.noise_w)
