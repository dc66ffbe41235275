"""Free-space path gains and dBm-to-watt conversion.

All links use the aperture form of the Friis transmission equation,
gain = A_tx * A_rx / (wavelength^2 * distance^2), because node antennas
are characterised by their effective apertures rather than by gains.
Gains are clamped at 1 so no passive link can amplify; with the default
apertures the clamp only binds at centimetre range, well inside the
exclusion zone around the power beacon.
"""

from __future__ import annotations

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8


def friis_gain(distance_m, wavelength_m, aperture_tx_m2, aperture_rx_m2):
    """Free-space power gain between two aperture antennas.

    Accepts scalars or numpy arrays for ``distance_m``. Raises ValueError
    for non-positive or NaN distances, wavelengths or apertures (degenerate
    geometry), and clamps the result to at most 1.
    """
    d = np.asarray(distance_m, dtype=float)
    if not np.all(d > 0.0):  # each check is not-within, so NaN fails it too
        raise ValueError("distance must be strictly positive")
    if not wavelength_m > 0.0:
        raise ValueError("wavelength must be strictly positive")
    if not (aperture_tx_m2 > 0.0 and aperture_rx_m2 > 0.0):
        raise ValueError("antenna apertures must be strictly positive")
    # a quotient that overflows, or a denominator that underflows to 0, is
    # above 1 and clamped there
    with np.errstate(over="ignore", divide="ignore"):
        gain = (aperture_tx_m2 * aperture_rx_m2) / (wavelength_m**2 * d**2)
    gain = np.minimum(gain, 1.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def dbm_to_watts(p_dbm):
    """Convert dBm to watts, 10**((p - 30) / 10).

    A scalar goes through the array loop too: numpy's scalar ``**`` calls
    another pow, which differs from the loop in the last bit for some powers.
    """
    return np.power(10.0, (np.asarray(p_dbm, dtype=float) - 30.0) / 10.0)
