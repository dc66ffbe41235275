"""Free-space path gains, dBm-to-watt conversion and the rules for number arguments.

All links use the aperture form of the Friis transmission equation,
gain = A_tx * A_rx / (wavelength^2 * distance^2), because node antennas
are characterised by their effective apertures rather than by gains.
Gains are clamped at 1 so no passive link can amplify; with the default
apertures the clamp only binds at centimetre range, well inside the
exclusion zone around the power beacon.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

SPEED_OF_LIGHT_M_S = 3.0e8

# The integer and real-number argument rules live here, in the one module
# that imports no other, so that every module can import them.


def _is_number(value, kind):
    """Whether ``value`` is a ``kind`` number other than a bool, which Python
    counts as one and which would run as 0 or 1."""
    return not isinstance(value, bool) and isinstance(value, kind)


def _check_integers(low, high=math.inf, **values):
    """Raise ValueError naming the first of ``values`` that is not an integer
    in [``low``, ``high``]: numpy integers count, bools do not."""
    for name, value in values.items():
        if not (_is_number(value, numbers.Integral) and low <= value <= high):
            rule = f"of at least {low}" if high == math.inf else f"in [{low}, {high}]"
            raise ValueError(f"{name} must be an integer {rule}, got {value!r}")


def _check_reals(name, value, low=-math.inf, high=math.inf, *, above=False, inf=False,
                 nan=False, ndim=0):
    """``value`` as a float array if it is a real number (not a bool or string) or, for
    ``ndim`` 1 (None: any), a list, tuple or numeric array of them with ``ndim`` axes,
    each at least ``low`` (above it if ``above``) and at most ``high``, finite unless
    ``inf`` and not NaN unless ``nan``; else ValueError naming ``name``."""
    # an array costs a dtype check and two reductions, no per-entry Python
    if isinstance(value, np.ndarray) and ndim != 0:
        real = value.dtype.kind in "iuf"
    else:
        items = value if ndim != 0 and isinstance(value, (list, tuple)) else (value,)
        real = all(_is_number(v, numbers.Real) for v in items)
    # an infinite bound is open unless ``inf`` lets entries reach it
    open_low, open_high = above or (low == -math.inf and not inf), high == math.inf and not inf
    try:
        values = np.asarray(value, dtype=float) if real else None
    except OverflowError:  # an integer beyond every float
        values = None
    if values is not None and ndim in (None, values.ndim):
        least, most = (np.fmin, np.fmax) if nan else (np.minimum, np.maximum)
        lo = least.reduce(values, axis=None, initial=math.inf)  # NaN fails unless ``nan``
        hi = most.reduce(values, axis=None, initial=-math.inf)
        if (lo > low if open_low else lo >= low) and (hi < high if open_high else hi <= high):
            return values
    kind = {0: "a real number", 1: "a sequence of real numbers", None: "real numbers"}[ndim]
    raise ValueError(f"{name} must be {kind} in {'(' if open_low else '['}{low}, {high}"
                     f"{')' if open_high else ']'}{' or NaN' if nan else ''}, got {value!r}")


def friis_gain(distance_m, wavelength_m, aperture_tx_m2, aperture_rx_m2):
    """Free-space power gain between two aperture antennas.

    ``distance_m`` is a number or an array of them, the rest are numbers;
    each must be positive and finite (an infinite distance, whose gain is
    0, is rejected too). The result is clamped to at most 1.
    """
    d = _check_reals("distance_m", distance_m, 0.0, above=True, ndim=None)
    for name, value in (("wavelength_m", wavelength_m), ("aperture_tx_m2", aperture_tx_m2),
                        ("aperture_rx_m2", aperture_rx_m2)):
        _check_reals(name, value, 0.0, above=True)
    # a quotient that overflows, or a denominator that underflows to 0, is
    # above 1 and clamped there
    with np.errstate(over="ignore", divide="ignore"):
        gain = (aperture_tx_m2 * aperture_rx_m2) / (wavelength_m**2 * d**2)
    gain = np.minimum(gain, 1.0)
    if gain.ndim == 0:
        return float(gain)
    return gain


def dbm_to_watts(p_dbm):
    """Convert finite dBm, a number or an array, to watts, 10**((p - 30) / 10).

    Above about 3112.5 dBm the watts overflow to inf with numpy's warning.
    A scalar goes through the array loop too: numpy's scalar ``**`` calls
    another pow, which differs from the loop in the last bit for some powers.
    """
    return np.power(10.0, (_check_reals("p_dbm", p_dbm, ndim=None) - 30.0) / 10.0)
