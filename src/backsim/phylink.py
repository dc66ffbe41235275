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

from .channel import _check_reals

# Rational approximations of erfc from Cephes (S. L. Moshier, ndtr.c), the
# forms scipy.special.erfc evaluates; coefficients highest degree first.
# exp(-a^2) * P(a) / Q(a) on 1 <= a < 8:
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
# exp(-a^2) * R(a) / S(a) on a >= 8:
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# 1 - a * T(a^2) / U(a^2) on a < 1:
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)

# exp(-a^2) is 0.0 in double precision beyond a = 27.3 (Q argument 38.6):
# arguments are capped here so the polynomials never overflow.
_ERFC_ARG_CAP = 28.0


def _horner(coeffs, x):
    """Polynomial with ``coeffs`` (highest degree first) at ``x``, by Horner's rule."""
    acc = x * coeffs[0]
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _erfc(a, gauss):
    """erfc(a) for a flat array ``a`` in [0, _ERFC_ARG_CAP] (or NaN), given
    ``gauss`` = exp(-a^2), which callers compute from the exact argument.

    The [1, 8) form is evaluated on every value and the two outer ranges are
    patched by index. Network SINRs mostly fall in [1, 64): 69-85% of them on
    the default and dense fig3 sweeps. Evaluating each form only on its own
    index set measured 20-30% slower there, the gathers costing more than
    the skipped Horner passes.
    """
    y = _horner(_ERFC_P, a)
    y /= _horner(_ERFC_Q, a)
    y *= gauss
    big = np.flatnonzero(a >= 8.0)
    if big.size:
        ab = a[big]
        y[big] = gauss[big] * _horner(_ERFC_R, ab) / _horner(_ERFC_S, ab)
    small = np.flatnonzero(a < 1.0)
    if small.size:
        a_s = a[small]
        z = a_s * a_s
        y[small] = 1.0 - a_s * _horner(_ERF_T, z) / _horner(_ERF_U, z)
    return y


def _as_output(values, shape):
    """A float for a scalar input, else an array of the input's shape."""
    return float(values[0]) if shape == () else values.reshape(shape)


def _half_erfc_sqrt(s):
    """erfc(sqrt(s)) / 2 for a flat array ``s`` of non-negative values (or NaN)."""
    s = np.minimum(s, _ERFC_ARG_CAP**2)
    a = np.sqrt(s)
    # the clipped copy is ours, so exp(-s) overwrites it
    gauss = np.exp(np.negative(s, out=s), out=s)
    y = _erfc(a, gauss)
    y *= 0.5
    return y


def q_function(x):
    """Standard normal tail probability, Q(x) = erfc(x / sqrt(2)) / 2.

    Relative error below 8e-14 wherever Q(x) is a normal double (rounding
    x^2 / 2 once, carried through exp(-x^2 / 2)); 0.0 once it underflows
    (x above about 38.6), 1.0 at -inf and NaN for NaN.
    """
    x = _check_reals("x", x, inf=True, nan=True, ndim=None)
    flat = x.ravel()
    c = np.minimum(np.abs(flat), _ERFC_ARG_CAP * math.sqrt(2.0))
    q = _half_erfc_sqrt(0.5 * c * c)
    neg = np.flatnonzero(flat < 0.0)
    q[neg] = 1.0 - q[neg]
    return _as_output(q, x.shape)


def bpsk_ber(sinr_linear):
    """Coherent BPSK bit error probability at a linear SINR.

    Interference is treated as Gaussian, so the error probability is
    Q(sqrt(2 * sinr)) = erfc(sqrt(sinr)) / 2, of SINRs >= 0 (inf too) or arrays of them.
    """
    s = _check_reals("sinr_linear", sinr_linear, 0.0, inf=True, ndim=None)
    return _as_output(_half_erfc_sqrt(s.ravel()), s.shape)


def energy_rate_frontier(beta_grid, snr):
    """Energy-rate tradeoff of a BPSK tag swept over reflection scalings.

    Shrinking both reflection coefficients (+1, -1) by ``beta`` reflects a
    fraction beta^2 of the incident power and leaves 1 - beta^2 to the
    harvester (before harvester efficiency), while the received SINR falls
    from ``snr`` (linear, unscaled, finite and non-negative) to beta^2 * snr.
    Returns one (harvested_fraction, ber) pair per beta in [0, 1] of ``beta_grid``, in order.
    """
    _check_reals("snr", snr, 0.0)
    return [(1.0 - beta**2, float(bpsk_ber(beta**2 * snr)))
            for beta in _check_reals("beta_grid", beta_grid, 0.0, 1.0, ndim=1).tolist()]
