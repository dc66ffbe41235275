"""Output checks that a correct optimisation cannot break.

fig3: the CSV must match the reference recorded from the seed code for the
same seed. Numeric columns agree to 1e-12 relative, the largest change that
summation order alone may cause; NaN positions and the header, power, kind,
trials and seed columns agree exactly.

dyadic: every point must lie within ``DYADIC_Z`` reported standard errors of
a quadrature of the model, be resolved (stderr below a tenth of the BER) and
give the diversity slopes that acceptance criterion 7 asks for. None of that
depends on the random stream, so a change that draws differently still
passes.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from workloads import DYADIC_CURVES, DYADIC_GRID, reference_csv

REL_TOL = 1e-12
EXACT_COLUMNS = ("pb_power_dbm", "kind", "trials", "seed")
DYADIC_Z = 5.0
# Criterion 7: expected slope and tolerance per (tag antennas, rx antennas).
DYADIC_SLOPES = {(1, 2): (1.0, 0.3), (2, 2): (2.0, 0.5), (1, 8): (1.0, 0.3)}


def check_fig3(workload, seed, text):
    expected = reference_csv(workload, seed).read_text().splitlines()
    got = text.splitlines()
    if not got or got[0] != expected[0]:
        return [f"header {got[:1]} != {expected[0]!r}"]
    if len(got) != len(expected):
        return [f"{len(got) - 1} rows, expected {len(expected) - 1}"]
    columns = expected[0].split(",")
    problems = []
    for line_no, (g_line, e_line) in enumerate(zip(got[1:], expected[1:]), start=2):
        g_row, e_row = g_line.split(","), e_line.split(",")
        if len(g_row) != len(columns):
            problems.append(f"line {line_no}: {len(g_row)} fields")
            continue
        for col, g, e in zip(columns, g_row, e_row):
            if col in EXACT_COLUMNS:
                ok = g == e
            else:
                try:
                    gv = float(g)
                except ValueError:
                    ok = False
                else:
                    ev = float(e)
                    if math.isnan(ev) or math.isnan(gv):
                        ok = math.isnan(ev) and math.isnan(gv)
                    else:
                        ok = abs(gv - ev) <= REL_TOL * max(abs(gv), abs(ev))
            if not ok:
                problems.append(f"line {line_no} {col}: {g} != reference {e}")
    return problems


def _gamma_mean_inverse(t, m):
    """E[1 / (1 + t g)] for g ~ Gamma(m, 1)."""
    norm = math.gamma(m)
    value, _ = integrate.quad(lambda g: g ** (m - 1) * math.exp(-g) / (norm * (1.0 + t * g)),
                              0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def dyadic_quadrature(ell, m_r, snr_db):
    """Exact BPSK error probability of the dyadic model with MRC and OSTBC.

    The post-combining SNR is snr * sum_l a_l g_l with a_l ~ Exp(1) (forward
    hop) and g_l ~ Gamma(m_r, 1) (backward branch gains), all independent.
    Craig's form of Q gives P = (1/pi) int_0^{pi/2} E[exp(-X / sin^2 t)] dt,
    and E[exp(-s a g)] = E_g[1 / (1 + s g)], raised to the L-th power.
    """
    snr = 10.0 ** (snr_db / 10.0)

    def integrand(theta):
        s = math.sin(theta)
        return _gamma_mean_inverse(snr / (s * s), m_r) ** ell if s > 0.0 else 0.0

    value, _ = integrate.quad(integrand, 0.0, math.pi / 2.0, epsabs=0.0, epsrel=1e-10,
                              limit=200)
    return value / math.pi


def dyadic_reference():
    return {(ell, m_r, snr): dyadic_quadrature(ell, m_r, snr)
            for ell, m_r in DYADIC_CURVES for snr in DYADIC_GRID}


def check_dyadic(text, reference):
    lines = text.splitlines()
    if len(lines) != 1 + len(reference):
        return [f"{len(lines) - 1} rows, expected {len(reference)}"]
    problems = []
    curves = {}
    for line in lines[1:]:
        fields = line.split(",")
        ell, m_r, snr = int(fields[0]), int(fields[1]), float(fields[2])
        ber, se = float(fields[3]), float(fields[4])
        ref = reference.get((ell, m_r, snr))
        if ref is None:
            problems.append(f"unexpected point {line}")
            continue
        if not (math.isfinite(ber) and math.isfinite(se) and 0.0 < se < 0.1 * ber):
            problems.append(f"{line}: unresolved (stderr must be positive and < BER / 10)")
        elif abs(ber - ref) > DYADIC_Z * se:
            problems.append(f"{line}: {abs(ber - ref) / se:.1f} stderr from quadrature {ref!r}")
        curves.setdefault((ell, m_r), []).append((snr, ber))
    for key, (want, tol) in DYADIC_SLOPES.items():
        points = curves.get(key, [])
        if len(points) < 3 or any(b <= 0.0 for _, b in points):
            problems.append(f"curve {key}: too few positive points")
            continue
        x = np.array([s / 10.0 for s, _ in points])
        slope = -np.polyfit(x, np.log10([b for _, b in points]), 1)[0]
        if abs(slope - want) > tol:
            problems.append(f"curve {key}: diversity slope {slope:.3f}, expected {want} +/- {tol}")
    return problems
