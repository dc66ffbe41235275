"""Monte Carlo study of the dyadic (keyhole-like) backscatter MIMO channel.

The carrier leaves the reader's transmit antennas, crosses the forward
channel, is combined at each tag antenna, reflected with the tag's
modulation, and crosses the backward channel to the reader's receive
antennas. Both hops fade independently (i.i.d. unit-variance complex
Gaussian entries, a fresh draw per codeword), so every composite
coefficient is a product of two Rayleigh hops. With an orthogonal
space-time code over the tag antennas and maximum-ratio combining over the
receive antennas, the deep-fade exponent - the diversity order - is set by
the number of tag antennas, not by the reader's array size.
"""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 17


def _rayleigh_bpsk_ber(snr_mean):
    """E[Q(sqrt(2 g))] for exponentially distributed g with the given mean.

    Stable form of (1 - sqrt(a / (1 + a))) / 2, valid for any a >= 0.
    """
    a = np.asarray(snr_mean, dtype=float)
    return 0.5 / ((1.0 + a) + np.sqrt(a * (1.0 + a)))


def _dual_branch_equal_ber(snr_mean):
    """E[Q(sqrt(2 g))] for g ~ Gamma(2, mean/2 per branch): two equal branches."""
    a = np.asarray(snr_mean, dtype=float)
    mu = np.sqrt(a / (1.0 + a))
    return (0.5 * (1.0 - mu)) ** 2 * (2.0 + mu)


def _conditional_ber(beta):
    """Exact BPSK error probability given the per-antenna branch gains.

    ``beta`` has shape (n, L): the post-combining SNR is a sum of L
    independent exponentials with these means, and the expectation of
    Q(sqrt(2 x)) over that sum has a closed form (partial fractions for
    distinct means, the dual-branch formula for near-equal ones).
    """
    if beta.shape[1] == 1:
        return _rayleigh_bpsk_ber(beta[:, 0])
    b1 = beta[:, 0]
    b2 = beta[:, 1]
    den = b1 - b2
    scale = np.maximum(np.maximum(b1, b2), 1e-300)
    near_equal = np.abs(den) <= 1e-6 * scale
    num = b1 * _rayleigh_bpsk_ber(b1) - b2 * _rayleigh_bpsk_ber(b2)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    out[near_equal] = _dual_branch_equal_ber(0.5 * (b1[near_equal] + b2[near_equal]))
    return np.clip(out, 0.0, 0.5)


def simulate_dyadic_ber(num_tag_antennas, num_reader_tx, num_reader_rx, snr_db_grid,
                        trials, rng, with_stderr=False):
    """BER-versus-SNR curve of BPSK over the dyadic channel.

    ``num_tag_antennas`` of 1 means plain maximum-ratio combining; 2 uses
    the rate-1 orthogonal pair over the tag's reflection coefficients. The
    carrier is radiated from all reader antennas with equal power, so the
    combined forward coefficient per tag antenna stays unit variance, and
    the reader's transmit array size drops out of the error rate.

    Each trial draws the backward hop's maximum-ratio-combined gain per tag
    antenna, a sum of ``num_reader_rx`` unit-variance exponentials and so
    exactly Gamma(num_reader_rx, 1), and averages the exact error
    probability conditioned on it, integrating the forward hop
    analytically. That has orders of magnitude lower variance than error
    counting, which is what makes deep high-SNR points resolvable at sane
    trial counts. Every grid point is evaluated on the same draws (common
    random numbers), so a point's value does not depend on the rest of the
    grid, and the errors of different points are correlated.

    Returns a list of (snr_db, ber) tuples, or (snr_db, ber, stderr) when
    ``with_stderr`` is set.
    """
    if num_tag_antennas not in (1, 2):
        raise ValueError("only 1 or 2 tag antennas are supported (orthogonal designs)")
    if num_reader_tx < 1 or num_reader_rx < 1:
        raise ValueError("reader needs at least one antenna on each side")
    if trials < 10**5:
        raise ValueError("need at least 1e5 trials per point for a meaningful estimate")

    grid = [float(snr_db) for snr_db in snr_db_grid]
    snrs = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    total = np.zeros(len(grid))
    total_sq = np.zeros(len(grid))
    for done in range(0, trials, _CHUNK):
        gains = rng.gamma(num_reader_rx, size=(min(_CHUNK, trials - done), num_tag_antennas))
        for i, snr in enumerate(snrs):
            vals = _conditional_ber(snr * gains)
            total[i] += vals.sum()
            total_sq[i] += (vals**2).sum()
    curve = []
    for snr_db, point_total, point_sq in zip(grid, total, total_sq):
        mean = float(point_total) / trials
        if with_stderr:
            var = max(float(point_sq) / trials - mean**2, 0.0)
            curve.append((snr_db, mean, math.sqrt(var / trials)))
        else:
            curve.append((snr_db, mean))
    return curve


def estimate_diversity_order(curve, min_resolved_ber=0.0):
    """Diversity order: negative slope of log10(BER) against SNR_dB / 10.

    Fitted over the top decade of the SNR grid. Points at or below
    ``min_resolved_ber`` (and exact zeros) are discarded as statistically
    unresolved; fewer than three surviving points is an error asking for
    more trials.
    """
    points = [(float(p[0]), float(p[1])) for p in curve]
    if not points:
        raise ValueError("empty BER curve")
    top = max(s for s, _ in points)
    window = [(s, b) for s, b in points if s >= top - 10.0 - 1e-9]
    resolved = [(s, b) for s, b in window if b > min_resolved_ber and b > 0.0]
    if len(resolved) < 3:
        raise ValueError(
            "fewer than 3 statistically resolved points in the top decade; "
            "increase the trial count or lower the SNR window")
    x = np.array([s / 10.0 for s, _ in resolved])
    y = np.log10([b for _, b in resolved])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)
