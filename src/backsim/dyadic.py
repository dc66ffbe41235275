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

from .channel import _check_integers, _check_reals

# Trials per block: it fixes how each point's BER sum is grouped, and so the
# output bytes; the draws are one stream whatever the block size. At 2^14 a
# block's working set, the (L, 2^14) gains and five 2^14 work rows, which
# first hold the block's uniforms, is at most 896 KiB: it fits a 2 MB L2,
# and a fresh process pages in little scratch. 2^17 needs 7 MB; 2^13 saves
# 0.4 MB more but runs slower.
_CHUNK = 1 << 14
# Largest receive-antenna count whose Gamma gains are drawn from uniforms;
# at 5 numpy's rejection sampler costs about as much, and from 6 less.
_UNIFORM_GAMMA_MAX = 4
# Below this block-largest mean b the error rate takes its one-division form:
# for one tag antenna, whose b (1 + b) overflows from about 1.34e154, and for
# two while the block's smallest mean is positive too.
_ONE_DIVISION_MAX = 1e150


def _draw_gains(rng, m, out, work):
    """Fill ``out`` ((L, n), a row per tag antenna) with Gamma(m, 1) gains; return it.

    The stream is trial-major (a trial's L gains, and each gain's m uniforms,
    in a row), so it does not depend on how the trials are blocked. Up to
    ``_UNIFORM_GAMMA_MAX`` a gain is -log of the product of m factors 1 - U,
    U uniform on [0, 1): a sum of m unit exponentials, drawn into ``work`` (any
    contiguous scratch of at least L m values) as many trials at a time as fit.
    A factor is at least 2^-53, so the product is at least 2^-212 and its log
    is finite. Larger m draws numpy's ``standard_gamma``, the ``rng.gamma(m)``
    stream, for L > 1 into a trial-major scratch in ``work``, copied out transposed.
    """
    ell, n = out.shape
    if m > _UNIFORM_GAMMA_MAX:
        if ell == 1:
            return rng.standard_gamma(m, size=out.shape, out=out)
        stream = work.reshape(-1)[:out.size].reshape(n, ell)
        np.copyto(out, rng.standard_gamma(m, size=stream.shape, out=stream).T)
        return out
    uniforms = work.reshape(-1)
    step = uniforms.size // (ell * m)  # trials per draw
    for lo in range(0, n, step):
        dest = out[:, lo:lo + step]
        u = rng.random(out=uniforms[:dest.size * m])
        # (trial, branch, factor) -> one strided (m, trials) view per branch
        factors = np.subtract(1.0, u, out=u).reshape(-1, ell, m).transpose(1, 2, 0)
        for row, branch in zip(dest, factors):
            if m == 1:
                np.copyto(row, branch[0])
            else:
                np.multiply(branch[0], branch[1], out=row)
            for factor in branch[2:]:
                np.multiply(row, factor, out=row)
    np.log(out, out=out)
    return np.subtract(0.0, out, out=out)  # 0 - 0 is +0, where negation gives -0


def _conditional_bers(gains, snrs, work):
    """Twice the exact BPSK error probability of every column of ``gains`` at each SNR in turn.

    At linear SNR ``snr`` the post-combining SNR sums L independent exponentials
    of means b = ``snr * gains[:, k]`` ((L, n), non-negative). One branch gives
    twice the Rayleigh form, 2 f(b) = 1 / ((1 + b) + sqrt(b (1 + b))), one
    division, while snr times the block's largest gain is below
    ``_ONE_DIVISION_MAX``, and past it, where b (1 + b) could overflow,
    2 f(b) = 1 / ((1 + b)(1 + m)) with m = sqrt(b / (1 + b)). Two give
    E = 2 f(b1) f(b2) (1 + m1 m2 / (m1 + m2)), free of subtraction, equal means
    included. That is partial fractions, (b1 f(b1) - b2 f(b2)) / (b1 - b2),
    divided out with b f(b) = m^2 / (2 (1 + m)) and
    m1^2 - m2^2 = (b1 - b2) / ((1 + b1)(1 + b2)). With s = m1 + m2, p = m1 m2
    and D = (1 + b1)(1 + b2), (1 + m1)(1 + m2) = 1 + s + p turns it into
    2 E = (s + p) / (s D (1 + s + p)), one division, taken while every mean of
    the block is positive and below ``_ONE_DIVISION_MAX``: there s is at least
    2.2e-162 and the denominator below 8e300. A block with a zero mean, one
    that underflows to 0 or one at or past the bound takes
    2 E = (1 + m1 m2 / (m1 + m2)) / ((1 + b1)(1 + m1)) / ((1 + b2)(1 + m2)),
    with m1 + m2 floored at 1e-300 for b1 = b2 = 0.
    Each (n,) result is a view into ``work`` ((5, >= n) scratch) that the next overwrites.
    """
    ell, n = gains.shape
    b1, b2, d1, d2, tmp = work[:, :n]
    means, dens = work[:ell, :n], work[2:2 + ell, :n]  # the b rows and the d rows
    # snr times a block extreme is the extreme of snr g exactly
    top = gains.max()
    low = gains.min() if ell == 2 else None
    for snr in snrs:
        np.multiply(snr, gains, out=means)
        one_division = snr * top < _ONE_DIVISION_MAX
        if ell == 1 and one_division:
            np.add(1.0, b1, out=d1)
            np.sqrt(np.multiply(b1, d1, out=b1), out=b1)
            yield np.divide(1.0, np.add(d1, b1, out=d1), out=d1)
            continue
        # every branch at once: b becomes m, d becomes 1 + b
        np.add(1.0, means, out=dens)
        np.sqrt(np.divide(means, dens, out=means), out=means)
        if ell == 2 and one_division and snr * low > 0.0:
            np.multiply(b1, b2, out=tmp)  # p
            np.add(b1, b2, out=b1)  # s
            np.add(b1, tmp, out=b2)  # s + p
            np.add(1.0, b2, out=tmp)
            np.multiply(np.multiply(d1, d2, out=d1), b1, out=d1)
            yield np.divide(b2, np.multiply(d1, tmp, out=d1), out=b2)
            continue
        for m, d in zip(means, dens):  # d becomes (1 + b)(1 + m)
            np.multiply(d, np.add(1.0, m, out=tmp), out=d)
        if ell == 1:
            yield np.divide(1.0, d1, out=d1)
            continue
        np.multiply(b1, b2, out=tmp)
        # m1 + m2 is 0 only where b1 = b2 = 0, and at least 2e-162 elsewhere
        np.maximum(np.add(b1, b2, out=b1), 1e-300, out=b1)
        np.add(1.0, np.divide(tmp, b1, out=tmp), out=tmp)
        yield np.divide(np.divide(tmp, d1, out=tmp), d2, out=tmp)


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
    exactly Gamma(num_reader_rx, 1) (``_draw_gains``: -log of a product of
    uniforms for a few receive antennas, numpy's Gamma sampler for more),
    and averages the exact error probability conditioned on it, integrating
    the forward hop analytically (``_conditional_bers``, which yields twice
    each error probability: each point's sum is halved, and its sum of
    squares quartered, once at the end, exactly). A block of
    ``_CHUNK`` trials holds its gains branch-major, a row per tag antenna; the
    stream stays trial-major. That has orders of magnitude lower variance
    than error counting, which is what makes deep high-SNR points
    resolvable at sane trial counts. Every grid point is evaluated on the
    same draws (common random numbers), so a point's value does not depend
    on the rest of the grid, and the errors of different points are
    correlated.

    Antenna counts must be integers of at least 1 (at most 2 tag antennas),
    ``trials`` at least 1e5, and every SNR grid entry finite and at most
    3000 dB, or ValueError is raised; a linear SNR of at most 1e300 keeps
    the conditional BER finite for any branch gain below 8e7. Returns a list
    of (snr_db, ber) tuples, or (snr_db, ber, stderr) when ``with_stderr`` is set.
    """
    _check_integers(1, num_tag_antennas=num_tag_antennas, num_reader_tx=num_reader_tx,
                    num_reader_rx=num_reader_rx)
    _check_integers(10**5, trials=trials)  # fewer give no meaningful estimate
    if num_tag_antennas > 2:
        raise ValueError("only 1 or 2 tag antennas are supported (orthogonal designs)")
    grid = _check_reals("snr_db_grid", snr_db_grid, high=3000.0, ndim=1).tolist()

    snrs = [10.0 ** (snr_db / 10.0) for snr_db in grid]
    total = np.zeros(len(grid))
    total_sq = np.zeros(len(grid))
    draws = np.empty(num_tag_antennas * min(_CHUNK, trials))
    scratch = np.empty(5 * min(_CHUNK, trials))
    for done in range(0, trials, _CHUNK):
        # contiguous views for a short last block too: strided ones make
        # numpy's reductions and scalar products allocate a buffer. The draws
        # get the whole scratch, which holds a trial's L m uniforms however
        # few trials the block has.
        n = min(_CHUNK, trials - done)
        gains = _draw_gains(rng, num_reader_rx, draws[:num_tag_antennas * n].reshape(-1, n),
                            scratch)
        for i, vals in enumerate(_conditional_bers(gains, snrs, scratch[:5 * n].reshape(5, n))):
            total[i] += vals.sum()
            if with_stderr:
                # not np.dot: a BLAS call may wake idle BLAS threads, which
                # costs up to a second in a fresh process
                total_sq[i] += np.einsum("i,i->", vals, vals)
    total *= 0.5  # the kernel yields twice each error probability
    total_sq *= 0.25
    curve = []
    for snr_db, point_total, point_sq in zip(grid, total, total_sq):
        mean = float(point_total) / trials
        if with_stderr:
            var = max(float(point_sq) / trials - mean**2, 0.0)
            curve.append((snr_db, mean, math.sqrt(var / trials)))
        else:
            curve.append((snr_db, mean))
    return curve
