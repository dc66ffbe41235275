import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from backsim import dyadic
from backsim.dyadic import (_CHUNK, _ONE_DIVISION_MAX, _UNIFORM_GAMMA_MAX, _conditional_bers,
                            _draw_gains, simulate_dyadic_ber)
from backsim.scenario import PURPOSE_FADING, derive_stream
from oracles import (_complex_normal, bit_level_dyadic_ber, conditional_ber,
                     conditional_dyadic_curve, dual_branch_equal_ber, dyadic_quadrature,
                     estimate_diversity_order, semi_dyadic_ber)


def rayleigh_bpsk_oracle(snr):
    """Closed-form BPSK error rate over a single Rayleigh branch (float or mpf)."""
    return 0.5 * (1.0 - (snr / (1.0 + snr)) ** 0.5)


def double_rayleigh_oracle(snr_db, num_rx):
    """BPSK error rate over the two-hop product channel, by quadrature.

    Conditioned on the backward-combining gain g ~ Gamma(num_rx), the
    forward hop is exponential, so the error rate is the Rayleigh closed
    form at mean snr * g, integrated against the Gamma density (in mpmath
    at 15 digits, truncated at g = 200).
    """
    s = 10.0 ** (snr_db / 10.0)
    norm = math.factorial(num_rx - 1)
    with mpmath.workdps(15):
        return float(mpmath.quad(
            lambda g: rayleigh_bpsk_oracle(s * g) * g ** (num_rx - 1) * mpmath.exp(-g) / norm,
            [0, 1, 200]))


def branch_oracle(*means):
    """E[Q(sqrt(2 x))] for x the sum of exponentials of one or two means (floats),
    in mpmath at 50 digits. One mean b gives the Rayleigh form
    P(b) = 1 / (2 ((1 + b) + sqrt(b (1 + b)))); two give partial fractions
    (b1 P(b1) - b2 P(b2)) / (b1 - b2), and at b1 = b2 their limit, the
    dual-branch formula. The difference loses up to 24 digits on the test rows
    (near-equal means of 3e17)."""
    with mpmath.workdps(50):
        b = [mpmath.mpf(mean) for mean in means]

        def rayleigh(b):
            return 1 / (2 * ((1 + b) + mpmath.sqrt(b * (1 + b))))

        if len(b) == 1:
            return rayleigh(b[0])
        if b[0] == b[1]:
            return dual_branch_equal_ber(b[0])
        return (b[0] * rayleigh(b[0]) - b[1] * rayleigh(b[1])) / (b[0] - b[1])


def worst_error_against_oracle(gains, snr):
    """Largest relative error of the kernel's BERs for ``gains`` at linear ``snr``
    against ``branch_oracle``, over the rows whose exact value is a normal
    double, and the row where it occurs; every value must lie in [0, 0.5]."""
    out = kernel_bers(gains, [snr])[0]
    assert np.all((out >= 0.0) & (out <= 0.5)), "a BER outside [0, 0.5]"
    worst, where = 0.0, None
    for means, value in zip(snr * gains, out):
        exact = branch_oracle(*means)
        if exact >= sys.float_info.min:
            error = float(abs(mpmath.mpf(float(value)) - exact) / exact)
            if error > worst:
                worst, where = error, tuple(map(float, means))
    return worst, where


def kernel_bers(gains, snrs):
    """The in-place kernel's BER rows at each linear SNR for (n, L) ``gains``
    (passed to it as an (L, n) view), halved out of its buffer: it yields
    twice each error probability, and halving is exact."""
    work = np.empty((5, len(gains)))
    return [0.5 * vals for vals in _conditional_bers(gains.T, snrs, work)]


def zero_split(rows):
    """(n, 2) ``rows`` as two blocks: the rows without a zero gain and those
    with one. A block is one kernel call, and a zero mean sends the whole
    block to the two-antenna fallback, so the first block is the one that
    reaches the one-division form."""
    zero = (rows == 0.0).any(axis=1)
    return rows[~zero], rows[zero]


def near_bound_rows(snr, base):
    """Gain pairs whose gap, after scaling by ``snr``, is a few ulps either
    side of 1e-6 of the larger gain, where partial fractions lose six digits."""
    rows = []
    for g1 in base:
        b1 = snr * g1
        for edge in (b1 - 1e-6 * b1, b1 / (1.0 - 1e-6)):  # g2 below, then above g1
            g2 = edge / snr
            for _ in range(5):
                g2 = np.nextafter(g2, 0.0)
            for _ in range(11):
                rows.append((g1, g2))
                g2 = np.nextafter(g2, math.inf)
    return rows


def floor_rows(snr):
    """Tiny gain pairs whose scaled means fall under 1e-300, some subnormal,
    with gaps up to 1e-306 that are large relative to the means."""
    rows = [(1e-300, 1e-300), (1e-300, 0.0), (2e-300, 1.5e-300), (1e-310, 0.0)]
    for gap in (1e-306, 2e-306):
        g = gap / snr
        for _ in range(3):
            g = np.nextafter(g, 0.0)
        for _ in range(7):
            rows.extend([(g, 0.0), (0.0, g), (g, g / 3.0)])
            g = np.nextafter(g, math.inf)
    return rows


class TestComposite:
    def test_composite_statistics(self):
        # Both hops drawn with the oracles' complex-normal draw: the composite
        # entries are zero-mean with variance equal to the tag-antenna count
        # only if each hop has unit variance.
        rng = derive_stream(4, 0, PURPOSE_FADING)
        n = 100_000
        fwd = _complex_normal(rng, (n, 2))
        bwd = _complex_normal(rng, (n, 2))
        samples = (fwd * bwd).sum(axis=1)
        se_mean = samples.std() / math.sqrt(n)
        assert abs(samples.mean()) < 3 * se_mean
        power = np.abs(samples) ** 2
        se_power = power.std(ddof=1) / math.sqrt(n)
        assert abs(power.mean() - 2.0) < 3 * se_power


class TestSimulate:
    def test_noise_dominated_limit(self):
        rng = derive_stream(2, 0, PURPOSE_FADING)
        curve = simulate_dyadic_ber(1, 1, 1, [-50.0], 100_000, rng)
        assert curve[0][1] == pytest.approx(0.5, abs=0.01)

    def test_strictly_decreasing_in_snr(self):
        rng = derive_stream(2, 1, PURPOSE_FADING)
        curve = simulate_dyadic_ber(2, 2, 2, [0.0, 5.0, 10.0, 15.0, 20.0], 100_000, rng)
        bers = [b for _, b in curve]
        assert all(a > b for a, b in zip(bers, bers[1:]))

    @pytest.mark.parametrize("ell", [1, 2])
    def test_estimators_agree(self, ell):
        # the conditional estimator against two that draw both hops
        conditional = simulate_dyadic_ber(ell, 2, 2, [5.0], 200_000,
                                          derive_stream(7, ell, PURPOSE_FADING))[0][1]
        semi = semi_dyadic_ber(ell, 2, 2, 5.0, 200_000, derive_stream(7, ell, PURPOSE_FADING))
        bits = bit_level_dyadic_ber(ell, 2, 2, 5.0, 200_000,
                                    derive_stream(7, ell, PURPOSE_FADING))
        # error-counting noise at BER ~ 5e-2 with 2e5 trials is ~ 5e-4
        assert semi == pytest.approx(conditional, rel=0.05)
        assert bits == pytest.approx(conditional, rel=0.05)

    def test_single_branch_matches_quadrature_oracle(self):
        rng = derive_stream(11, 0, PURPOSE_FADING)
        curve = simulate_dyadic_ber(1, 1, 1, [20.0], 300_000, rng, with_stderr=True)
        snr_db, ber, se = curve[0]
        oracle = double_rayleigh_oracle(20.0, 1)
        assert ber == pytest.approx(oracle, abs=max(4 * se, 0.02 * oracle))

    @pytest.mark.parametrize("ell,m_r", [(1, 2), (2, 2), (1, 8)], ids=["(1,2)", "(2,2)", "(1,8)"])
    def test_matches_quadrature(self, ell, m_r):
        grid = [10.0, 20.0, 30.0]
        rng = derive_stream(13, 10 * ell + m_r, PURPOSE_FADING)
        curve = simulate_dyadic_ber(ell, 2, m_r, grid, 100_000, rng, with_stderr=True)
        for snr_db, ber, se in curve:
            assert abs(ber - dyadic_quadrature(ell, m_r, snr_db)) <= 5.0 * se

    @pytest.mark.parametrize("snr_db", [10.0, 15.0, 20.0, 25.0, 30.0, 35.0])
    def test_single_antenna_quadrature(self, snr_db):
        # one receive antenna: the Craig/MGF form's inner mean is the E1
        # closed form, checked against direct integration over the Gamma density
        assert dyadic_quadrature(1, 1, snr_db) == pytest.approx(
            double_rayleigh_oracle(snr_db, 1), rel=1e-8)

    @pytest.mark.parametrize("m_r", [2, 8])
    def test_quadrature_oracles_agree(self, m_r):
        # Craig/MGF form against direct integration over the Gamma density
        for snr_db in (10.0, 30.0):
            assert dyadic_quadrature(1, m_r, snr_db) == pytest.approx(
                double_rayleigh_oracle(snr_db, m_r), rel=1e-6)

    def test_grid_points_share_draws(self):
        # common random numbers: a point does not depend on the rest of the grid
        def curve(grid):
            return simulate_dyadic_ber(2, 2, 2, grid, 100_000, derive_stream(6, 0, PURPOSE_FADING),
                                       with_stderr=True)
        paired = curve([20.0, 30.0])
        assert curve([20.0])[0] == paired[0]
        assert curve([30.0])[0] == paired[1]

    def test_returns_python_floats(self):
        curve = simulate_dyadic_ber(1, 2, 2, [10.0, 20.0], 100_000,
                                    derive_stream(6, 1, PURPOSE_FADING), with_stderr=True)
        assert all(type(x) is float for point in curve for x in point)

    def test_equal_branch_gains(self):
        # partial fractions are 0/0 at equal gains; the closed form gives their
        # limit, the dual-branch formula, and joins them continuously
        gains = np.array([[3.0, 3.0], [3.0, 3.0 * (1 + 1e-9)], [3.0, 3.0003], [1.0, 4.0]])
        out = kernel_bers(gains, [1.0])[0]
        assert out[0] == pytest.approx(float(branch_oracle(3.0, 3.0)), rel=1e-15)
        assert out[1] == pytest.approx(out[0], rel=1e-8)
        assert out[2] == pytest.approx(out[0], rel=1e-3)
        partial = (rayleigh_bpsk_oracle(1.0) - 4.0 * rayleigh_bpsk_oracle(4.0)) / (1.0 - 4.0)
        assert out[3] == pytest.approx(partial, rel=1e-12)

    def test_keyhole_worse_than_single_rayleigh(self):
        rng = derive_stream(11, 1, PURPOSE_FADING)
        curve = simulate_dyadic_ber(1, 1, 1, [20.0], 200_000, rng)
        assert curve[0][1] > rayleigh_bpsk_oracle(100.0)

    def test_unsupported_antenna_count(self):
        rng = derive_stream(1, 0, PURPOSE_FADING)
        with pytest.raises(ValueError):
            simulate_dyadic_ber(3, 2, 2, [10.0], 100_000, rng)

    @pytest.mark.parametrize("tx,rx", [(0, 2), (2, 0)])
    def test_reader_needs_antennas(self, tx, rx):
        rng = derive_stream(1, 0, PURPOSE_FADING)
        name = "num_reader_tx" if tx < 1 else "num_reader_rx"
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
            simulate_dyadic_ber(1, tx, rx, [10.0], 100_000, rng)

    @pytest.mark.parametrize("args,match", [
        ((1, 2, math.nan, [10.0], 100_000), "^num_reader_rx must be an integer of at least 1"),
        ((1, 2, 2.5, [10.0], 100_000), "^num_reader_rx must be an integer of at least 1"),
        ((1, 2.5, 2, [10.0], 100_000), "^num_reader_tx must be an integer of at least 1"),
        ((1, True, 2, [10.0], 100_000), "^num_reader_tx must be an integer of at least 1"),
        ((1.0, 2, 2, [10.0], 100_000), "^num_tag_antennas must be an integer of at least 1"),
        ((1, 2, 2, [10.0], 100_000.0), "^trials must be an integer of at least 100000"),
        ((1, 2, 2, [10.0], True), "^trials must be an integer of at least 100000"),
        ((1, 2, 2, [10.0, math.nan], 100_000), "^snr_db_grid"),
        ((1, 2, 2, [-math.inf], 100_000), "^snr_db_grid"),
        # finite, but 3075 dB returned a NaN BER and 4000 dB raised OverflowError
        ((2, 2, 2, [10.0, 3075.0], 100_000), "^snr_db_grid"),
        ((2, 2, 2, [4000.0], 100_000), "^snr_db_grid"),
    ], ids=["rx-nan", "rx-2.5", "tx-2.5", "tx-bool", "tag-1.0", "trials-float",
            "trials-bool", "snr-nan", "snr-inf", "snr-3075", "snr-4000"])
    def test_rejects_bad_arguments(self, args, match):
        # counts must be integers, not bool, and the grid finite: these used
        # to return NaN, draw Gamma(2.5) or raise TypeError
        with pytest.raises(ValueError, match=match):
            simulate_dyadic_ber(*args, derive_stream(1, 0, PURPOSE_FADING))

    def test_grid_bound_runs(self):
        # the largest accepted SNR: no overflow warning, a BER in [0, 0.5]
        for ell in (1, 2):
            [(_, ber)] = simulate_dyadic_ber(ell, 2, 8, [3000.0], 100_000,
                                             derive_stream(1, 0, PURPOSE_FADING))
            assert 0.0 <= ber <= 0.5

    def test_numpy_integer_counts_accepted(self):
        ints = (np.int64(2), np.int64(2), np.int64(2), np.int64(100_000))
        curve = simulate_dyadic_ber(*ints[:3], [10.0], ints[3],
                                    derive_stream(6, 2, PURPOSE_FADING))
        assert curve == simulate_dyadic_ber(2, 2, 2, [10.0], 100_000,
                                            derive_stream(6, 2, PURPOSE_FADING))

    def test_trial_floor_enforced(self):
        rng = derive_stream(1, 0, PURPOSE_FADING)
        with pytest.raises(ValueError):
            simulate_dyadic_ber(1, 2, 2, [10.0], 10_000, rng)

    def test_deterministic_given_seed(self):
        a = simulate_dyadic_ber(2, 2, 2, [10.0], 100_000, derive_stream(5, 0, PURPOSE_FADING))
        b = simulate_dyadic_ber(2, 2, 2, [10.0], 100_000, derive_stream(5, 0, PURPOSE_FADING))
        assert a == b

    @pytest.mark.parametrize("trials", [100_007, 8 * _CHUNK + 7])
    def test_deterministic_for_partial_chunks(self, trials):
        # trial counts that are not a multiple of the draw block size
        a = simulate_dyadic_ber(2, 2, 2, [10.0, 20.0], trials, derive_stream(5, 1, PURPOSE_FADING))
        b = simulate_dyadic_ber(2, 2, 2, [10.0, 20.0], trials, derive_stream(5, 1, PURPOSE_FADING))
        assert a == b

    @pytest.mark.parametrize("ell,m_r", [(1, 4), (2, 3), (2, 4)])
    def test_one_trial_last_block(self, ell, m_r, monkeypatch):
        # a last block of one trial holds fewer work values than the L m
        # uniforms of a trial; its draws still take the one stream, so one
        # larger block only regroups the sums
        def curve():
            return np.array(simulate_dyadic_ber(ell, 2, m_r, [10.0, 20.0], 7 * _CHUNK + 1,
                                                derive_stream(5, m_r, PURPOSE_FADING),
                                                with_stderr=True))
        blocked = curve()
        monkeypatch.setattr(dyadic, "_CHUNK", 1 << 17)
        np.testing.assert_allclose(curve(), blocked, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_block_size_only_regroups_sums(self, ell, monkeypatch):
        # the draws are one stream whatever the block size, so a larger block
        # may change only how each point's BER sums are grouped
        def curve():
            return np.array(simulate_dyadic_ber(ell, 2, 2, [0.0, 10.0, 20.0, 30.0, 35.0],
                                                8 * _CHUNK + 7,
                                                derive_stream(5, ell, PURPOSE_FADING),
                                                with_stderr=True))
        blocked = curve()
        monkeypatch.setattr(dyadic, "_CHUNK", 1 << 17)
        np.testing.assert_allclose(curve(), blocked, rtol=1e-14, atol=0.0)

    def test_scratch_memory_is_one_block(self):
        # the draw buffer and the work rows are sized by the block, not by
        # the trial count: a million trials of two Gamma(8) branches (numpy's
        # sampler, through a trial-major scratch in the work rows) or of two
        # Gamma(2) branches (uniforms in the work rows) stay under 2 MB of
        # peak allocation
        for m_r in (8, 2):
            tracemalloc.start()
            try:
                simulate_dyadic_ber(2, 2, m_r, [0.0, 10.0, 20.0, 30.0, 35.0], 1_000_000,
                                    derive_stream(5, 2, PURPOSE_FADING))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2e6, f"peak allocation {peak} bytes with {m_r} receive antennas"


# Equal and huge near-equal branch gains: partial fractions are 0/0 on the
# first three and cancel to below zero on the huge ones at high SNR.
EDGE_ROWS = [(3.0, 3.0), (1e-3, 1e-3), (0.0, 0.0), (1.0, 4.0)] + [
    (g, g * (1.0 + k * 1e-6)) for g in (1e12, 3e13, 1e14)
    for k in (1.5, 2.0, 3.0, 5.0, 10.0, 30.0)]
# One branch: zero, tiny and huge means, past the 1.3e154 where a (1 + a)
# overflows, and a grid between. Their largest mean is past
# _ONE_DIVISION_MAX, so the kernel takes its two-division form on all of them.
SINGLE_MEANS = [0.0, 1e-300, 1e154, 1e200, 1e300, *np.logspace(-8, 8, 33)]
# One branch, every mean below _ONE_DIVISION_MAX: the one-division form,
# up to a few ulps under the bound.
BELOW_BOUND_MEANS = [0.0, 5e-324, 1e-300, 1e-150, *np.logspace(-8, 8, 33), 1e100, 1e149,
                     *(_ONE_DIVISION_MAX * (1.0 - k * 2.0**-52) for k in (1, 2, 3, 8))]
# One branch, a few ulps either side of the bound: the two-division form.
STRADDLING_MEANS = [1e-300, 1.0, 1e149,
                    *(_ONE_DIVISION_MAX * (1.0 + k * 2.0**-52) for k in (-4, -1, 0, 1, 4))]


class TestAgainstAllocatingReference:
    """The in-place kernel must reproduce the allocating per-point reference
    (``oracles.conditional_ber``) bit for bit: the CLI's curves are golden."""

    @pytest.mark.parametrize("with_stderr", [False, True], ids=["ber", "stderr"])
    @pytest.mark.parametrize("trials", [100_007, 8 * _CHUNK + 7])
    @pytest.mark.parametrize("ell,m_r", [(1, 1), (1, 2), (2, 2), (2, 4), (1, 8), (2, 8)],
                             ids=["(1,1)", "(1,2)", "(2,2)", "(2,4)", "(1,8)", "(2,8)"])
    def test_curve_matches_reference(self, ell, m_r, trials, with_stderr):
        grid = [-5.0, 10.0, 30.0]
        curve = simulate_dyadic_ber(ell, 2, m_r, grid, trials,
                                    derive_stream(8, 10 * ell + m_r, PURPOSE_FADING),
                                    with_stderr=with_stderr)
        reference = conditional_dyadic_curve(ell, m_r, grid, trials,
                                             derive_stream(8, 10 * ell + m_r, PURPOSE_FADING))
        assert [p[:2] for p in curve] == [p[:2] for p in reference]
        if with_stderr:
            for (_, _, se), (_, _, ref_se) in zip(curve, reference):
                assert se == pytest.approx(ref_se, rel=1e-12)
        else:
            assert all(len(p) == 2 for p in curve)

    def test_near_equal_edge_rows(self):
        # equal, near-equal and tiny branch means for two antennas, the rows
        # with a zero mean in a block of their own so that the others take
        # the one-division form, and three blocks of single means for one
        # (past the one-division bound, below it, and straddling it), at SNRs
        # below and above 1; each SNR's own edge rows are also checked
        # against mpmath
        snrs = [10.0 ** (snr_db / 10.0) for snr_db in (-3.0, 0.0, 10.0, 25.0, 27.5, 35.0)]
        edges = {snr: near_bound_rows(snr, (0.37, 1.0, 5.3)) + floor_rows(snr) for snr in snrs}
        rows = np.array(EDGE_ROWS + [row for snr in snrs for row in edges[snr]])
        positive, zeros = zero_split(rows)
        for gains in (positive, zeros):
            for snr, out in zip(snrs, kernel_bers(gains, snrs)):
                np.testing.assert_array_equal(out, conditional_ber(snr * gains))
        for snr in snrs:
            assert 0.0 < (snr * positive).min() and (snr * positive).max() < _ONE_DIVISION_MAX
            singles = [np.array(means)[:, None] / snr
                       for means in (SINGLE_MEANS, BELOW_BOUND_MEANS, STRADDLING_MEANS)]
            for single in singles:
                np.testing.assert_array_equal(kernel_bers(single, [snr])[0],
                                              conditional_ber(snr * single))
            for rows in (*zero_split(np.array(EDGE_ROWS + edges[snr])), *singles):
                worst, where = worst_error_against_oracle(rows, snr)
                assert worst <= 4e-15, f"relative error {worst:.2e} at means {where}"

    def test_one_division_bound_selects_the_form(self):
        # the kernel takes the one-division form exactly when snr times the
        # block's largest gain is below the bound; at and past it, where
        # b (1 + b) overflows from about 1.34e154, the two-division form
        def forms(b):
            one = 0.5 / ((1.0 + b) + np.sqrt(b * (1.0 + b)))
            m = np.sqrt(b / (1.0 + b))
            return one, 0.5 / ((1.0 + b) * (1.0 + m))

        below = np.array(BELOW_BOUND_MEANS)
        assert below.max() < _ONE_DIVISION_MAX
        [out] = kernel_bers(below[:, None], [1.0])
        np.testing.assert_array_equal(out, forms(below)[0])
        # some of these means tell the forms apart, so the selection shows
        assert not np.array_equal(*forms(below))
        at = np.append(below, _ONE_DIVISION_MAX)
        past = np.array(STRADDLING_MEANS + [1e300])
        for means in (at, past):
            with np.errstate(all="raise"):  # past the bound nothing overflows
                [out] = kernel_bers(means[:, None], [1.0])
            with np.errstate(over="ignore"):
                np.testing.assert_array_equal(out, forms(means)[1])

    def test_two_antenna_gate_selects_the_form(self):
        # two antennas take the one-division form exactly when every mean of
        # the block is positive and below the bound; a block with one zero
        # mean, one whose smallest mean underflows to 0, and one with a mean
        # at or past the bound take the fallback
        def forms(b):
            (b1, b2), (m1, m2) = b.T, np.sqrt(b / (1.0 + b)).T
            s, p = m1 + m2, m1 * m2
            one = 0.5 * ((s + p) / ((1.0 + b1) * (1.0 + b2) * s * (1.0 + (s + p))))
            x = p / np.maximum(s, 1e-300)
            return one, 0.5 * ((1.0 + x) / ((1.0 + b1) * (1.0 + m1)) / ((1.0 + b2) * (1.0 + m2)))

        # means from 1e-8 to 1e8 (so that they also divide by a tiny SNR) and
        # tiny ones; on some of them the forms differ, so the selection shows
        small = np.array([(3.0, 3.0), (1e-3, 1e-3), (1.0, 4.0), (1e-8, 5.0), (0.37, 1e8),
                          (5e-324, 1.0), (2e-300, 1.5e-300)])
        below = np.concatenate([small, [(1e12, 1e12 * (1.0 + 1.5e-6)), (1e149, 1e-300),
                                        (_ONE_DIVISION_MAX * (1.0 - 2.0**-52), 2.0)]])
        assert 0.0 < below.min() and below.max() < _ONE_DIVISION_MAX
        [out] = kernel_bers(below, [1.0])
        np.testing.assert_array_equal(out, forms(below)[0])
        assert not np.array_equal(*forms(below))
        tiny_snr = 1e-300  # 1e-30 times it underflows to 0
        fallbacks = [(np.concatenate([below, [(0.0, 2.0)]]), 1.0),
                     (np.concatenate([small / tiny_snr, [(1e-30, 1e300)]]), tiny_snr)]
        for gains, snr in fallbacks:
            means = snr * gains
            assert (gains == 0.0).sum() <= 1 and means.min() == 0.0
            assert not np.array_equal(*forms(means))
            [out] = kernel_bers(gains, [snr])
            np.testing.assert_array_equal(out, forms(means)[1])
        at = np.concatenate([below, [(_ONE_DIVISION_MAX, 1.0)]])  # a mean exactly at it
        past = np.concatenate([below, [(_ONE_DIVISION_MAX * (1.0 + 2.0**-52), 2.0),
                                       (1e154, 1e150), (1e200, 3.0)]])
        for means in (at, past):
            with np.errstate(all="raise"):  # past the bound nothing overflows
                [out] = kernel_bers(means, [1.0])
            with np.errstate(over="ignore"):
                assert not np.array_equal(*forms(means))
                np.testing.assert_array_equal(out, forms(means)[1])


class TestAgainstMpmath:
    def test_rows_match_partial_fractions(self):
        # Gamma(2) and Gamma(8) branch gains, as two and eight receive antennas
        # draw them, and the fixed edge rows, against partial fractions at 50
        # digits; the rows with a zero gain form a block of their own
        rng = derive_stream(17, 0, PURPOSE_FADING)
        gains = np.concatenate([rng.gamma(2, size=(200, 2)), rng.gamma(8, size=(200, 2)),
                                np.array(EDGE_ROWS)])
        for snr_db in (0.0, 10.0, 25.0, 35.0):
            for block in zero_split(gains):
                worst, where = worst_error_against_oracle(block, 10.0 ** (snr_db / 10.0))
                assert worst <= 4e-15, f"relative error {worst:.2e} at {snr_db} dB, means {where}"


def gamma_cdf(x, m):
    """CDF of Gamma(m, 1) at ``x`` for integer m: 1 - e^-x sum_{k<m} x^k / k!."""
    return 1.0 - np.exp(-x) * sum(x**k / math.factorial(k) for k in range(m))


class FilledRng:
    """A stand-in generator whose ``random`` fills every value with one number."""

    def __init__(self, value):
        self.value = value

    def random(self, out):
        out.fill(self.value)
        return out


class TestUniformGammaDraws:
    """Up to ``_UNIFORM_GAMMA_MAX`` receive antennas a branch gain is -log of
    a product of factors 1 - U over consecutive uniforms of the stream."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_draws_follow_gamma_cdf(self, m, ell):
        # Kolmogorov-Smirnov distance to the closed-form CDF, against its
        # 0.1 % critical value 1.95 / sqrt(n)
        out = np.empty((ell, 60_000))
        gains = _draw_gains(derive_stream(19, 10 * ell + m, PURPOSE_FADING), m, out,
                            np.empty((5, _CHUNK)))
        x = np.sort(gains, axis=None)
        cdf = gamma_cdf(x, m)
        n = x.size
        distance = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
        assert distance < 1.95 / math.sqrt(n), f"KS distance {distance:.4f} for Gamma({m})"

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("ell", [1, 2])
    def test_split_blocks_give_one_block_gains(self, m, ell):
        # fewer work values than one block needs (7 // m trials a draw), or
        # two blocks of trials, continue the same trial-major stream
        whole = _draw_gains(np.random.default_rng(9), m, np.empty((ell, 1000)),
                            np.empty((5, 1000)))
        tiny = _draw_gains(np.random.default_rng(9), m, np.empty((ell, 1000)),
                           np.empty(7 * ell))
        rng = np.random.default_rng(9)
        blocks = np.empty((ell, 1000))
        work = np.empty((5, 600))
        _draw_gains(rng, m, blocks[:, :600], work)
        _draw_gains(rng, m, blocks[:, 600:], work)
        assert np.array_equal(tiny, whole)
        assert np.array_equal(blocks, whole)

    @pytest.mark.parametrize("ell", [1, 2])
    def test_zero_uniforms_give_zero_gain(self, ell):
        # every factor 1 - 0 = 1: the gain is +0, and the error rate 1/2
        gains = _draw_gains(FilledRng(0.0), 2, np.empty((ell, 100)), np.empty((5, 100)))
        assert np.all(gains == 0.0) and not np.signbit(gains).any()
        curve = simulate_dyadic_ber(ell, 2, 2, [0.0, 40.0], 100_000, FilledRng(0.0))
        assert [ber for _, ber in curve] == [0.5, 0.5]

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_largest_uniform_gives_finite_gain(self, m):
        # every factor is 2^-53, the smallest 1 - U can be: the product stays
        # above 2^-212, so the gain is 53 m log 2, not inf
        top = 1.0 - 2.0**-53
        gains = _draw_gains(FilledRng(top), m, np.empty((2, 100)), np.empty((5, 100)))
        np.testing.assert_allclose(gains, 53 * m * math.log(2.0), rtol=1e-15)
        curve = simulate_dyadic_ber(2, 2, m, [0.0, 40.0], 100_000, FilledRng(top))
        assert all(0.0 < ber < 0.5 for _, ber in curve)

    def test_uniforms_stay_in_work_rows(self):
        # two tag antennas of four receive antennas need 8 uniforms a trial,
        # more than the five work rows hold per trial: the block is split,
        # not given a buffer of its own. The work rows and the (2, 2^14)
        # gains take 917,504 bytes; a (2^14, 8) uniform buffer would add 1 MiB
        tracemalloc.start()
        try:
            simulate_dyadic_ber(2, 2, 4, [0.0, 35.0], 100_000, derive_stream(5, 3, PURPOSE_FADING))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1e6, f"peak allocation {peak} bytes"


class TestGammaStream:
    """Above ``_UNIFORM_GAMMA_MAX`` receive antennas the simulator draws with
    ``standard_gamma(..., out=)`` into one buffer, block by block; the
    allocating reference (``oracles.conditional_dyadic_curve``) draws
    ``gamma`` in one call per block."""

    @pytest.mark.parametrize("m", [_UNIFORM_GAMMA_MAX + 1, 8])
    def test_standard_gamma_into_buffer_is_gamma_stream(self, m):
        expected = np.random.default_rng(9).gamma(m, size=(1000, 2))
        out = np.empty((1000, 2))
        np.random.default_rng(9).standard_gamma(m, size=(1000, 2), out=out)
        assert np.array_equal(out, expected), (
            f"standard_gamma({m}, out=) no longer draws the gamma({m}) stream")

    @pytest.mark.parametrize("m", [_UNIFORM_GAMMA_MAX + 1, 8])
    def test_split_draws_are_one_stream(self, m):
        expected = np.random.default_rng(9).standard_gamma(m, size=(1000, 2))
        rng = np.random.default_rng(9)
        out = np.empty((1000, 2))
        rng.standard_gamma(m, size=(600, 2), out=out[:600])
        rng.standard_gamma(m, size=(400, 2), out=out[600:])
        assert np.array_equal(out, expected), (
            f"two standard_gamma({m}) draws no longer continue one stream")


class TestDiversityOrder:
    def test_synthetic_unit_slope(self):
        curve = [(float(s), 10.0 ** (-s / 10.0)) for s in range(20, 42, 2)]
        assert estimate_diversity_order(curve) == pytest.approx(1.0, abs=1e-9)

    def test_fit_uses_top_decade_only(self):
        # flat low-SNR points must not pollute the fit
        curve = [(0.0, 0.4), (5.0, 0.3)] + [
            (float(s), 10.0 ** (-s / 5.0)) for s in (25, 30, 35)]
        assert estimate_diversity_order(curve) == pytest.approx(2.0, abs=1e-9)

    def test_unresolved_points_demand_more_trials(self):
        curve = [(25.0, 1e-6), (30.0, 3e-7), (35.0, 1e-7)]
        with pytest.raises(ValueError, match="trial"):
            estimate_diversity_order(curve, min_resolved_ber=1e-4)

    def test_zero_ber_points_are_unresolved(self):
        curve = [(25.0, 1e-3), (30.0, 0.0), (35.0, 0.0)]
        with pytest.raises(ValueError):
            estimate_diversity_order(curve)
