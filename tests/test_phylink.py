import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import backsim
from backsim.cli import BETA_GRID, BETA_REFERENCE_SNR
from backsim.phylink import bpsk_ber, energy_rate_frontier, q_function

TINY = np.finfo(float).tiny  # smallest normal double


def q_oracle(x):
    """High-precision Gaussian tail via an independent erfc implementation."""
    with mpmath.workdps(40):
        return float(mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)) / 2)


def ber_oracle(sinr):
    """High-precision Q(sqrt(2 * sinr)) = erfc(sqrt(sinr)) / 2."""
    with mpmath.workdps(40):
        return float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(float(sinr)))) / 2)


def _around(x, ulps=3):
    """x and its neighbouring doubles, up to ``ulps`` steps either side."""
    below, above = [x], [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def _assert_relative(ours, oracle, rel):
    """Relative error bound where the oracle is a normal double; an
    underflowing oracle must come out below the normal range too."""
    ours, oracle = np.asarray(ours), np.asarray(oracle)
    normal = oracle >= TINY
    assert np.all(np.abs(ours[normal] - oracle[normal]) <= rel * oracle[normal])
    assert np.all(np.abs(ours[~normal] - oracle[~normal]) <= TINY)


def test_import_leaves_scipy_unloaded():
    # the runtime depends on numpy only; importing scipy would cost most of
    # a CLI run's start-up. The test oracles use mpmath: scipy stays installed
    # for perfbench, so only this check notices a test importing it again
    src = Path(backsim.__file__).resolve().parents[1]
    tests = Path(__file__).resolve().parent
    code = ("import sys\n"
            "import backsim, backsim.cli\n"
            "print('scipy' in sys.modules)\n"
            "import oracles, test_dyadic\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ,
                                          "PYTHONPATH": os.pathsep.join([str(src), str(tests)])})
    runtime, oracles = out.stdout.split()
    assert runtime == "False", "import backsim, backsim.cli loads scipy"
    assert oracles == "False", "import oracles, test_dyadic loads scipy"


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_special_values(self):
        assert q_function(math.inf) == 0.0
        assert q_function(-math.inf) == 1.0
        assert math.isnan(q_function(math.nan))
        # exp(-x^2 / 2) underflows beyond x = 38.6
        assert q_function(38.7) == 0.0
        assert q_function(1e300) == 0.0 and q_function(-1e300) == 1.0

    def test_relative_error_across_branches(self):
        # Cephes' three rational forms meet at |x| / sqrt(2) = 1 and 8; Q
        # leaves the normal doubles near x = 37.5 and underflows near 38.6
        edges = [math.sqrt(2.0), 8.0 * math.sqrt(2.0)]
        grid = np.concatenate([np.linspace(0.0, 39.0, 1561), np.linspace(37.0, 38.8, 181),
                               *(_around(x) for x in edges)])
        _assert_relative(q_function(grid), [q_oracle(x) for x in grid], rel=1e-13)

    def test_absolute_error_below_zero(self):
        grid = np.linspace(-40.0, 0.0, 801)
        worst = max(abs(o - q_oracle(x)) for x, o in zip(grid, q_function(grid)))
        assert worst <= 1e-15

    def test_scalar_in_float_out(self):
        assert type(q_function(1.0)) is float
        assert type(q_function(np.float64(1.0))) is float
        assert np.shape(q_function(np.array(1.0))) == ()

    def test_shape_preserved(self):
        grid = np.linspace(-3.0, 12.0, 6).reshape(2, 3)
        got = q_function(grid)
        assert got.shape == (2, 3)
        assert got.tolist() == [[q_function(x) for x in row] for row in grid]

    def test_ninety_percent_quantile(self):
        assert q_function(1.2816) == pytest.approx(0.1000, abs=1e-4)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_reflection_identity(self, x):
        assert q_function(-x) == pytest.approx(1.0 - q_function(x), abs=1e-15)

    def test_matches_independent_oracle(self):
        grid = np.linspace(-8.0, 8.0, 321)
        ours = q_function(grid)
        worst = max(abs(o - q_oracle(x)) for x, o in zip(grid, ours))
        assert worst <= 1e-12


class TestBpskBer:
    def test_pure_noise(self):
        assert bpsk_ber(0.0) == 0.5

    def test_waterfall_point(self):
        # 9.6 dB is the classic coherent-BPSK 1e-5 operating point.
        assert bpsk_ber(10 ** 0.96) == pytest.approx(1.0e-5, rel=0.2)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 30.0, 100)
        bers = bpsk_ber(grid)
        assert np.all(np.diff(bers) < 0)

    def test_range(self):
        assert 0.0 <= bpsk_ber(1e6) < bpsk_ber(1.0) <= 0.5

    def test_relative_error(self):
        # branch points at SINR 1 and 64; the result underflows near 745
        grid = np.concatenate([np.geomspace(1e-8, 750.0, 801), _around(1.0), _around(64.0)])
        _assert_relative(bpsk_ber(grid), [ber_oracle(s) for s in grid], rel=1e-13)
        assert bpsk_ber(math.inf) == 0.0

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_tradeoff_beta_points(self, beta):
        # the SINRs of the tradeoff_beta experiment
        sinr = beta**2 * BETA_REFERENCE_SNR
        assert bpsk_ber(sinr) == pytest.approx(ber_oracle(sinr), rel=1e-14)

    def test_positive_zero_once_exp_underflows(self):
        # exp(-s) is 0.0 from s = 745.1332191019412, so the BER is +0.0 there
        # and beyond, past the 784 cap on the argument; at 700 it is positive
        s0 = 745.1332191019412
        assert np.exp(-s0) == 0.0
        sinrs = np.array([s0, 746.0, 784.0, 785.0, 1e3, 1e300])
        for ber in (bpsk_ber(sinrs), [bpsk_ber(s) for s in sinrs.tolist()]):
            assert not np.signbit(ber).any() and (np.asarray(ber) == 0.0).all()
        assert bpsk_ber(700.0) > 0.0


class TestEnergyRateFrontier:
    @pytest.fixture
    def snr(self):
        # detection-limited reference link at 12 dB SNR
        return 10 ** 1.2

    def test_tradeoff_direction(self, snr):
        frontier = energy_rate_frontier([0.5, 1.0], snr)
        (h_half, ber_half), (h_full, ber_full) = frontier
        assert ber_half > ber_full
        assert h_half > h_full

    def test_zero_beta_is_pure_guessing(self, snr):
        frontier = energy_rate_frontier([0.0], snr)
        assert frontier[0] == (1.0, 0.5)

    def test_monotone_in_both_coordinates(self, snr):
        grid = np.linspace(0.0, 1.0, 9)
        frontier = energy_rate_frontier(grid, snr)
        harvested = [h for h, _ in frontier]
        bers = [b for _, b in frontier]
        assert all(a > b for a, b in zip(harvested, harvested[1:]))
        assert all(a > b for a, b in zip(bers, bers[1:]))

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_closed_form(self, snr, beta):
        [(harvested, ber)] = energy_rate_frontier([beta], snr)
        assert harvested == 1.0 - beta**2
        assert ber == bpsk_ber(beta**2 * snr)

    @pytest.mark.parametrize("beta", [-0.1, 1.5, math.nan])
    def test_beta_out_of_range_rejected(self, snr, beta):
        with pytest.raises(ValueError):
            energy_rate_frontier([0.5, beta], snr)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    @pytest.mark.parametrize("snr", [math.inf, math.nan, -1.0])
    def test_bad_snr_rejected(self, snr, beta):
        # inf gave BER 0.0 at beta 0.5 and, like nan and -1.0, an error
        # about the internal SINR at beta 0.0
        with pytest.raises(ValueError, match=r"^snr must be a real number in \[0.0, inf\)"):
            energy_rate_frontier([beta], snr)

    def test_zero_snr_is_pure_guessing(self):
        assert energy_rate_frontier([0.0, 1.0], 0.0) == [(1.0, 0.5), (0.0, 0.5)]
