import math

import mpmath
import numpy as np
import pytest

from backsim.phylink import bpsk_ber, energy_rate_frontier, q_function


def q_oracle(x):
    """High-precision Gaussian tail via an independent erfc implementation."""
    with mpmath.workdps(25):
        return float(mpmath.erfc(x / mpmath.sqrt(2)) / 2)


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

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

    def test_negative_sinr_rejected(self):
        with pytest.raises(ValueError):
            bpsk_ber(-0.1)
        with pytest.raises(ValueError):
            bpsk_ber([1.0, float("nan")])


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
