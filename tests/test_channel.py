import math

import numpy as np
import pytest

from backsim.channel import dbm_to_watts, friis_gain


class TestFriisGain:
    def test_half_metre_link(self):
        # A_t * A_r / (lambda^2 d^2) = 1e-6 / (0.015625 * 0.25)
        assert friis_gain(0.5, 0.125, 0.001, 0.001) == pytest.approx(2.56e-4, rel=1e-12)

    def test_ten_metre_link(self):
        assert friis_gain(10.0, 0.125, 0.001, 0.001) == pytest.approx(6.4e-7, rel=1e-12)

    def test_inverse_square_law(self):
        for d in (0.7, 1.0, 3.3, 9.9):
            g1 = friis_gain(d, 0.125, 0.001, 0.001)
            g2 = friis_gain(2 * d, 0.125, 0.001, 0.001)
            assert g2 == pytest.approx(g1 / 4.0, rel=1e-12)

    def test_strictly_decreasing_in_distance(self):
        dists = np.linspace(0.05, 20.0, 200)
        gains = friis_gain(dists, 0.125, 0.001, 0.001)
        assert np.all(np.diff(gains) < 0)

    def test_clamped_at_unity(self):
        assert friis_gain(1e-4, 0.125, 0.001, 0.001) == 1.0

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ValueError):
            friis_gain(0.0, 0.125, 0.001, 0.001)
        with pytest.raises(ValueError):
            friis_gain(-1.0, 0.125, 0.001, 0.001)
        with pytest.raises(ValueError):
            friis_gain(1.0, 0.125, 0.0, 0.001)
        with pytest.raises(ValueError, match="wavelength"):
            friis_gain(1.0, 0.0, 0.001, 0.001)
        # NaN compares false with every bound, so it must fail each check
        with pytest.raises(ValueError, match="distance"):
            friis_gain(np.array([1.0, math.nan]), 0.125, 0.001, 0.001)
        with pytest.raises(ValueError, match="wavelength"):
            friis_gain(1.0, math.nan, 0.001, 0.001)
        for name, apertures in (("aperture_tx_m2", (math.nan, 0.001)),
                                ("aperture_rx_m2", (0.001, math.nan))):
            with pytest.raises(ValueError, match=f"^{name}"):
                friis_gain(1.0, 0.125, *apertures)

    def test_vectorised(self):
        gains = friis_gain(np.array([0.5, 10.0]), 0.125, 0.001, 0.001)
        assert gains == pytest.approx([2.56e-4, 6.4e-7], rel=1e-12)


class TestDbmConversion:
    def test_definitions(self):
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
        assert dbm_to_watts(40.0) == pytest.approx(10.0, rel=1e-12)
        assert dbm_to_watts(-100.0) == pytest.approx(1e-13, rel=1e-12)

    def test_round_trip_identity(self):
        grid = np.linspace(-120.0, 60.0, 181)
        back = 10.0 * np.log10(dbm_to_watts(grid)) + 30.0
        assert np.max(np.abs(back - grid) / np.maximum(np.abs(grid), 1.0)) < 1e-12

    def test_scalar_matches_array_bit_for_bit(self):
        # numpy's scalar ** and its array power loop can disagree in the last
        # bit (5,355 of these powers with numpy 2.4.6 on an AVX-512 x86-64
        # CPU); a scalar must give the array's bits, or one bit can decide a
        # node whose harvest lands on its requirement
        grid = np.random.default_rng(0).uniform(0.0, 60.0, 100_000)
        whole = dbm_to_watts(grid)
        one_by_one = [dbm_to_watts(p) for p in grid.tolist()]
        assert all(type(w) is np.float64 for w in one_by_one[:10])
        np.testing.assert_array_equal(np.array(one_by_one), whole)
        assert dbm_to_watts([40.0]).shape == (1,)
