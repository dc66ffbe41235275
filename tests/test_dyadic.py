import math

import numpy as np
import pytest
from scipy.integrate import quad

from backsim.dyadic import _complex_normal, estimate_diversity_order, simulate_dyadic_ber
from backsim.scenario import PURPOSE_FADING, derive_stream
from oracles import bit_level_dyadic_ber, semi_dyadic_ber


def rayleigh_bpsk_oracle(snr):
    """Closed-form BPSK error rate over a single Rayleigh branch."""
    return 0.5 * (1.0 - math.sqrt(snr / (1.0 + snr)))


def double_rayleigh_oracle(snr_db, num_rx):
    """BPSK error rate over the two-hop product channel, by quadrature.

    Conditioned on the backward-combining gain g ~ Gamma(num_rx), the
    forward hop is exponential, so the error rate is the Rayleigh closed
    form at mean snr * g, integrated against the Gamma density.
    """
    s = 10.0 ** (snr_db / 10.0)
    density = lambda g: g ** (num_rx - 1) * math.exp(-g) / math.factorial(num_rx - 1)
    val, _ = quad(lambda g: rayleigh_bpsk_oracle(s * g) * density(g), 0.0, 200.0, limit=400)
    return val


class TestComposite:
    def test_composite_statistics(self):
        # Both hops drawn with the estimator's own complex-normal draw: the
        # composite entries are zero-mean with variance equal to the
        # tag-antenna count only if each hop has unit variance.
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

    def test_keyhole_worse_than_single_rayleigh(self):
        rng = derive_stream(11, 1, PURPOSE_FADING)
        curve = simulate_dyadic_ber(1, 1, 1, [20.0], 200_000, rng)
        assert curve[0][1] > rayleigh_bpsk_oracle(100.0)

    def test_unsupported_antenna_count(self):
        rng = derive_stream(1, 0, PURPOSE_FADING)
        with pytest.raises(ValueError):
            simulate_dyadic_ber(3, 2, 2, [10.0], 100_000, rng)

    def test_trial_floor_enforced(self):
        rng = derive_stream(1, 0, PURPOSE_FADING)
        with pytest.raises(ValueError):
            simulate_dyadic_ber(1, 2, 2, [10.0], 10_000, rng)

    def test_deterministic_given_seed(self):
        a = simulate_dyadic_ber(2, 2, 2, [10.0], 100_000, derive_stream(5, 0, PURPOSE_FADING))
        b = simulate_dyadic_ber(2, 2, 2, [10.0], 100_000, derive_stream(5, 0, PURPOSE_FADING))
        assert a == b


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
