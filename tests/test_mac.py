import math

import mpmath
import numpy as np
import pytest

from backsim import mac
from backsim.channel import dbm_to_watts, friis_gain
from backsim.mac import (aggregate_interference, co_slot_mask, count_interference_components,
                         th_ss_assign, th_ss_collision_probability, th_ss_collision_rate_mc)
from backsim.scenario import ScenarioConfig, derive_stream
from oracles import interference_at, tdma_schedule


class TestTdma:
    def test_round_robin_bijection(self):
        assert tdma_schedule(3, 3).tolist() == [0, 1, 2]

    def test_pigeonhole(self):
        with pytest.raises(ValueError):
            tdma_schedule(2, 1)

    def test_no_collisions(self):
        slots = tdma_schedule(17, 32)
        assert len(set(slots.tolist())) == len(slots)
        assert np.array_equal(co_slot_mask(slots), np.eye(17, dtype=bool))
        # any collision-free schedule gives the identity mask, not only the round robin
        shuffled = derive_stream(3, 0, 1).permutation(32)[:17]
        assert np.array_equal(co_slot_mask(shuffled), np.eye(17, dtype=bool))
        # two nodes on one sub-slot see each other and nobody else
        shuffled[11] = shuffled[4]
        expected = np.eye(17, dtype=bool)
        expected[4, 11] = expected[11, 4] = True
        assert np.array_equal(co_slot_mask(shuffled), expected)


class TestThSs:
    def test_single_slot_collides(self):
        slots = th_ss_assign(3, 1, derive_stream(1, 0, 1))
        assert slots.tolist() == [0, 0, 0]
        assert co_slot_mask(slots).all()

    def test_closed_form_examples(self):
        assert th_ss_collision_probability(2, 10) == pytest.approx(0.1, rel=1e-12)
        assert th_ss_collision_probability(10, 100) == pytest.approx(
            1 - 0.99**9, rel=1e-12)
        assert th_ss_collision_probability(10, 100) == pytest.approx(0.0861, abs=5e-4)

    def test_closed_form_within_an_ulp(self):
        # 1 - (1 - 1/N)^(K - 1) cancelled: (10, 1e17) gave 0.0 for 9.0e-17,
        # and (1000, 1e9) was off by 2.8e-8 relative
        for k in (1, 2, 10, 1000):
            for n in (1, 2, 10, 100, 10**9, 10**17):
                with mpmath.workdps(50):
                    exact = 1 - (1 - mpmath.mpf(1) / n) ** (k - 1)
                    got = th_ss_collision_probability(k, n)
                    assert abs(got - exact) <= math.ulp(float(exact)), (k, n)
        assert math.copysign(1.0, th_ss_collision_probability(1, 10)) == 1.0  # +0.0

    def test_degenerate_arguments_rejected(self):
        rng = derive_stream(1, 0, 1)
        with pytest.raises(ValueError, match="frame_length"):
            th_ss_assign(3, 0, rng)
        with pytest.raises(ValueError, match="frame_length"):
            th_ss_collision_probability(2, 0)
        with pytest.raises(ValueError, match="link"):
            th_ss_collision_probability(0, 10)
        with pytest.raises(ValueError, match="frame_length"):
            th_ss_collision_probability(2, math.nan)
        with pytest.raises(ValueError, match="link"):
            th_ss_collision_probability(math.nan, 10)
        with pytest.raises(ValueError, match="trial"):
            th_ss_collision_rate_mc(2, 10, 0, rng)

    @pytest.mark.parametrize("call,name", [
        (lambda rng: th_ss_collision_rate_mc(0, 4, 1000, rng), "num_links"),
        (lambda rng: th_ss_collision_rate_mc(2, 4, True, rng), "trials"),
        (lambda rng: th_ss_collision_probability(2.5, 4), "num_links"),
        (lambda rng: th_ss_collision_probability(3, 2.5), "frame_length"),
        (lambda rng: th_ss_collision_probability(True, 4), "num_links"),
        (lambda rng: th_ss_assign(3, 2.5, rng), "frame_length"),
        (lambda rng: count_interference_components(2.5), "num_links"),
    ], ids=["mc_no_links", "mc_bool_trials", "p_half_links", "p_half_frame",
            "p_bool_links", "assign_half_frame", "components_half_links"])
    def test_counts_must_be_integers(self, call, name):
        # none of these fails by itself: each would return a number, or draw
        # sub-slots from a frame 2.5 long
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
            call(derive_stream(1, 0, 1))

    def test_numpy_integer_counts_pass(self):
        k, n = np.int64(2), np.int64(10)
        assert th_ss_collision_probability(k, n) == th_ss_collision_probability(2, 10)
        assert count_interference_components(np.int32(5)) == 20
        rate = th_ss_collision_rate_mc(k, n, np.int64(100), derive_stream(1, 0, 1))
        assert rate == th_ss_collision_rate_mc(2, 10, 100, derive_stream(1, 0, 1))
        assert th_ss_assign(3, n, derive_stream(1, 0, 1)).shape == (3,)
        assert th_ss_assign((np.int64(2), 3), n, derive_stream(1, 0, 1)).shape == (2, 3)

    @pytest.mark.parametrize("shape", [True, 2.5, (2, 2.5), 0, (), (3, 0)],
                             ids=["bool", "half", "half_axis", "zero", "empty", "zero_axis"])
    def test_shape_must_be_positive_integers(self, shape):
        # the first three raised numpy's TypeError, the others returned an
        # empty or 0-d frame
        with pytest.raises(ValueError, match="^shape must be an integer of at least 1"):
            th_ss_assign(shape, 4, derive_stream(1, 0, 1))

    @pytest.mark.parametrize("k,n", [(2, 10), (10, 100), (50, 10)])
    def test_empirical_matches_closed_form(self, k, n):
        trials = 20_000
        rng = derive_stream(42, k * 1000 + n, 1)
        freq = th_ss_collision_rate_mc(k, n, trials, rng)
        p = th_ss_collision_probability(k, n)
        stderr = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) < 3 * stderr

    @pytest.mark.parametrize("block", [7, None], ids=["block7", "default"])
    def test_blocked_draws_equal_one_shot(self, block, monkeypatch):
        # frames are drawn in blocks that continue one stream: an odd link
        # count, odd block rows and a partial last block must give the rate
        # of a single draw of every frame
        if block is not None:
            monkeypatch.setattr(mac, "_FRAME_BLOCK", block)
        k, n, trials = 7, 10, 3 * mac._FRAME_BLOCK + 5
        slots = derive_stream(3, k, 1).integers(0, n, size=(trials, k))
        one_shot = float((slots[:, 1:] == slots[:, :1]).any(axis=1).mean())
        assert th_ss_collision_rate_mc(k, n, trials, derive_stream(3, k, 1)) == one_shot

    def test_empirical_co_slot_mean(self):
        k, n, trials = 20, 8, 20_000
        rng = derive_stream(9, 0, 1)
        draws = rng.integers(0, n, size=(trials, k))
        co_slot = (draws == draws[:, :1]).sum(axis=1) - 1
        expected = (k - 1) / n  # others sharing node 0's slot
        stderr = np.std(co_slot, ddof=1) / math.sqrt(trials)
        assert abs(co_slot.mean() - expected) < 3 * stderr


class TestInterferenceCount:
    @pytest.mark.parametrize("k,expected", [(1, 0), (2, 2), (5, 20), (10, 90), (20, 380)])
    def test_component_table(self, k, expected):
        assert count_interference_components(k) == expected

    def test_quadratic_scaling(self):
        ratios = [count_interference_components(k) / k**2 for k in (10, 100, 10_000)]
        assert ratios == sorted(ratios)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)

    def test_needs_a_link(self):
        with pytest.raises(ValueError):
            count_interference_components(0)

    @pytest.mark.parametrize("k", [np.int32(50_000), np.int64(2**32)], ids=["int32", "int64"])
    def test_numpy_counts_do_not_wrap(self, k):
        # computed in the argument's own type, these wrapped to -1795017296
        # and -4294967296
        count = count_interference_components(k)
        assert type(count) is int and count == (int(k) - 1) * int(k)


def _grid(config):
    """Four nodes on a small cross around the beacon as an (n, 2, 2)
    topology, and their cross-gain matrix (node j's antenna to node i's
    receiver, zero for j = i)."""
    coords = np.array([(2.0, 0.0), (0.0, 3.0), (-4.0, 0.0), (0.0, -5.0)])
    nodes = np.stack([coords, coords + [0.0, config.rx_distance_m]], axis=1)
    lam, ap = config.wavelength_m, config.aperture_m2
    gain = np.array([[friis_gain(float(np.hypot(*(tx[0] - rx[1]))), lam, ap, ap) if i != j
                      else 0.0 for i, rx in enumerate(nodes)] for j, tx in enumerate(nodes)])
    return nodes, gain


def _reflected(nodes, pb_w, config):
    """Power each node reflects when it backscatters the full beacon wave."""
    lam, ap = config.wavelength_m, config.aperture_m2
    return np.array([pb_w * friis_gain(float(np.hypot(*n[0])), lam, ap, ap) for n in nodes])


class TestAggregateInterference:
    @pytest.fixture
    def config(self):
        return ScenarioConfig()

    def test_empty_sum(self, config):
        nodes, gain = _grid(config)
        # only receiver 0's own transmitter radiates
        emitted = np.array([1e-6, 0.0, 0.0, 0.0])
        assert aggregate_interference(emitted, gain)[0] == 0.0
        assert aggregate_interference(np.zeros(0), np.zeros((0, 0))).shape == (0,)

    def test_plain_product_with_given_diagonal(self):
        # the caller owns the zero diagonal: whatever it holds is summed
        gain = derive_stream(3, 0, 1).random((2, 3, 3))
        emitted = np.array([1.0, 2.0, 4.0])
        got = aggregate_interference(emitted, gain)
        np.testing.assert_allclose(got, np.einsum("j,tji->ti", emitted, gain), rtol=1e-15)

    def test_single_backscatter_interferer_matches_cascade(self, config):
        # dual route: the one-term sum must equal the closed-form two-hop power
        nodes, gain = _grid(config)
        rx, intf = nodes[0], nodes[1]
        pb_w = float(dbm_to_watts(40.0))
        emitted = np.where(np.arange(4) == 1, _reflected(nodes, pb_w, config), 0.0)
        got = aggregate_interference(emitted, gain)[0]
        lam, ap = config.wavelength_m, config.aperture_m2
        d = float(np.hypot(*(intf[0] - rx[1])))
        # beacon -> tag, full reflection, tag -> receiver
        pb_distance = float(np.hypot(*intf[0]))
        expected = pb_w * friis_gain(pb_distance, lam, ap, ap) * friis_gain(d, lam, ap, ap)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_traditional_interferer(self, config):
        nodes, gain = _grid(config)
        rx, intf = nodes[0], nodes[2]
        got = aggregate_interference(np.array([0.0, 0.0, 2e-6, 0.0]), gain)[0]
        lam, ap = config.wavelength_m, config.aperture_m2
        d = float(np.hypot(*(intf[0] - rx[1])))
        assert got == pytest.approx(2e-6 * friis_gain(d, lam, ap, ap), rel=1e-12)

    def test_additivity(self, config):
        nodes, gain = _grid(config)
        emitted = _reflected(nodes, 5.0, config)
        emitted[0] = 0.0  # interferers of receiver 0 only
        first = np.where(np.arange(4) == 1, emitted, 0.0)
        whole = aggregate_interference(emitted, gain)[0]
        split = (aggregate_interference(first, gain)[0]
                 + aggregate_interference(emitted - first, gain)[0])
        assert whole == pytest.approx(split, rel=1e-15)

    def test_tdma_is_silent_between_scheduled_tags(self, config):
        nodes, gain = _grid(config)
        got = aggregate_interference(_reflected(nodes, 5.0, config),
                                     gain * co_slot_mask(tdma_schedule(4, 4)))
        assert got.tolist() == [0.0] * 4

    def test_th_ss_thins_interference(self, config):
        nodes, gain = _grid(config)
        emitted = _reflected(nodes, 5.0, config)
        means = []
        for frame_length in (1, 4, 16, 64):
            rng = derive_stream(23, frame_length, 1)
            totals = []
            for _ in range(400):
                slots = th_ss_assign(4, frame_length, rng)
                got = aggregate_interference(emitted, gain * co_slot_mask(slots))[0]
                assert got == pytest.approx(
                    interference_at(0, nodes, emitted, config, slots), rel=1e-9)
                totals.append(got)
            means.append(np.mean(totals))
        assert all(a > b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("masked", [False, True])
    def test_batched_equals_per_item(self, config, masked):
        # (topologies, populations, nodes): each batch item must equal the
        # unbatched call on its own emissions and its topology's gain matrix
        nodes, gain = _grid(config)
        gains = np.stack([gain, gain[::-1, ::-1], gain * 0.5])          # (3, 4, 4)
        if masked:
            rng = derive_stream(5, 0, 1)
            gains = gains * co_slot_mask(th_ss_assign((3, 4), 2, rng))
        emitted = derive_stream(6, 0, 1).random((3, 2, 4)) * 1e-6     # (3, 2, 4)
        emitted[1, 0, 2] = 0.0
        got = aggregate_interference(emitted, gains)
        assert got.shape == emitted.shape
        for t in range(3):
            for p in range(2):
                expected = aggregate_interference(emitted[t, p], gains[t])
                np.testing.assert_allclose(got[t, p], expected, rtol=1e-15, atol=0.0)

    def test_stacked_rows_share_their_gain_matrix(self, config):
        # the sweep's layout: (T, P, N) emissions against (T, N, N) gains,
        # every power row of topology t summed over that topology's matrix
        rng = derive_stream(7, 0, 1)
        gains = rng.random((5, 6, 6)) * 1e-3
        gains[:, np.arange(6), np.arange(6)] = 0.0
        emitted = rng.random((5, 9, 6)) * 1e-6
        emitted[emitted < 3e-7] = 0.0  # silent nodes, as in a slot
        got = aggregate_interference(emitted, gains)
        np.testing.assert_allclose(got, np.einsum("tpj,tji->tpi", emitted, gains),
                                   rtol=1e-15, atol=0.0)
        # a 1-D emission vector still gives the per-receiver sum
        nodes, gain = _grid(config)
        flat = _reflected(nodes, 5.0, config)
        got = aggregate_interference(flat, gain)
        assert got.shape == (4,)
        for i in range(4):
            expected = sum(flat[j] * gain[j, i] for j in range(4))
            assert got[i] == pytest.approx(expected, rel=1e-15)

    def test_mode_validation(self, config):
        # a co-slot mask must cover every node of the gain matrix; the gain
        # matrix must match the emitters
        nodes, gain = _grid(config)
        with pytest.raises(ValueError):
            gain * co_slot_mask(tdma_schedule(3, 4))
        with pytest.raises(ValueError):
            aggregate_interference(np.ones(3), gain)


class TestCoSlotMask:
    def test_batches_over_leading_axes(self):
        slots = th_ss_assign((2, 3, 5), 3, derive_stream(8, 0, 1))
        mask = co_slot_mask(slots)
        assert mask.shape == (2, 3, 5, 5)
        for p in range(2):
            for t in range(3):
                assert np.array_equal(mask[p, t], co_slot_mask(slots[p, t]))
