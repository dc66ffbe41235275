import math

import numpy as np
import pytest

from backsim.channel import dbm_to_watts, friis_gain
from backsim.mac import (SlotAssignment, aggregate_interference,
                         count_interference_components, tdma_schedule, th_ss_assign,
                         th_ss_collision_probability, th_ss_collision_rate_mc)
from backsim.scenario import NodeState, ScenarioConfig, derive_stream
from oracles import interference_at


class TestTdma:
    def test_round_robin_bijection(self):
        sched = tdma_schedule([0, 1, 2], 3)
        assert sched.assignments == {0: 0, 1: 1, 2: 2}

    def test_pigeonhole(self):
        with pytest.raises(ValueError):
            tdma_schedule([0, 1], 1)

    def test_no_collisions(self):
        sched = tdma_schedule(list(range(17)), 32)
        slots = list(sched.assignments.values())
        assert len(set(slots)) == len(slots)


class TestThSs:
    def test_single_slot_collides(self):
        sched = th_ss_assign([0, 1, 2], 1, derive_stream(1, 0, 1))
        assert set(sched.assignments.values()) == {0}

    def test_closed_form_examples(self):
        assert th_ss_collision_probability(2, 10) == pytest.approx(0.1, rel=1e-12)
        assert th_ss_collision_probability(10, 100) == pytest.approx(
            1 - 0.99**9, rel=1e-12)
        assert th_ss_collision_probability(10, 100) == pytest.approx(0.0861, abs=5e-4)

    @pytest.mark.parametrize("k,n", [(2, 10), (10, 100), (50, 10)])
    def test_empirical_matches_closed_form(self, k, n):
        trials = 20_000
        rng = derive_stream(42, k * 1000 + n, 1)
        freq = th_ss_collision_rate_mc(k, n, trials, rng)
        p = th_ss_collision_probability(k, n)
        stderr = math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) < 3 * stderr

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


def _grid(config):
    """Four nodes on a small cross around the beacon, and their gain matrix
    (node j's antenna to node i's receiver)."""
    coords = [(2.0, 0.0), (0.0, 3.0), (-4.0, 0.0), (0.0, -5.0)]
    nodes = [NodeState(id=i, position=np.array([x, y]),
                       receiver_position=np.array([x, y + config.rx_distance_m]))
             for i, (x, y) in enumerate(coords)]
    lam, ap = config.wavelength_m, config.aperture_m2
    gain = np.array([[friis_gain(float(np.hypot(*(tx.position - rx.receiver_position))),
                                 lam, ap, ap) for rx in nodes] for tx in nodes])
    return nodes, gain


def _reflected(nodes, pb_w, config):
    """Power each node reflects when it backscatters the full beacon wave."""
    lam, ap = config.wavelength_m, config.aperture_m2
    return np.array([pb_w * friis_gain(n.pb_distance_m, lam, ap, ap) for n in nodes])


class TestAggregateInterference:
    @pytest.fixture
    def config(self):
        return ScenarioConfig().validate()

    def test_empty_sum(self, config):
        nodes, gain = _grid(config)
        # only receiver 0's own transmitter radiates
        emitted = np.array([1e-6, 0.0, 0.0, 0.0])
        assert aggregate_interference(emitted, gain)[0] == 0.0
        assert aggregate_interference(np.zeros(0), np.zeros((0, 0))).shape == (0,)

    def test_single_backscatter_interferer_matches_cascade(self, config):
        # dual route: the one-term sum must equal the closed-form two-hop power
        nodes, gain = _grid(config)
        rx, intf = nodes[0], nodes[1]
        pb_w = float(dbm_to_watts(40.0))
        emitted = np.where(np.arange(4) == 1, _reflected(nodes, pb_w, config), 0.0)
        got = aggregate_interference(emitted, gain)[0]
        lam, ap = config.wavelength_m, config.aperture_m2
        d = float(np.hypot(*(intf.position - rx.receiver_position)))
        # beacon -> tag, full reflection, tag -> receiver
        expected = pb_w * friis_gain(intf.pb_distance_m, lam, ap, ap) * friis_gain(d, lam, ap, ap)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_traditional_interferer(self, config):
        nodes, gain = _grid(config)
        rx, intf = nodes[0], nodes[2]
        got = aggregate_interference(np.array([0.0, 0.0, 2e-6, 0.0]), gain)[0]
        lam, ap = config.wavelength_m, config.aperture_m2
        d = float(np.hypot(*(intf.position - rx.receiver_position)))
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
        ids = [n.id for n in nodes]
        sched = tdma_schedule(ids, 4)
        got = aggregate_interference(_reflected(nodes, 5.0, config),
                                     gain * sched.co_slot_mask(ids))
        assert got.tolist() == [0.0] * 4

    def test_th_ss_thins_interference(self, config):
        nodes, gain = _grid(config)
        ids = [n.id for n in nodes]
        emitted = _reflected(nodes, 5.0, config)
        means = []
        for frame_length in (1, 4, 16, 64):
            rng = derive_stream(23, frame_length, 1)
            totals = []
            for _ in range(400):
                sched = th_ss_assign(ids, frame_length, rng)
                got = aggregate_interference(emitted, gain * sched.co_slot_mask(ids))[0]
                assert got == pytest.approx(
                    interference_at(0, nodes, emitted, config, sched), rel=1e-9)
                totals.append(got)
            means.append(np.mean(totals))
        assert all(a > b for a, b in zip(means, means[1:]))

    @pytest.mark.parametrize("masked", [False, True])
    def test_batched_equals_per_item(self, config, masked):
        # (populations, topologies, nodes): each batch item must equal the
        # unbatched call on its own emissions and gain matrix
        nodes, gain = _grid(config)
        ids = [n.id for n in nodes]
        gains = np.stack([gain, gain[::-1, ::-1], gain * 0.5])          # (3, 4, 4)
        if masked:
            rng = derive_stream(5, 0, 1)
            gains = gains * np.stack([th_ss_assign(ids, 2, rng).co_slot_mask(ids)
                                      for _ in range(3)])
        emitted = derive_stream(6, 0, 1).random((2, 3, 4)) * 1e-6     # (2, 3, 4)
        emitted[0, 1, 2] = 0.0
        got = aggregate_interference(emitted, gains)
        assert got.shape == emitted.shape
        for p in range(2):
            for t in range(3):
                expected = aggregate_interference(emitted[p, t], gains[t])
                np.testing.assert_allclose(got[p, t], expected, rtol=1e-15, atol=0.0)

    def test_mode_validation(self, config):
        # a co-slot mask needs a slot for every node; the gain matrix must
        # match the emitters
        nodes, gain = _grid(config)
        with pytest.raises(ValueError):
            SlotAssignment(frame_length=4, assignments={0: 0, 1: 1}).co_slot_mask([0, 1, 2])
        with pytest.raises(ValueError):
            aggregate_interference(np.ones(3), gain)


class TestSlotAssignment:
    def test_slot_bounds_checked(self):
        with pytest.raises(ValueError):
            SlotAssignment(frame_length=4, assignments={0: 4})
