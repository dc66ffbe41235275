import dataclasses
import math
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st

from backsim import mac, netsim
from backsim.channel import dbm_to_watts, friis_gain
from backsim.cli import main
from backsim.energymodel import slot_harvest, slot_stepper, turn_on_energy
from backsim.netsim import _mean_ci, run_comparison
from backsim.phylink import bpsk_ber
from backsim.scenario import (NodeKind, PURPOSE_MAC, PURPOSE_PLACEMENT, ScenarioConfig,
                              derive_stream, load_config, place_topologies)
from oracles import (interference_at, ledger_stepper, place_nodes_loop, population_loop,
                     run_population, tdma_schedule)

KINDS = (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL)
DATA = Path(__file__).parent / "data"
PURPOSE_BITLEVEL = 3  # derive_stream tag of the bit-level oracle's noise draws


def _topology(config, topo_index=0, n=None):
    """Topology ``topo_index`` of ``config``'s sweep; an integer ``n`` pins
    the node count and keeps the position draws."""
    rng = derive_stream(config.seed, topo_index, PURPOSE_PLACEMENT)
    return place_nodes_loop(config, rng, n)


@st.composite
def _valid_configs(draw):
    """Random valid scenarios: density, efficiencies, slot split and powers."""
    return ScenarioConfig(
        node_density=draw(st.floats(0.002, 0.1)),
        harvest_efficiency=draw(st.floats(0.01, 1.0)),
        pa_efficiency=draw(st.floats(0.01, 1.0)),
        harvest_ms=draw(st.floats(0.01, 495.0)), active_ms=draw(st.floats(0.01, 495.0)),
        sense_energy_j=draw(st.floats(1e-9, 1e-5)),
        digital_circuit_w=draw(st.floats(1e-7, 1e-4)),
        mixer_w=draw(st.floats(1e-7, 1e-3)),
        dac_w=draw(st.floats(1e-7, 1e-3)),
        num_slots=40, warmup_slots=5, seed=draw(st.integers(0, 2**32)))


def _reaching_power(config, gain, required, slots):
    """The smallest beacon power, in dBm, at which a node of beacon gain
    ``gain`` harvests ``required`` within ``slots`` slots of the float
    recursion, and what it harvests by then."""
    def harvest(pb_dbm):
        harvested = slot_harvest(dbm_to_watts(np.array([pb_dbm])) * gain, config)
        running = np.zeros(1)
        for _ in range(slots):
            running += harvested
        return float(running[0])

    pb_dbm = 30.0 + 10.0 * math.log10(
        required / (gain * config.harvest_efficiency * config.harvest_s * slots))
    while harvest(pb_dbm) >= required:
        pb_dbm = np.nextafter(pb_dbm, -math.inf)
    while harvest(pb_dbm) < required:
        pb_dbm = np.nextafter(pb_dbm, math.inf)
    return float(pb_dbm), harvest(pb_dbm)


def _with_requirement(config, kind, required):
    """``config`` with ``sense_energy_j`` moved so that ``kind`` turns on at
    exactly ``required``, if a positive value does that."""
    # the search reads the fields without validating a config each time
    probe = types.SimpleNamespace(active_s=config.active_s, noise_w=config.noise_w,
                                  **dataclasses.asdict(config))
    low, high = 1, np.float64(required).view(np.int64)  # positive floats order as their bits
    while low < high:
        mid = (low + high) // 2
        probe.sense_energy_j = float(np.int64(mid).view(np.float64))
        if turn_on_energy(kind, probe)[0] < required:
            low = mid + 1
        else:
            high = mid
    moved = dataclasses.replace(config, sense_energy_j=float(np.int64(low).view(np.float64)))
    return moved if turn_on_energy(kind, moved)[0] == required else config


@st.composite
def _sweep_cases(draw):
    """A random valid sweep and its topology count. Some put one node's
    running harvest on its requirement, exactly where ``sense_energy_j``
    allows, in the last slot (the screen's boundary), in the first (the
    fixed-population boundary) or in between (a per-slot harvest near
    r / q), and sweep that power and the float below it."""
    num_slots = draw(st.integers(2, 40))
    cfg = ScenarioConfig(
        node_density=draw(st.floats(0.002, 0.15)),
        harvest_efficiency=draw(st.floats(0.01, 1.0)),
        pa_efficiency=draw(st.floats(0.01, 1.0)),
        harvest_ms=draw(st.floats(0.01, 495.0)), active_ms=draw(st.floats(0.01, 495.0)),
        sense_energy_j=draw(st.floats(1e-9, 1e-5)),
        digital_circuit_w=draw(st.floats(1e-7, 1e-4)),
        mixer_w=draw(st.floats(1e-7, 1e-3)),
        dac_w=draw(st.floats(1e-7, 1e-3)),
        noise_dbm=draw(st.floats(-120.0, -60.0)),
        pb_power_dbm_sweep=draw(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4)),
        num_slots=num_slots, warmup_slots=draw(st.integers(0, 1)),
        seed=draw(st.integers(0, 2**32)))
    num_topologies = draw(st.integers(1, 4))
    slots = draw(st.one_of(st.none(), st.just(num_slots), st.just(1),
                           st.integers(1, num_slots)))
    nodes, counts = place_topologies(cfg, num_topologies)
    if slots is None or not counts.any():
        return cfg, num_topologies
    pb_gain = netsim._padded_gains(cfg, nodes, counts)[0]
    topology = draw(st.sampled_from(counts.nonzero()[0].tolist()))
    gain = pb_gain[topology, draw(st.integers(0, counts[topology] - 1))]
    kind = draw(st.sampled_from(KINDS))
    pb_dbm, reached = _reaching_power(cfg, gain, turn_on_energy(kind, cfg)[0], slots)
    sweep = (pb_dbm, float(np.nextafter(pb_dbm, -math.inf)), *cfg.pb_power_dbm_sweep[:2])
    try:
        cfg = dataclasses.replace(cfg, pb_power_dbm_sweep=sweep)
    except ValueError:  # a boundary power the config cannot take
        reject()
    return _with_requirement(cfg, kind, reached), num_topologies


def _close(got, expected, rel=1e-12):
    """Equal to ``rel`` relative, with NaN only where the other is NaN."""
    if math.isnan(got) or math.isnan(expected):
        return math.isnan(got) and math.isnan(expected)
    return abs(got - expected) <= rel * max(abs(got), abs(expected))


class TestRunPopulation:
    def test_single_link_matches_closed_form(self):
        # One backscatter node, no interferers: every sample must equal the
        # hand-computed Q(sqrt(2 * signal / noise)) of its link budget.
        cfg = ScenarioConfig(num_slots=40, warmup_slots=5)
        topo = _topology(cfg, n=1)
        mean_ber, _, samples = run_population(cfg, NodeKind.BACKSCATTER, topo, 40.0)
        pb_distance = float(np.hypot(*topo[0, 0]))
        lam, ap = cfg.wavelength_m, cfg.aperture_m2
        signal = (float(dbm_to_watts(40.0))
                  * friis_gain(pb_distance, lam, ap, ap)
                  * friis_gain(cfg.rx_distance_m, lam, ap, ap))
        expected = float(bpsk_ber(signal / cfg.noise_w))
        assert samples > 0
        assert mean_ber == pytest.approx(expected, rel=1e-12)

    def test_starved_network_has_no_samples(self):
        cfg = ScenarioConfig(num_slots=50, warmup_slots=10)
        topo = _topology(cfg, n=6)
        mean_ber, active_fraction, samples = run_population(
            cfg, NodeKind.BACKSCATTER, topo, -20.0)
        assert active_fraction == 0.0
        assert samples == 0
        assert math.isnan(mean_ber)

    def test_empty_topology_reports_absent(self):
        cfg = ScenarioConfig()
        topo = _topology(cfg, n=0)
        assert topo.shape == (0, 2, 2)
        mean_ber, active_fraction, _ = run_population(cfg, NodeKind.BACKSCATTER, topo, 40.0)
        assert math.isnan(mean_ber) and math.isnan(active_fraction)

    def test_energy_ledgers_conserved(self):
        cfg = ScenarioConfig(num_slots=150, warmup_slots=20)
        topo = _topology(cfg, 3, n=12)
        for kind in (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL):
            ledger = population_loop(cfg, kind, topo, 40.0)[3]
            assert ledger.battery_j.shape == (len(topo),)
            assert np.all(np.abs(ledger.drift_j())
                          <= 1e-9 * np.maximum(ledger.harvested_j, 1e-30))
            assert np.all(ledger.battery_j >= 0.0)

    @pytest.mark.parametrize("field,value", [
        ("noise_dbm", math.nan),
        ("pa_efficiency", 2.0),
        ("warmup_slots", 40),     # not smaller than num_slots
    ])
    def test_invalid_config_rejected(self, field, value):
        # a bad config never reaches the sweep engine: deriving it from a
        # valid one fails first, and the error names the field
        cfg = ScenarioConfig(num_slots=40, warmup_slots=5)
        with pytest.raises(ValueError, match=field):
            run_comparison(dataclasses.replace(cfg, **{field: value}), num_topologies=1)

    @settings(max_examples=40, deadline=None)
    @given(cfg=_valid_configs(), pb=st.floats(0.0, 60.0), kind=st.sampled_from(KINDS))
    def test_energy_conserved_for_any_valid_config(self, cfg, pb, kind):
        ledger = population_loop(cfg, kind, _topology(cfg), pb)[3]
        assert np.all(np.abs(ledger.drift_j()) <= 1e-9 * ledger.harvested_j)

    @pytest.mark.parametrize("kind", [NodeKind.BACKSCATTER, NodeKind.TRADITIONAL])
    def test_interference_matches_mac_module(self, kind, monkeypatch):
        # Dual route: every interference vector netsim computes during a run
        # must match the scalar per-receiver sum over Friis gains, for both
        # kinds' rows of each product; the same mac function under TDMA and
        # time-hopping co-slot masks must match the scalar sum restricted to
        # co-slot nodes, on ``kind``'s emissions.
        cfg = ScenarioConfig(num_slots=30, warmup_slots=2)
        topo = _topology(cfg, 1, n=5)
        n = len(topo)
        calls = []

        def recording(emitted_w, gain):
            # one population per kind over one topology: a (1, 2, N) batch
            out = mac.aggregate_interference(emitted_w, gain)
            calls.append((emitted_w.reshape(2, n).copy(), gain[0], out.reshape(2, n)))
            return out

        monkeypatch.setattr(netsim, "aggregate_interference", recording)
        samples = run_population(cfg, kind, topo, 42.0)[2]
        assert len(calls) > 0 and samples > 0
        # some product carries both kinds' emissions at once
        assert any((emitted > 0.0).any(axis=1).all() for emitted, _, _ in calls)
        for emitted, _, got in calls:
            for row, got_row in zip(emitted, got):
                for i in range(n):
                    expected = interference_at(i, topo, row, cfg)
                    assert got_row[i] == pytest.approx(expected, rel=1e-9)

        emitted, gain, _ = calls[-1]
        emitted = emitted[KINDS.index(kind)]
        for slots in (tdma_schedule(n, n),
                      mac.th_ss_assign(n, 2, derive_stream(cfg.seed, 0, PURPOSE_MAC))):
            got = mac.aggregate_interference(emitted, gain * mac.co_slot_mask(slots))
            for i in range(n):
                expected = interference_at(i, topo, emitted, cfg, slots)
                assert got[i] == pytest.approx(expected, rel=1e-9)

    def test_bit_level_mode_matches_semi_analytic(self):
        # Energy dynamics are deterministic, so the bit-counting oracle sees
        # the same per-slot SINRs as run_population; its estimate must agree
        # with the Q-function average to within binomial error.
        cfg = ScenarioConfig(num_slots=60, warmup_slots=10)
        topo = _topology(cfg, 4, n=8)
        semi_ber, _, samples = run_population(cfg, NodeKind.BACKSCATTER, topo, 45.0)
        bits = 2000
        counted_ber, _, counted_samples, _ = population_loop(
            cfg, NodeKind.BACKSCATTER, topo, 45.0,
            bit_level_rng=derive_stream(cfg.seed, 0, PURPOSE_BITLEVEL), bits_per_slot=bits)
        assert counted_samples == samples
        n_bits = samples * bits
        stderr = math.sqrt(max(semi_ber * (1 - semi_ber), 1e-12) / n_bits)
        assert abs(counted_ber - semi_ber) < 5 * stderr + 1e-9

    def test_backscatter_active_set_dominates(self):
        cfg = ScenarioConfig(num_slots=100, warmup_slots=20)
        topo = _topology(cfg, 2, n=10)
        for pb in (20.0, 30.0, 40.0, 50.0):
            back = population_loop(cfg, NodeKind.BACKSCATTER, topo, pb)[3].slots_active
            trad = population_loop(cfg, NodeKind.TRADITIONAL, topo, pb)[3].slots_active
            assert set(np.flatnonzero(trad)) <= set(np.flatnonzero(back))
            assert np.all(back >= trad)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 12), pb=st.floats(20.0, 55.0),
           kind=st.sampled_from(KINDS), shuffle=st.permutations(range(12)))
    # At SINR ~ 100 the deep-tail BER magnifies rounding in the interference
    # sum by orders of magnitude, so the sum must not depend on node order.
    @example(seed=3, n=3, pb=30.0, kind=NodeKind.BACKSCATTER, shuffle=[1, 0, 2, *range(3, 12)])
    def test_invariant_to_node_order(self, seed, n, pb, kind, shuffle):
        cfg = ScenarioConfig(num_slots=30, warmup_slots=5, seed=seed)
        topo = _topology(cfg, n=n)
        order = [i for i in shuffle if i < n]  # a uniform permutation of the n nodes
        ber, frac, samples = run_population(cfg, kind, topo, pb)
        s_ber, s_frac, s_samples = run_population(cfg, kind, topo[order], pb)
        assert _close(s_ber, ber) and _close(s_frac, frac)
        assert s_samples == samples
        ledger = population_loop(cfg, kind, topo, pb)[3]
        s_ledger = population_loop(cfg, kind, topo[order], pb)[3]
        for name, flows in vars(ledger).items():
            assert np.array_equal(getattr(s_ledger, name), flows[order])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 12), kind=st.sampled_from(KINDS),
           powers=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=4))
    def test_activity_monotone_in_beacon_power(self, seed, n, kind, powers):
        cfg = ScenarioConfig(num_slots=60, warmup_slots=10, seed=seed)
        topo = _topology(cfg, n=n)
        slots = [population_loop(cfg, kind, topo, pb)[3].slots_active
                 for pb in sorted(powers)]
        for lower, higher in zip(slots, slots[1:]):
            assert np.all(lower <= higher)


class TestRunComparison:
    @pytest.fixture
    def small_config(self):
        return ScenarioConfig(pb_power_dbm_sweep=[25.0, 40.0], num_slots=40,
                              warmup_slots=8, seed=11)

    def test_deterministic(self, small_config):
        a = run_comparison(small_config, num_topologies=4)
        b = run_comparison(small_config, num_topologies=4)
        assert len(a) == len(b) == 4
        for stat_a, stat_b in zip(a, b):
            # assert_array_equal takes NaN to match NaN, and only NaN
            np.testing.assert_array_equal(stat_a, stat_b, strict=True)

    def test_needs_a_topology(self, small_config):
        for bad in (0, True, 2.5, 2.0, "3"):
            with pytest.raises(ValueError, match="^num_topologies must be an integer of at least 1"):
                run_comparison(small_config, bad)
        shape = (len(KINDS), len(small_config.pb_power_dbm_sweep))
        assert [stat.shape for stat in run_comparison(small_config, np.int64(1))] == [shape] * 4

    def test_gain_memory_guard_counts_the_padded_nodes(self, monkeypatch):
        # 2,000 default topologies expect 6.22 nodes each, 3.17 MB of gains,
        # but the gains pad every topology to the largest, of 17 nodes, and
        # need 23.7 MB: on a host of 16 MiB the sweep refuses before padding
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 4096}
        monkeypatch.setattr(netsim.os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(netsim, "_padded_gains", None)  # a call would raise TypeError
        with pytest.raises(ValueError, match=r"^node_density = 0.02 over 2000 topologies "
                                             r"needs about 2.37e\+07 bytes"):
            run_comparison(ScenarioConfig(), 2000)

    def test_sweep_layout(self, small_config):
        stats = run_comparison(small_config, num_topologies=3)
        assert len(stats) == 4
        for stat in stats:  # 2 kinds x 2 powers
            assert stat.shape == (2, 2) and stat.dtype == np.float64
        mean_ber, ci95_ber, active_fraction, _ = stats
        assert ((0.0 <= active_fraction) & (active_fraction <= 1.0)).all()
        linked = ~np.isnan(mean_ber)
        assert ((0.0 <= mean_ber[linked]) & (mean_ber[linked] <= 0.5)).all()
        assert (ci95_ber[linked] >= 0.0).all()

    @pytest.mark.parametrize("overrides,empty", [
        ({"node_density": 0.05}, "none"),     # about 16 nodes: padded rows exceed 8
        ({"node_density": 0.002}, "some"),    # about 0.6 nodes per topology
        ({"node_density": 1e-6}, "all"),      # no node drawn: every row NaN
    ], ids=["normal", "sparse", "no_nodes"])
    def test_matches_per_population_oracle(self, overrides, empty):
        # The batched sweep must equal the unbatched per-population loop,
        # aggregated the same way, up to summation order.
        cfg = ScenarioConfig(pb_power_dbm_sweep=[20.0, 35.0, 45.0], num_slots=30,
                             warmup_slots=6, seed=9, **overrides)
        num_topologies = 8
        topologies = [_topology(cfg, t) for t in range(num_topologies)]
        empties = sum(len(topo) == 0 for topo in topologies)
        assert {"none": empties == 0 and max(map(len, topologies)) > 8,
                "some": 0 < empties < num_topologies,
                "all": empties == num_topologies}[empty]
        stats = run_comparison(cfg, num_topologies=num_topologies)
        shape = (len(KINDS), len(cfg.pb_power_dbm_sweep))
        assert [stat.shape for stat in stats] == [shape] * 4
        for p, pb in enumerate(cfg.pb_power_dbm_sweep):
            for k, kind in enumerate(KINDS):
                runs = [population_loop(cfg, kind, topo, pb) for topo in topologies]
                expected = (*_mean_ci([r[0] for r in runs]), *_mean_ci([r[1] for r in runs]))
                for stat, want in zip(stats, expected):
                    assert _close(stat[k, p], want), (pb, kind, stat[k, p], want)
        if empty == "all":
            assert np.isnan(stats[0]).all() and np.isnan(stats[2]).all()

    def test_ber_block_size_only_regroups_sums(self, small_config, monkeypatch):
        # BER is evaluated on queued blocks of link-slots. Each population's
        # sum is built one link-slot at a time in slot-then-entry order, so
        # the block size, and the link-slots other populations put in a
        # block, change no bit of any statistic
        def stats(config, num_topologies, block):
            monkeypatch.setattr(netsim, "_BER_BLOCK", block)
            return np.array(run_comparison(config, num_topologies))
        for config, num_topologies in ((small_config, 6),
                                       (load_config(DATA / "fig3_dense.cfg"), 3)):
            whole = stats(config, num_topologies, 1 << 30)
            for block in (1, 7, 1 << 12):
                # assert_array_equal takes NaN to match NaN, and only NaN
                np.testing.assert_array_equal(stats(config, num_topologies, block), whole,
                                              strict=True, err_msg=f"block {block}")

    def test_sweep_memory_is_bounded(self):
        # link-slots go into buffers of max(min(_BER_BLOCK, run), one slot)
        # entries, so the 50-topology default sweep peaks near 0.59 MB;
        # queuing whole blocks of 2^15 link-slots and concatenating them
        # peaked near 2.8 MB. At 200 topologies the sweep peaks near 2.58 MB;
        # keeping an energy ledger of the stepped entries raised that to
        # 2.97 MB, and rebuilding two (T, P, N) ledgers after the slot loop
        # to 3.37 MB.
        config = ScenarioConfig()
        run_comparison(config, 2)  # first-call allocations are not the sweep's
        for num_topologies, bound in ((50, 1.5e6), (200, 2.8e6)):
            tracemalloc.start()
            try:
                run_comparison(config, num_topologies)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, f"peak allocation {peak} bytes at {num_topologies} topologies"

    def test_csv_schema(self, small_config, tmp_path):
        stats = run_comparison(small_config, num_topologies=2)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pb_power_dbm_sweep = 25, 40\nnum_slots = 40\nwarmup_slots = 8\n"
                       "seed = 11\n")
        out = tmp_path / "sweep.csv"
        assert main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,ci95_active,trials,seed"
        assert len(lines) == 1 + stats[0].size
        rows = iter(lines[1:])  # powers in sweep order, then kinds
        for p, pb in enumerate(small_config.pb_power_dbm_sweep):
            for k, kind in enumerate(KINDS):
                power, kind_value, *fields, trials, seed = next(rows).split(",")
                # shortest round-trip decimals parse back exactly
                assert float(power) == pb and kind_value == kind.value
                # assert_array_equal takes NaN to match NaN
                np.testing.assert_array_equal([float(v) for v in fields],
                                              [stat[k, p] for stat in stats])
                assert (int(trials), int(seed)) == (2, small_config.seed)

    @pytest.mark.parametrize("config_file,powers", [
        (None, (25.0, 40.0, 70.0)), ("fig3_dense.cfg", (35.0, 55.0, 65.0))])
    def test_fixed_populations_are_evaluated_once(self, config_file, powers, monkeypatch):
        # A population whose stepped entries each harvest at least their
        # requirement in every slot is active throughout with the same
        # emissions, so its SINRs repeat: the sweep steps each of its
        # entries once, evaluates each of its links once and counts it once
        # per measured slot. Only the other populations' entries are
        # stepped in every slot.
        cfg = load_config(DATA / config_file) if config_file else ScenarioConfig()
        cfg = dataclasses.replace(cfg, pb_power_dbm_sweep=powers, num_slots=30,
                                  warmup_slots=6, seed=9)
        num_topologies, measured = 6, cfg.num_slots - cfg.warmup_slots
        nodes, counts = place_topologies(cfg, num_topologies)
        gains = netsim._padded_gains(cfg, nodes, counts)
        harvest = (dbm_to_watts(cfg.pb_power_dbm_sweep)[:, None] * gains[0][:, None, :]
                   * cfg.harvest_efficiency * cfg.harvest_s)  # (T, P, N)
        running = np.zeros(harvest.shape)
        for _ in range(cfg.num_slots):
            running += harvest
        requirements = [turn_on_energy(kind, cfg)[0] for kind in KINDS]
        fixed = np.stack([~((running >= required) & (harvest < required)).any(axis=-1)
                          for required in requirements], axis=1)  # (T, kind, P)
        stepped = np.stack([(running >= required).sum(axis=-1) for required in requirements],
                           axis=1)  # stepped entries per (T, kind, P)

        ber_values = []

        def counted(sinr):
            ber_values.append(np.size(sinr))
            return bpsk_ber(sinr)

        monkeypatch.setattr(netsim, "bpsk_ber", counted)
        steppers = _count_steps(monkeypatch)
        mean_ber, active_fraction, samples = netsim._run_kinds(cfg, *gains, counts)
        for k in range(len(KINDS)):  # each kind has both, the fixed ones with links
            assert (fixed[:, k] & (samples[:, k] > 0)).any() and not fixed[:, k].all()
        assert (samples[fixed] % measured == 0).all()
        assert sum(ber_values) == samples[~fixed].sum() + samples[fixed].sum() // measured
        by_kind = [[stepped[:, k][where[:, k]].sum() for k in range(len(KINDS))]
                   for where in (~fixed, fixed)]
        assert sorted(steppers, key=lambda record: -record[2]) == [
            [*by_kind[0], cfg.num_slots], [*by_kind[1], 1]]

        for t in range(num_topologies):
            topo = _topology(cfg, t)
            for k, kind in enumerate(KINDS):
                for p, pb in enumerate(cfg.pb_power_dbm_sweep):
                    ber, frac, count, _ = population_loop(cfg, kind, topo, pb)
                    where = (t, k, p, fixed[t, k, p])
                    assert samples[t, k, p] == count, where
                    assert _close(mean_ber[t, k, p], ber), where
                    assert _close(active_fraction[t, k, p], frac), where

    @settings(max_examples=40, deadline=None)
    @given(case=_sweep_cases())
    def test_matches_oracle_for_any_valid_config(self, case):
        # every statistic of the sweep against the unbatched loop, aggregated
        # the same way, on configs that put a node on the screen's or the
        # fixed-population boundary
        cfg, num_topologies = case
        mean_ber, ci95_ber, active_fraction, ci95_active = run_comparison(cfg, num_topologies)
        topologies = [_topology(cfg, t) for t in range(num_topologies)]
        assert mean_ber.shape == (len(KINDS), len(cfg.pb_power_dbm_sweep))
        for p, pb in enumerate(cfg.pb_power_dbm_sweep):
            for k, kind in enumerate(KINDS):
                runs = np.array([population_loop(cfg, kind, topo, pb)[:2] for topo in topologies])
                got = ((mean_ber[k, p], ci95_ber[k, p]),
                       (active_fraction[k, p], ci95_active[k, p]))
                for (got_mean, got_half), mean, half, values in zip(got, *_mean_ci(runs), runs.T):
                    # A half-width is the spread of per-topology values, so its
                    # rounding error is on the scale of those values, not of
                    # itself: four topologies active 0.25 of the time give 0.0
                    # from the sweep and 3.8e-17 from the loop, whose per-slot
                    # sums of n_active / n round otherwise.
                    scale = np.nanmax(values, initial=0.0)
                    assert _close(got_mean, mean, rel=1e-11), (pb, kind, got_mean, mean)
                    assert (_close(got_half, half, rel=1e-11)
                            or abs(got_half - half) <= 1e-11 * scale), (pb, kind, got_half, half)


# Golden sweeps written by ``backsim --experiment fig3a --seed 42`` before the
# sweep was batched over powers and topologies: the default config at 20
# topologies, and data/fig3_dense.cfg (about 24 nodes per topology) at 10.
# The batched engine adds the same terms in another order (stacked matrix
# products, pairwise sums over padded rows), so numeric columns agree to
# 1e-12 relative; NaN positions and the other columns agree exactly.
@pytest.mark.parametrize("golden,flags", [
    ("fig3_default_seed42_t20.csv", ["--trials", "20"]),
    ("fig3_dense_seed42_t10.csv",
     ["--trials", "10", "--config", str(DATA / "fig3_dense.cfg")]),
])
def test_fig3_matches_golden(golden, flags, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["--experiment", "fig3a", "--seed", "42", "--out", str(out), *flags]) == 0
    got = out.read_text().splitlines()
    expected = (DATA / golden).read_text().splitlines()
    assert got[0] == expected[0] and len(got) == len(expected)
    columns = expected[0].split(",")
    for g_line, e_line in zip(got[1:], expected[1:]):
        for col, g, e in zip(columns, g_line.split(","), e_line.split(",")):
            if col in ("pb_power_dbm", "kind", "trials", "seed"):
                assert g == e, (col, e_line)
            else:
                assert _close(float(g), float(e)), (col, g_line, e_line)


# Activation never depends on interference: a node's schedule follows from
# its per-slot harvest h and its kind's threshold r alone. On these configs
# a backscatter tag has been active floor(n h / r) times after n slots,
# capped at n; the test checks that against the float recursion slot by
# slot, because it fails where h / r is a ratio of small integers (at
# h = r / 5 the recursion counts 9 active slots at slot 45, the floor 8). A
# traditional radio spends its whole battery when it fires, which leaves
# exactly 0.0, so it fires with exact period k, the first n at which the
# running float sum h + h + ... reaches r.
@pytest.mark.parametrize("config_file", [None, "fig3_dense.cfg"])
def test_fig3b_activity_matches_closed_form(config_file):
    cfg = load_config(DATA / config_file) if config_file else ScenarioConfig()
    placed, node_counts = place_topologies(cfg, 50)
    gains = netsim._padded_gains(cfg, placed, node_counts)
    pb_gain = gains[0]
    harvest = (dbm_to_watts(cfg.pb_power_dbm_sweep)[:, None] * pb_gain[:, None, :]
               * cfg.harvest_efficiency * cfg.harvest_s)  # (T, P, N)
    active_s = cfg.active_s
    back_threshold = cfg.sense_energy_j + cfg.digital_circuit_w * active_s
    overhead = cfg.sense_energy_j + (cfg.digital_circuit_w + cfg.mixer_w + cfg.dac_w) * active_s
    trad_threshold = overhead + cfg.noise_w * active_s / cfg.pa_efficiency
    slots, warmup = cfg.num_slots, cfg.warmup_slots

    def back_count(n):
        return np.minimum(np.floor(n * harvest / back_threshold), n)

    battery = np.zeros(harvest.shape)  # the float recursion, slot by slot
    for slot in range(slots):
        battery += harvest
        active = battery >= back_threshold
        battery -= np.where(active, back_threshold, 0.0)
        disagree = np.argwhere(active != (back_count(slot + 1) > back_count(slot)))
        assert disagree.size == 0, (
            f"slot {slot}: floor(n h / r) and the float recursion disagree at "
            f"(topology, power, node) {tuple(disagree[0])}")

    running = np.add.accumulate(np.broadcast_to(harvest, (slots,) + harvest.shape), axis=0)
    reached = running >= trad_threshold
    period = np.where(reached.any(axis=0), reached.argmax(axis=0) + 1, slots + 1)
    counts = {NodeKind.BACKSCATTER: back_count(slots) - back_count(warmup),
              NodeKind.TRADITIONAL: slots // period - warmup // period}

    nodes = node_counts[:, None]
    active_fraction = netsim._run_kinds(cfg, *gains, node_counts)[1]
    for kind, count in counts.items():
        expected = np.where(nodes > 0, count.sum(axis=-1) / np.maximum(nodes, 1), math.nan)
        expected /= slots - warmup
        got = active_fraction[:, KINDS.index(kind)]
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected, err_msg=kind.value)
        assert 0.0 < np.nanmean(got) < 1.0  # neither all silent nor all active


def _unscreened(config, kind, pb_gain):
    """Every (topology, power, node) entry stepped through every slot as
    ``kind``, padded and never-active entries included: the ledger, and each
    (topology, power) population's active node-slots after the warm-up."""
    incident = dbm_to_watts(config.pb_power_dbm_sweep)[:, None] * pb_gain[:, None, :]
    ledger, step = ledger_stepper(
        incident, len(incident) if kind == NodeKind.BACKSCATTER else 0, config)
    measured = np.zeros(incident.shape[:2], dtype=np.int64)
    for slot in range(config.num_slots):
        active = step()[0]
        if slot >= config.warmup_slots:
            measured += active.sum(axis=-1)
    return ledger, measured


def _count_steps(monkeypatch):
    """Wrap netsim's ``slot_stepper``; the returned list gets one
    [tags, radios, steps taken] entry per stepper the sweep makes."""
    steppers = []

    def counted(battery, incident_w, num_tags, config):
        step = slot_stepper(battery, incident_w, num_tags, config)
        record = [num_tags, incident_w.size - num_tags, 0]
        steppers.append(record)

        def counted_step():
            record[2] += 1
            return step()
        return counted_step

    monkeypatch.setattr(netsim, "slot_stepper", counted)
    return steppers


# _run_kinds steps only the entries whose harvest alone reaches their kind's
# requirement by the last slot; the others would never turn on.
class TestScreen:
    @pytest.mark.parametrize("config_file,powers", [
        (None, None), ("fig3_dense.cfg", None), (None, (10.0,))])
    def test_screen_is_invisible(self, config_file, powers, monkeypatch):
        cfg = load_config(DATA / config_file) if config_file else ScenarioConfig()
        if powers:
            cfg = dataclasses.replace(cfg, pb_power_dbm_sweep=powers)
        nodes, counts = place_topologies(cfg, 50)
        gains = netsim._padded_gains(cfg, nodes, counts)
        steppers = _count_steps(monkeypatch)
        ber_samples = netsim._run_kinds(cfg, *gains, counts)[2]
        assert max(steps for *_, steps in steppers) == cfg.num_slots  # the per-slot stepper
        stepped = np.sum([entries for *entries, steps in steppers if steps], axis=0)
        for k, kind in enumerate(KINDS):
            ledger, measured = _unscreened(cfg, kind, gains[0])
            np.testing.assert_array_equal(ber_samples[:, k], measured, err_msg=kind.value)
            assert ledger.slots_active.any() == (stepped[k] > 0)
        # at 10 dBm no traditional radio ever turns on, so none is stepped
        tags, radios = stepped
        assert (radios > 0) == (powers is None) and tags > 0

    def test_boundary_is_inclusive(self):
        # the smallest beacon gain whose running harvest reaches the
        # requirement at the last slot, and the float just below it
        cfg = ScenarioConfig(pb_power_dbm_sweep=(30.0,))
        kind = NodeKind.TRADITIONAL

        def final_harvest(gain):
            harvested = slot_harvest(dbm_to_watts(np.array(cfg.pb_power_dbm_sweep)) * gain, cfg)
            running = np.zeros_like(harvested)
            for _ in range(cfg.num_slots):
                running += harvested
            return running[0], turn_on_energy(kind, cfg)[0]

        reached, required = final_harvest(1.0)
        gain = required / reached  # a few ulps from the boundary
        while final_harvest(gain)[0] >= required:
            gain = np.nextafter(gain, 0.0)
        while final_harvest(gain)[0] < required:
            gain = np.nextafter(gain, 1.0)
        reached = final_harvest(gain)[0]
        assert reached == required  # exactly, on this config
        below = np.nextafter(gain, 0.0)
        assert final_harvest(below)[0] < required

        pb_gain = np.array([[gain, below]])
        mean_ber, _, ber_samples = netsim._run_kinds(
            cfg, pb_gain, np.full((1, 2), 1e-4), np.zeros((1, 2, 2)), np.array([2]))
        k = KINDS.index(kind)
        ledger = _unscreened(cfg, kind, pb_gain)[0]
        assert ledger.slots_active.tolist() == [[[1, 0]]]
        assert ber_samples[:, k].tolist() == [[1]] and 0.0 <= mean_ber[0, k, 0] < 0.5
        assert ledger.battery_j[0, 0, 0] == 0.0  # a radio spends all it holds
        for each_k, each_kind in enumerate(KINDS):
            np.testing.assert_array_equal(ber_samples[:, each_k],
                                          _unscreened(cfg, each_kind, pb_gain)[1])

    @pytest.mark.parametrize("bad", [math.nan, -1e-12])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bad_incident_power_rejected(self, bad, kind):
        # a screen would drop such an entry silently, so the check comes
        # first; a stepper of this kind's entries alone checks the same
        # incident before any slot runs
        cfg = ScenarioConfig(pb_power_dbm_sweep=(25.0, 40.0), num_slots=40, warmup_slots=8)
        nodes, counts = place_topologies(cfg, 3)
        pb_gain, *rest = netsim._padded_gains(cfg, nodes, counts)
        pb_gain[0, 0] = bad
        with pytest.raises(ValueError, match="^incident_w"):
            netsim._run_kinds(cfg, pb_gain, *rest, counts)
        incident = dbm_to_watts(cfg.pb_power_dbm_sweep)[:, None] * pb_gain[:, None, :]
        battery = np.zeros(incident.shape)
        with pytest.raises(ValueError, match="^incident_w"):
            slot_stepper(battery, incident, len(incident) if kind == NodeKind.BACKSCATTER else 0,
                         cfg)
        assert not battery.any()
