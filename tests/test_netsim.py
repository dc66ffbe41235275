import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from backsim import mac, netsim
from backsim.channel import dbm_to_watts, friis_gain
from backsim.cli import main
from backsim.netsim import CSV_HEADER, _mean_ci, run_comparison, run_population
from backsim.phylink import bpsk_ber
from backsim.scenario import (NodeKind, PURPOSE_BITLEVEL, PURPOSE_MAC, PURPOSE_PLACEMENT,
                              ScenarioConfig, derive_stream, place_nodes)
from oracles import interference_at, population_loop

KINDS = (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL)
DATA = Path(__file__).parent / "data"


def _topology(config, topo_index=0):
    rng = derive_stream(config.seed, topo_index, PURPOSE_PLACEMENT)
    return place_nodes(config, rng)


@st.composite
def _valid_configs(draw):
    """Random valid scenarios: density, efficiencies, slot split and powers."""
    slot_ms = draw(st.floats(1.0, 500.0))
    harvest_ms = slot_ms * draw(st.floats(0.01, 0.99))
    return ScenarioConfig(
        node_density=draw(st.floats(0.002, 0.1)),
        harvest_efficiency=draw(st.floats(0.01, 1.0)),
        pa_efficiency=draw(st.floats(0.01, 1.0)),
        slot_ms=slot_ms, harvest_ms=harvest_ms, active_ms=slot_ms - harvest_ms,
        sense_energy_j=draw(st.floats(1e-9, 1e-5)),
        digital_circuit_w=draw(st.floats(1e-7, 1e-4)),
        mixer_w=draw(st.floats(1e-7, 1e-3)),
        dac_w=draw(st.floats(1e-7, 1e-3)),
        num_slots=40, warmup_slots=5, seed=draw(st.integers(0, 2**32))).validate()


def _close(got, expected, rel=1e-12):
    """Equal to ``rel`` relative, with NaN only where the other is NaN."""
    if math.isnan(got) or math.isnan(expected):
        return math.isnan(got) and math.isnan(expected)
    return abs(got - expected) <= rel * max(abs(got), abs(expected))


class TestRunPopulation:
    def test_single_link_matches_closed_form(self):
        # One backscatter node, no interferers: every sample must equal the
        # hand-computed Q(sqrt(2 * signal / noise)) of its link budget.
        cfg = ScenarioConfig(fixed_node_count=1, num_slots=40, warmup_slots=5).validate()
        topo = _topology(cfg)
        res = run_population(cfg, NodeKind.BACKSCATTER, topo, pb_power_dbm=40.0)
        pb_distance = float(np.hypot(*topo[0, 0]))
        lam, ap = cfg.wavelength_m, cfg.aperture_m2
        signal = (float(dbm_to_watts(40.0))
                  * friis_gain(pb_distance, lam, ap, ap)
                  * friis_gain(cfg.rx_distance_m, lam, ap, ap))
        expected = float(bpsk_ber(signal / cfg.noise_w))
        assert res.ber_samples > 0
        assert res.mean_ber == pytest.approx(expected, rel=1e-12)

    def test_starved_network_has_no_samples(self):
        cfg = ScenarioConfig(fixed_node_count=6, num_slots=50, warmup_slots=10).validate()
        topo = _topology(cfg)
        res = run_population(cfg, NodeKind.BACKSCATTER, topo, pb_power_dbm=-20.0)
        assert res.active_fraction == 0.0
        assert res.ber_samples == 0
        assert math.isnan(res.mean_ber)

    def test_empty_topology_reports_absent(self):
        cfg = ScenarioConfig(fixed_node_count=0).validate()
        topo = _topology(cfg)
        assert topo.shape == (0, 2, 2)
        res = run_population(cfg, NodeKind.BACKSCATTER, topo, pb_power_dbm=40.0)
        assert math.isnan(res.mean_ber) and math.isnan(res.active_fraction)

    def test_energy_ledgers_conserved(self):
        cfg = ScenarioConfig(fixed_node_count=12, num_slots=150, warmup_slots=20).validate()
        topo = _topology(cfg, 3)
        for kind in (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL):
            ledger = run_population(cfg, kind, topo, pb_power_dbm=40.0).ledger
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
        cfg = ScenarioConfig(fixed_node_count=3, num_slots=40, warmup_slots=5).validate()
        topo = _topology(cfg)
        bad = dataclasses.replace(cfg, **{field: value})
        for kind in KINDS:
            with pytest.raises(ValueError, match=field):
                run_population(bad, kind, topo, pb_power_dbm=40.0)

    @settings(max_examples=40, deadline=None)
    @given(cfg=_valid_configs(), pb=st.floats(0.0, 60.0), kind=st.sampled_from(KINDS))
    def test_energy_conserved_for_any_valid_config(self, cfg, pb, kind):
        ledger = run_population(cfg, kind, _topology(cfg), pb).ledger
        assert np.all(np.abs(ledger.drift_j()) <= 1e-9 * ledger.harvested_j)

    @pytest.mark.parametrize("kind", [NodeKind.BACKSCATTER, NodeKind.TRADITIONAL])
    def test_interference_matches_mac_module(self, kind, monkeypatch):
        # Dual route: every interference vector netsim computes during a run
        # must match the scalar per-receiver sum over Friis gains; the same
        # mac function under TDMA and time-hopping co-slot masks must match
        # the scalar sum restricted to co-slot nodes.
        cfg = ScenarioConfig(fixed_node_count=5, num_slots=30, warmup_slots=2).validate()
        topo = _topology(cfg, 1)
        calls = []

        def recording(emitted_w, gain):
            # one population over one topology: a (1, 1, N) batch
            out = mac.aggregate_interference(emitted_w, gain)
            calls.append((emitted_w.reshape(-1).copy(), gain[0], out.reshape(-1)))
            return out

        monkeypatch.setattr(netsim, "aggregate_interference", recording)
        res = run_population(cfg, kind, topo, pb_power_dbm=42.0)
        assert len(calls) > 0 and res.ber_samples > 0
        for emitted, _, got in calls:
            for i in range(len(topo)):
                assert got[i] == pytest.approx(interference_at(i, topo, emitted, cfg), rel=1e-9)

        emitted, gain, _ = calls[-1]
        n = len(topo)
        for slots in (mac.tdma_schedule(n, n),
                      mac.th_ss_assign(n, 2, derive_stream(cfg.seed, 0, PURPOSE_MAC))):
            got = mac.aggregate_interference(emitted, gain * mac.co_slot_mask(slots))
            for i in range(n):
                expected = interference_at(i, topo, emitted, cfg, slots)
                assert got[i] == pytest.approx(expected, rel=1e-9)

    def test_bit_level_mode_matches_semi_analytic(self):
        # Energy dynamics are deterministic, so the bit-counting oracle sees
        # the same per-slot SINRs as run_population; its estimate must agree
        # with the Q-function average to within binomial error.
        cfg = ScenarioConfig(fixed_node_count=8, num_slots=60, warmup_slots=10).validate()
        topo = _topology(cfg, 4)
        semi = run_population(cfg, NodeKind.BACKSCATTER, topo, pb_power_dbm=45.0)
        bits = 2000
        counted_ber, _, counted_samples, _ = population_loop(
            cfg, NodeKind.BACKSCATTER, topo, 45.0,
            bit_level_rng=derive_stream(cfg.seed, 0, PURPOSE_BITLEVEL), bits_per_slot=bits)
        assert counted_samples == semi.ber_samples
        n_bits = semi.ber_samples * bits
        stderr = math.sqrt(max(semi.mean_ber * (1 - semi.mean_ber), 1e-12) / n_bits)
        assert abs(counted_ber - semi.mean_ber) < 5 * stderr + 1e-9

    def test_backscatter_active_set_dominates(self):
        cfg = ScenarioConfig(fixed_node_count=10, num_slots=100, warmup_slots=20).validate()
        topo = _topology(cfg, 2)
        for pb in (20.0, 30.0, 40.0, 50.0):
            back = run_population(cfg, NodeKind.BACKSCATTER, topo, pb)
            trad = run_population(cfg, NodeKind.TRADITIONAL, topo, pb)
            ever_back = set(np.flatnonzero(back.ledger.slots_active))
            ever_trad = set(np.flatnonzero(trad.ledger.slots_active))
            assert ever_trad <= ever_back
            assert np.all(back.ledger.slots_active >= trad.ledger.slots_active)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 12), pb=st.floats(20.0, 55.0),
           kind=st.sampled_from(KINDS), shuffle=st.permutations(range(12)))
    # At SINR ~ 100 the deep-tail BER magnifies rounding in the interference
    # sum by orders of magnitude, so the sum must not depend on node order.
    @example(seed=3, n=3, pb=30.0, kind=NodeKind.BACKSCATTER, shuffle=[1, 0, 2, *range(3, 12)])
    def test_invariant_to_node_order(self, seed, n, pb, kind, shuffle):
        cfg = ScenarioConfig(fixed_node_count=n, num_slots=30, warmup_slots=5,
                             seed=seed).validate()
        topo = _topology(cfg)
        order = [i for i in shuffle if i < n]  # a uniform permutation of the n nodes
        base = run_population(cfg, kind, topo, pb)
        shuffled = run_population(cfg, kind, topo[order], pb)
        assert _close(shuffled.mean_ber, base.mean_ber)
        assert _close(shuffled.active_fraction, base.active_fraction)
        assert shuffled.ber_samples == base.ber_samples
        for name, flows in vars(base.ledger).items():
            assert np.array_equal(getattr(shuffled.ledger, name), flows[order])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 12), kind=st.sampled_from(KINDS),
           powers=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=4))
    def test_activity_monotone_in_beacon_power(self, seed, n, kind, powers):
        cfg = ScenarioConfig(fixed_node_count=n, num_slots=60, warmup_slots=10,
                             seed=seed).validate()
        topo = _topology(cfg)
        slots = [run_population(cfg, kind, topo, pb).ledger.slots_active
                 for pb in sorted(powers)]
        for lower, higher in zip(slots, slots[1:]):
            assert np.all(lower <= higher)


class TestRunComparison:
    @pytest.fixture
    def small_config(self):
        return ScenarioConfig(pb_power_dbm_sweep=[25.0, 40.0], num_slots=40,
                              warmup_slots=8, seed=11).validate()

    def test_deterministic(self, small_config):
        a = run_comparison(small_config, num_topologies=4)
        b = run_comparison(small_config, num_topologies=4)
        assert a == b

    def test_sweep_layout(self, small_config):
        results = run_comparison(small_config, num_topologies=3)
        assert len(results) == 4  # 2 powers x 2 kinds
        assert [r.pb_power_dbm for r in results] == [25.0, 25.0, 40.0, 40.0]
        assert [r.kind for r in results] == [NodeKind.BACKSCATTER, NodeKind.TRADITIONAL] * 2
        for r in results:
            assert r.trials == 3
            assert r.seed == small_config.seed
            assert 0.0 <= r.active_fraction <= 1.0
            if not math.isnan(r.mean_ber):
                assert 0.0 <= r.mean_ber <= 0.5
                assert r.ci95_ber >= 0.0

    @pytest.mark.parametrize("overrides,empty", [
        ({"node_density": 0.05}, "none"),     # about 16 nodes: padded rows exceed 8
        ({"node_density": 0.002}, "some"),    # about 0.6 nodes per topology
        ({"fixed_node_count": 0}, "all"),     # every row NaN
    ], ids=["normal", "sparse", "no_nodes"])
    def test_matches_per_population_oracle(self, overrides, empty):
        # The batched sweep must equal the unbatched per-population loop,
        # aggregated the same way, up to summation order.
        cfg = ScenarioConfig(pb_power_dbm_sweep=[20.0, 35.0, 45.0], num_slots=30,
                             warmup_slots=6, seed=9, **overrides).validate()
        num_topologies = 8
        topologies = [_topology(cfg, t) for t in range(num_topologies)]
        empties = sum(len(topo) == 0 for topo in topologies)
        assert {"none": empties == 0 and max(map(len, topologies)) > 8,
                "some": 0 < empties < num_topologies,
                "all": empties == num_topologies}[empty]
        results = run_comparison(cfg, num_topologies=num_topologies)
        expected = []
        for pb in cfg.pb_power_dbm_sweep:
            for kind in KINDS:
                runs = [population_loop(cfg, kind, topo, pb) for topo in topologies]
                expected.append((pb, kind, *_mean_ci([r[0] for r in runs]),
                                 *_mean_ci([r[1] for r in runs])))
        assert len(results) == len(expected)
        for r, (pb, kind, ber, ci_ber, frac, ci_frac) in zip(results, expected):
            assert (r.pb_power_dbm, r.kind) == (pb, kind)
            for got, want in ((r.mean_ber, ber), (r.ci95_ber, ci_ber),
                              (r.active_fraction, frac), (r.ci95_active, ci_frac)):
                assert _close(got, want), (pb, kind, got, want)
        if empty == "all":
            assert all(math.isnan(r.mean_ber) and math.isnan(r.active_fraction)
                       for r in results)

    def test_csv_schema(self, small_config, tmp_path):
        results = run_comparison(small_config, num_topologies=2)
        cfg = tmp_path / "small.cfg"
        cfg.write_text("pb_power_dbm_sweep = 25, 40\nnum_slots = 40\nwarmup_slots = 8\n"
                       "seed = 11\n")
        out = tmp_path / "sweep.csv"
        assert main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                     "--trials", "2"]) == 0
        lines = out.read_text().splitlines()
        assert lines[1:] == [r.csv_row() for r in results]
        assert lines[0] == CSV_HEADER
        assert lines[0] == "pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,ci95_active,trials,seed"
        assert len(lines) == 1 + len(results)
        first = lines[1].split(",")
        assert first[1] in ("backscatter", "traditional")
        # shortest round-trip decimals parse back exactly
        assert float(first[0]) == results[0].pb_power_dbm


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
