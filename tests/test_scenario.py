import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backsim.scenario import (PURPOSE_PLACEMENT, ScenarioConfig,
                              derive_stream, load_config, place_nodes)
from oracles import place_nodes_loop


def test_default_config_is_valid():
    cfg = ScenarioConfig().validate()
    assert cfg.wavelength_m == pytest.approx(0.125)
    assert cfg.noise_w == pytest.approx(1e-13)
    assert cfg.expected_node_count == pytest.approx(0.02 * math.pi * 99.0, rel=1e-12)
    assert len(cfg.pb_power_dbm_sweep) == 9


@pytest.mark.parametrize("field,value", [
    ("node_density", 0.0),
    ("node_density", -1.0),
    ("harvest_efficiency", 1.5),
    ("pa_efficiency", 0.0),
    ("min_pb_distance_m", 10.0),
    ("harvest_ms", 30.0),          # breaks harvest + active = slot
    ("warmup_slots", 100),         # not smaller than num_slots
    ("noise_dbm", math.nan),
    ("carrier_hz", math.inf),
    ("min_pa_radiated_w", math.nan),
    ("pb_power_dbm_sweep", [30.0, math.nan]),
    ("seed", -1),
    ("seed", 2**64),
])
def test_invalid_configs_rejected(field, value):
    cfg = ScenarioConfig(**{field: value})
    with pytest.raises(ValueError):
        cfg.validate()


class TestPlaceNodes:
    def test_zero_density_rejected(self):
        with pytest.raises(ValueError):
            place_nodes(ScenarioConfig(node_density=0.0), derive_stream(1, 0, 0))

    def test_determinism(self):
        cfg = ScenarioConfig(seed=7)
        topo_a = place_nodes(cfg, derive_stream(cfg.seed, 0, PURPOSE_PLACEMENT))
        topo_b = place_nodes(cfg, derive_stream(cfg.seed, 0, PURPOSE_PLACEMENT))
        assert len(topo_a) == len(topo_b)
        assert np.array_equal(topo_a[:, 0], topo_b[:, 0])   # node positions
        assert np.array_equal(topo_a[:, 1], topo_b[:, 1])   # receiver positions

    def test_poisson_mean_matches(self):
        cfg = ScenarioConfig()
        rng = derive_stream(cfg.seed, 123, PURPOSE_PLACEMENT)
        counts = [len(place_nodes(cfg, rng)) for _ in range(10_000)]
        mean = cfg.expected_node_count
        stderr = math.sqrt(mean / len(counts))
        assert abs(np.mean(counts) - mean) < 3 * stderr

    def test_geometry_invariants(self):
        cfg = ScenarioConfig(fixed_node_count=500)
        topo = place_nodes(cfg, derive_stream(3, 0, PURPOSE_PLACEMENT))
        assert topo.shape == (500, 2, 2)
        r = np.hypot(topo[:, 0, 0], topo[:, 0, 1])
        assert np.all((cfg.min_pb_distance_m <= r) & (r <= cfg.region_radius))
        link = topo[:, 1] - topo[:, 0]
        rx_distance = np.hypot(link[:, 0], link[:, 1])
        assert np.all(np.abs(rx_distance - cfg.rx_distance_m) < 1e-12 * cfg.rx_distance_m)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), count=st.one_of(st.none(), st.integers(0, 40)),
           density=st.floats(0.001, 0.2))
    def test_matches_scalar_oracle(self, seed, count, density):
        # the array placement equals the per-node scalar loop bit for bit,
        # for pinned and Poisson node counts alike
        cfg = ScenarioConfig(node_density=density, fixed_node_count=count, seed=seed)
        topo = place_nodes(cfg, derive_stream(seed, 0, PURPOSE_PLACEMENT))
        expected = place_nodes_loop(cfg, derive_stream(seed, 0, PURPOSE_PLACEMENT))
        assert topo.shape == expected.shape
        assert np.array_equal(topo, expected)


class TestDeriveStream:
    def test_reproducible(self):
        a = derive_stream(42, 0, 0).random(16)
        b = derive_stream(42, 0, 0).random(16)
        assert np.array_equal(a, b)

    def test_pairwise_independence_smoke(self):
        x = derive_stream(42, 0, 0).random(100_000)
        y = derive_stream(42, 1, 0).random(100_000)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 0.01

    def test_distinct_purpose_tags(self):
        a = derive_stream(42, 0, 0).random(8)
        b = derive_stream(42, 0, 1).random(8)
        assert not np.array_equal(a, b)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(
            "# network experiment setup\n"
            "node_density = 0.05\n"
            "region_radius = 8\n"
            "pb_power_dbm_sweep = 20, 30, 40\n"
            "noise_dbm = -95  # receiver noise\n"
            "num_slots = 60\n"
            "warmup_slots = 10\n"
            "seed = 99\n"
        )
        cfg = load_config(path)
        assert cfg.node_density == 0.05
        assert cfg.region_radius == 8.0
        assert cfg.pb_power_dbm_sweep == [20.0, 30.0, 40.0]
        assert cfg.noise_dbm == -95.0
        assert cfg.num_slots == 60 and cfg.warmup_slots == 10 and cfg.seed == 99
        # untouched fields keep their defaults
        assert cfg.harvest_ms == 20.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_densty = 0.05\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config(path)

    def test_malformed_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("node_density = lots\n")
        with pytest.raises(ValueError, match="bad value"):
            load_config(path)

    @pytest.mark.parametrize("line,key", [
        ("noise_dbm = nan", "noise_dbm"),
        ("region_radius = inf", "region_radius"),
        ("pb_power_dbm_sweep = 30, nan", "pb_power_dbm_sweep"),
        ("seed = 99999999999999999999999", "seed"),
    ])
    def test_out_of_range_value_names_key(self, tmp_path, line, key):
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)

    def test_invariant_violation_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("harvest_ms = 50\n")
        with pytest.raises(ValueError):
            load_config(path)
