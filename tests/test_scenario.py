import ast
import importlib
import math
import re
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backsim.scenario import (PURPOSE_PLACEMENT, ScenarioConfig,
                              derive_stream, load_config, place_nodes, place_topologies)
from oracles import place_nodes_loop


def test_default_config_is_valid():
    cfg = ScenarioConfig()
    assert cfg.wavelength_m == pytest.approx(0.125)
    assert cfg.noise_w == pytest.approx(1e-13)
    assert cfg.expected_node_count == pytest.approx(0.02 * math.pi * 99.0, rel=1e-12)
    assert len(cfg.pb_power_dbm_sweep) == 9
    with pytest.raises(FrozenInstanceError):  # valid once made, valid for good
        cfg.noise_dbm = math.nan


def test_config_is_hashable_and_owns_its_sweep():
    sweep = [20.0, 30.0]
    cfg = ScenarioConfig(pb_power_dbm_sweep=sweep, seed=np.uint64(7))
    assert hash(cfg) == hash(ScenarioConfig(pb_power_dbm_sweep=(20.0, 30.0), seed=7))
    assert hash(ScenarioConfig()) == hash(ScenarioConfig())
    sweep.append(math.nan)  # the caller's list is not the config's
    assert cfg.pb_power_dbm_sweep == (20.0, 30.0)
    # numpy numbers pass as float fields and sweep entries
    assert ScenarioConfig(node_density=np.float32(0.02), noise_dbm=np.int64(-100),
                          pb_power_dbm_sweep=(np.int64(40),)).noise_w == pytest.approx(1e-13)


def _bad(field, value, case_id=None, **also):
    """A config setting ``field = value`` and ``also``, whose error names ``field``."""
    return pytest.param(field, {**also, field: value}, id=case_id or f"{field}-{value}")


@pytest.mark.parametrize("field,overrides", [
    _bad("node_density", 0.0),
    _bad("node_density", -1.0),
    _bad("harvest_efficiency", 1.5),
    _bad("pa_efficiency", 0.0),
    _bad("pa_efficiency", 2.0),
    _bad("min_pb_distance_m", 10.0),
    _bad("warmup_slots", 100),  # not smaller than num_slots
    _bad("noise_dbm", math.nan),
    _bad("carrier_hz", math.inf),
    _bad("dac_w", -1e-4),  # energymodel reads circuit draws unchecked
    # a list value has no readable auto id; this keeps the one the case has run under
    _bad("pb_power_dbm_sweep", [30.0, math.nan], "pb_power_dbm_sweep-value10"),
    # finite in dBm but not in watts: the engine would divide by 0 or inf
    _bad("noise_dbm", 4000.0),
    _bad("noise_dbm", -4000.0),
    _bad("pb_power_dbm_sweep", [30.0, 4000.0], "pb_power_dbm_sweep-4000.0"),
    _bad("seed", -1),
    _bad("seed", 2**64),
    # int fields take integers only: 42.5 would silently run seed 42, and
    # True seed 1, while the CSV's seed column names the value given
    _bad("seed", 42.5),
    _bad("seed", True),
    # so do float fields: True would run as 1.0, False as 0 dBm
    _bad("harvest_efficiency", True),
    _bad("noise_dbm", False),
    _bad("pb_power_dbm_sweep", [True, 40.0], "pb_power_dbm_sweep-True"),
    # a numpy float is checked for finiteness as a Python float is
    _bad("aperture_m2", np.float32(math.inf), "aperture_m2-float32-inf"),
    _bad("num_slots", 30.5),
    _bad("warmup_slots", 2.5),
    # finite fields whose derived quantities overflow, underflow or round away
    _bad("carrier_hz", 1e-300),  # wavelength inf
    _bad("carrier_hz", 1e300),  # wavelength squared 0
    _bad("region_radius", 1e300),  # area overflows
    _bad("node_density", 1e300),  # beyond the Poisson draw
    _bad("region_radius", 1e-162, "region_radius-1e-162-no-nodes",
         min_pb_distance_m=1e-163),  # annulus area underflows to 0
    _bad("rx_distance_m", 1e-300),  # receiver on its node
    _bad("rx_distance_m", 1e300),  # squared path overflows
    # slot durations that scale the engine's energies and powers to inf
    _bad("harvest_ms", 1e308),  # energy stored over the run
    _bad("pa_efficiency", 5e-324),  # traditional requirement, so amplifier output
    _bad("active_ms", 5e-324),  # active_s underflows to 0
    _bad("pb_power_dbm_sweep", [], "pb_power_dbm_sweep-empty"),
    _bad("num_slots", 0),
    _bad("warmup_slots", -1),
    # an integer beyond a float, so the stored-energy product overflows
    _bad("num_slots", 10**400, "num_slots-1e400"),
])
def test_invalid_configs_rejected(field, overrides, tmp_path):
    # every way of making a config runs the one check, which names the key
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**overrides)
    with pytest.raises(ValueError, match=field):
        replace(ScenarioConfig(), **overrides)
    path = tmp_path / "bad.cfg"
    path.write_text("".join(f"{key} = {str(value).strip('[]')}\n"
                            for key, value in overrides.items()))
    with pytest.raises(ValueError, match=field):
        load_config(path)


@pytest.mark.parametrize("field,overrides", [
    _bad("node_density", "0.02"), _bad("pb_power_dbm_sweep", ("40",), "pb_power_dbm_sweep-str")])
def test_strings_rejected(field, overrides):
    # a config file parses each value with its field's type, a caller's string goes as it is
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**overrides)


class TestPlaceNodes:
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
        cfg = ScenarioConfig()
        topo = place_nodes_loop(cfg, derive_stream(3, 0, PURPOSE_PLACEMENT), n=500)
        assert topo.shape == (500, 2, 2)
        r = np.hypot(topo[:, 0, 0], topo[:, 0, 1])
        assert np.all((cfg.min_pb_distance_m <= r) & (r <= cfg.region_radius))
        link = topo[:, 1] - topo[:, 0]
        rx_distance = np.hypot(link[:, 0], link[:, 1])
        assert np.all(np.abs(rx_distance - cfg.rx_distance_m) < 1e-12 * cfg.rx_distance_m)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), density=st.floats(0.001, 0.2))
    def test_matches_scalar_oracle(self, seed, density):
        # the array placement equals the per-node scalar loop bit for bit;
        # the loop given the drawn count skips that draw and makes the same
        # position draws
        cfg = ScenarioConfig(node_density=density, seed=seed)
        topo = place_nodes(cfg, derive_stream(seed, 0, PURPOSE_PLACEMENT))
        expected = place_nodes_loop(cfg, derive_stream(seed, 0, PURPOSE_PLACEMENT))
        assert topo.shape == expected.shape
        assert np.array_equal(topo, expected)
        rng = derive_stream(seed, 0, PURPOSE_PLACEMENT)
        rng.poisson(cfg.expected_node_count)
        assert np.array_equal(place_nodes_loop(cfg, rng, n=len(topo)), topo)


    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    @pytest.mark.parametrize("density", [0.02, 0.002], ids=["default", "sparse"])
    def test_batched_matches_per_topology(self, seed, density):
        # one pass over all topologies gives each topology the same bits as
        # place_nodes on its own stream; the sparse density leaves some empty
        cfg = ScenarioConfig(node_density=density, seed=seed)
        nodes, counts = place_topologies(cfg, 40)
        expected = [place_nodes(cfg, derive_stream(seed, t, PURPOSE_PLACEMENT))
                    for t in range(40)]
        assert counts.tolist() == [len(topo) for topo in expected]
        assert np.array_equal(nodes, np.concatenate(expected))
        if density < 0.01:
            assert 0 < (counts == 0).sum() < len(counts)


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
        assert cfg.pb_power_dbm_sweep == (20.0, 30.0, 40.0)
        assert cfg.noise_dbm == -95.0
        assert cfg.num_slots == 60 and cfg.warmup_slots == 10 and cfg.seed == 99
        # untouched fields keep their defaults
        assert cfg.harvest_ms == 20.0

    def test_readme_example_is_the_defaults(self, tmp_path):
        # README says omitted keys keep "the defaults above"; its example
        # file must therefore spell out exactly ScenarioConfig(), naming
        # every key
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Config files\n", 1)[1]
        block = section.split("```\n", 2)[1]
        path = tmp_path / "readme.cfg"
        path.write_text(block)
        loaded, defaults = load_config(path), ScenarioConfig()
        assert loaded == defaults
        # equality alone cannot see a mis-parse (100.0 == 100); types can
        assert list(map(type, vars(loaded).values())) == list(map(type, vars(defaults).values()))
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
        assert keys == {f.name for f in fields(ScenarioConfig)}

    def test_readme_layout_names_exist(self):
        # every `name(...)` call form in README's Layout table is an
        # attribute of that row's module, so a removed name cannot linger
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(backsim\.\w+)` \| (.*) \|$", table, re.M)
        assert len(rows) == 8
        for module, contents in rows:
            for name in re.findall(r"`(\w+)\(", contents):
                assert hasattr(importlib.import_module(module), name), (module, name)

    def test_readme_module_references_resolve(self):
        # every backticked `module.name` anywhere in README, with or without
        # the `backsim.` prefix, names a backsim module and an attribute of it
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        modules = {p.stem for p in Path(importlib.import_module("backsim").__file__)
                   .parent.glob("*.py")} - {"__init__"}
        checked = []
        for span in re.findall(r"`([^`\n]+)`", readme):
            parts = re.match(r"[\w.]*", span).group().split(".")
            if parts[0] == "backsim":
                parts = parts[1:]
            if len(parts) < 2 or parts[0] not in modules:
                continue
            obj = importlib.import_module(f"backsim.{parts[0]}")
            for name in parts[1:]:
                assert hasattr(obj, name), span
                obj = getattr(obj, name)
            checked.append(span)
        assert checked

    @staticmethod
    def _assert_rule_has_one_home(rule, helper_name):
        # the helper is found in whichever module defines it, and no line of
        # the package outside it spells ``rule``
        package = Path(importlib.import_module("backsim").__file__).parent
        sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
        [(home, helper)] = [(name, node) for name, text in sources.items()
                            for node in ast.parse(text).body
                            if isinstance(node, ast.FunctionDef) and node.name == helper_name]
        found = [(name, lineno) for name, text in sources.items()
                 for lineno, line in enumerate(text.splitlines(), start=1) if rule in line]
        assert found
        for name, lineno in found:
            assert name == home and helper.lineno <= lineno <= helper.end_lineno, (name, lineno)

    def test_integer_rule_has_one_home(self):
        # every integer argument is checked by _check_integers
        self._assert_rule_has_one_home("numbers.Integral", "_check_integers")

    def test_real_rule_has_one_home(self):
        # every real-number argument is checked by _check_reals
        self._assert_rule_has_one_home("numbers.Real", "_check_reals")

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelt key, and fixed_node_count and slot_ms, which are no
        # longer settings
        path = tmp_path / "bad.cfg"
        for line in ("node_densty = 0.05\n", "fixed_node_count = 3\n", "slot_ms = 100\n"):
            path.write_text(line)
            with pytest.raises(ValueError, match="unknown config key"):
                load_config(path)

    @pytest.mark.parametrize("text,message", [
        ("node_density 0.05\n", "1: expected 'key = value', got 'node_density 0.05'"),
        ("seed = 1\n# a comment\nseed = 2\n", "3: duplicate config key 'seed'"),
    ], ids=["no-equals", "duplicate"])
    def test_malformed_line_names_path_and_line(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{message}")):
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
        # the slot durations are bounded by the energies they scale, not by
        # a fixed slot: a long harvest alone is valid, a long harvest at a
        # huge beacon power stores more energy than a float holds
        path = tmp_path / "bad.cfg"
        path.write_text("harvest_ms = 1e280\n")
        assert load_config(path).harvest_s == pytest.approx(1e277)
        # longer still, the amplifier can store enough to overflow a lone link's SINR
        path.write_text("harvest_ms = 1e300\n")
        with pytest.raises(ValueError, match="pb_power_dbm_sweep and noise_dbm"):
            load_config(path)
        path.write_text("harvest_ms = 1e300\npb_power_dbm_sweep = 2000\n")
        with pytest.raises(ValueError, match="harvest_ms.*energy stored over the run"):
            load_config(path)
