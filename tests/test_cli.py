import contextlib
import dataclasses
import hashlib
import io
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from backsim import mac
from backsim.cli import MAX_TRIALS, THSS_CASES, main, parse_args, run
from backsim.scenario import ScenarioConfig

DATA = Path(__file__).parent / "data"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(name, out, *flags):
    """``run`` on parsed flags, so that an experiment's exception propagates."""
    return run(parse_args(["--experiment", name, "--out", str(out), *flags]))


# golden file -> (experiment, trial override); each was recorded by its
# experiment at the default config and seed (42)
GOLDENS = {
    "dyadic_seed42_t100000.csv": ("dyadic", 100_000),
    "tradeoff_beta_seed42.csv": ("tradeoff_beta", None),
    "tradeoff_duty_seed42.csv": ("tradeoff_duty", None),
    "thss_seed42.csv": ("thss", None),
    "interference_count_seed42.csv": ("interference_count", None),
}

SMALL_CONFIG = (
    "pb_power_dbm_sweep = 25, 40\n"
    "num_slots = 30\n"
    "warmup_slots = 5\n"
)


CONFIG_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)]
FLOAT_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type is float]
# Upper decades of the two keys that set the node count: a density of 0.1
# over a 30 m radius asks for about 280 nodes, a few MB of gain matrices
# for two topologies; every other float key spans the full 300 decades.
TOP_DECADE = {"node_density": -1.0, "region_radius": 1.5}


@st.composite
def _config_lines(draw):
    """One to three config keys set to extreme values: floats log-uniform over
    +-300 decades (either sign for dBm levels), sweep entries over +-5,000 dBm."""
    lines = []
    for key in draw(st.lists(st.sampled_from(FLOAT_KEYS + ["pb_power_dbm_sweep"]),
                             min_size=1, max_size=3, unique=True)):
        if key == "pb_power_dbm_sweep":
            powers = draw(st.lists(st.floats(-5000.0, 5000.0), min_size=1, max_size=3))
            lines.append(f"{key} = {', '.join(map(repr, powers))}")
            continue
        value = 10.0 ** draw(st.floats(-300.0, TOP_DECADE.get(key, 300.0)))
        if key.endswith("_dbm"):
            value *= draw(st.sampled_from([1.0, -1.0]))
        lines.append(f"{key} = {value!r}")
    return lines


@pytest.fixture
def small_config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestParseArgs:
    def test_defaults(self):
        args = parse_args(["--experiment", "fig3a", "--out", "r.csv"])
        assert vars(args) == {"experiment": "fig3a", "config": None, "out": "r.csv",
                              "seed": None, "trials": None}

    def test_all_flags(self):
        args = parse_args(["--experiment", "thss", "--config", "c.cfg", "--out", "o.csv",
                           "--seed", "7", "--trials", "1000"])
        assert args.experiment == "thss" and args.config == "c.cfg" and args.out == "o.csv"
        assert args.seed == 7 and args.trials == 1000

    def test_unknown_experiment_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            parse_args(["--experiment", "bogus", "--out", "r.csv"])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--experiment", "fig3a", "--out", "r.csv", "--frobnicate"])
        assert err.value.code == 2

    def test_malformed_numeric_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            parse_args(["--experiment", "fig3a", "--out", "r.csv", "--seed", "abc"])
        assert err.value.code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--trials", "0"), ("--trials", "-5"),
        ("--seed", "-1"), ("--seed", str(2**64)), ("--seed", "99999999999999999999999"),
    ])
    def test_out_of_range_count_is_usage_error(self, flag, value):
        with pytest.raises(SystemExit) as err:
            parse_args(["--experiment", "thss", "--out", "r.csv", flag, value])
        assert err.value.code == 2

    def test_largest_seed_accepted(self):
        args = parse_args(["--experiment", "thss", "--out", "r.csv", "--seed", str(2**64 - 1)])
        assert args.seed == 2**64 - 1

    def test_trials_ceiling(self, capsys):
        # the bound itself parses (it is not run here); one above is a usage
        # error that names the flag
        args = parse_args(["--experiment", "thss", "--out", "r.csv", "--trials", str(MAX_TRIALS)])
        assert args.trials == MAX_TRIALS == 10**9
        with pytest.raises(SystemExit) as err:
            parse_args(["--experiment", "thss", "--out", "r.csv",
                        "--trials", str(MAX_TRIALS + 1)])
        assert err.value.code == 2
        assert "--trials" in capsys.readouterr().err


class TestRun:
    def test_interference_count_table(self, tmp_path):
        out = tmp_path / "counts.csv"
        assert _run("interference_count", out) == 0
        assert out.read_text().splitlines() == [
            "k,components_per_reader", "1,0", "2,2", "5,20", "10,90", "20,380"]

    def test_fig3a_row_count_with_default_sweep(self, tmp_path, capsys):
        # default sweep: 9 power points x 2 kinds = 18 rows
        cfg = tmp_path / "fast.cfg"
        cfg.write_text("num_slots = 25\nwarmup_slots = 5\n")
        out = tmp_path / "fig3a.csv"
        assert _run("fig3a", out, "--config", str(cfg), "--trials", "2") == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 19
        summary = capsys.readouterr().out
        assert "18 rows" in summary and str(out) in summary

    @pytest.mark.parametrize("flags", [(), ("--seed", "3")], ids=["default-seed", "seed"])
    def test_default_config_validated_once(self, tmp_path, monkeypatch, flags):
        # the built-in config is made with its seed in one construction, so
        # a fig3 run pays for one validate() pass, not a second for the seed
        seeds = []
        validate = ScenarioConfig.validate

        def counting(config):
            seeds.append(config.seed)
            return validate(config)

        monkeypatch.setattr(ScenarioConfig, "validate", counting)
        assert _run("fig3a", tmp_path / "fig3a.csv", "--trials", "2", *flags) == 0
        assert seeds == [3 if flags else 42]

    def test_tradeoff_beta_grid(self, tmp_path):
        out = tmp_path / "beta.csv"
        assert _run("tradeoff_beta", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "beta,harvested_fraction,ber"
        betas = [float(l.split(",")[0]) for l in lines[1:]]
        assert betas == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_tradeoff_duty_grid(self, tmp_path):
        out = tmp_path / "duty.csv"
        assert _run("tradeoff_duty", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,avg_harvest_w,relative_rate"
        assert len(lines) == 7

    def test_thss_rows(self, tmp_path):
        out = tmp_path / "thss.csv"
        assert _run("thss", out, "--trials", "2000") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n,trials,empirical_collision,analytic_collision"
        cases = [tuple(map(int, l.split(",")[:2])) for l in lines[1:]]
        assert cases == [(2, 10), (10, 100), (50, 10)]

    def test_dyadic_rows(self, tmp_path):
        out = tmp_path / "dyadic.csv"
        assert _run("dyadic", out, "--trials", "100000") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tag_antennas,rx_antennas,snr_db,ber"
        ells = {int(l.split(",")[0]) for l in lines[1:]}
        assert ells == {1, 2}

    @pytest.mark.parametrize("golden", list(GOLDENS))
    def test_matches_golden(self, tmp_path, golden):
        name, trials = GOLDENS[golden]
        out = tmp_path / golden
        flags = [] if trials is None else ["--trials", str(trials)]
        assert _run(name, out, *flags) == 0
        assert out.read_bytes() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize("line,key", [
        ("noise_dbm = nan", "noise_dbm"),
        ("pb_power_dbm_sweep = 30, nan", "pb_power_dbm_sweep"),
        ("seed = 99999999999999999999999", "seed"),
        ("noise_dbm = 4000", "noise_dbm"),  # finite in dBm, inf in watts
        ("pb_power_dbm_sweep = 30, 4000", "pb_power_dbm_sweep"),
        ("region_radius = 1e300", "region_radius"),
        ("node_density = 1e300", "node_density"),
        ("carrier_hz = 1e-300", "carrier_hz"),
        ("rx_distance_m = 1e-300", "rx_distance_m"),
        ("rx_distance_m = 1e300", "rx_distance_m"),
        # durations whose energies or amplifier output overflow, and an
        # annulus whose area underflows to 0 expected nodes
        ("harvest_ms = 5e299\nactive_ms = 5e299\npb_power_dbm_sweep = 2000", "harvest_ms"),
        ("active_ms = 1e-270\nsense_energy_j = 1e273", "active_ms"),
        ("min_pb_distance_m = 1e-163\nregion_radius = 1e-162", "node_density"),
        # a lone link's SINR overflows against the -100 dBm noise floor
        ("node_density = 0.003\npb_power_dbm_sweep = 3100", "noise_dbm"),
    ])
    def test_out_of_range_config_fails_cleanly(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.csv"
        assert main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                     "--trials", "1"]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=60, deadline=None)
    @given(lines=_config_lines())
    @example(lines=["carrier_hz = 1e9", "aperture_m2 = 1e154"])  # Friis quotient overflows
    @example(lines=["node_density = 0.003", "pb_power_dbm_sweep = 3100"])  # SINR overflows
    def test_extreme_configs_run_or_name_a_key(self, lines):
        # a config the checks accept runs without a numeric warning, with NaN
        # only in rows where no link was ever active; any other names a key
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "fuzz.cfg", Path(tmp) / "o.csv"
            cfg.write_text("\n".join(lines) + "\n")
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                             "--trials", "2"])
            assert not caught, [str(w.message) for w in caught]
            if code == 1:
                assert any(key in err.getvalue() for key in CONFIG_KEYS), err.getvalue()
                return
            assert code == 0
            rows = out.read_text().splitlines()
        assert rows[0] == ("pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,"
                           "ci95_active,trials,seed")
        for row in rows[1:]:
            ber, ci_ber, frac, ci_frac = values = [float(v) for v in row.split(",")[2:6]]
            assert not any(map(math.isinf, values)), row
            if any(map(math.isnan, values)):  # no active link: never active, or no node
                assert math.isnan(ber) and not frac > 0.0, row

    @pytest.mark.parametrize("line,trials", [
        ("node_density = 1e6", "1"),          # about 3e8 expected nodes
        ("", "1000000000"),                   # 1e9 default topologies, the --trials bound
    ], ids=["node_density", "trials"])
    def test_gain_memory_guard_fails_before_placement(self, tmp_path, capsys, line, trials):
        # the gain matrices alone would need far more than any host's
        # memory, so the sweep refuses before placing a single node
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            code = main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                         "--trials", trials])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err
        assert "node_density" in err and "bytes" in err
        assert not out.exists()
        assert peak < 10e6

    def test_interference_overflow_names_a_key(self, tmp_path, capsys):
        # every emitter's power over the noise is finite, but their sum at a
        # receiver overflows: one error line naming keys, no CSV, no warnings
        cfg = tmp_path / "loud.cfg"
        cfg.write_text("pb_power_dbm_sweep = 3100\nnoise_dbm = 3050\naperture_m2 = 1e6\n"
                       "node_density = 0.1\n")
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out),
                         "--trials", "3"])
        assert code == 1
        assert not caught, [str(w.message) for w in caught]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "pb_power_dbm_sweep" in err[0], err
        assert not out.exists()

    def test_thss_memory_stays_one_frame_block(self, tmp_path):
        # ten blocks of frames: drawn at once, the 50-link case would hold
        # about 18 MB of slots and comparisons; drawn a block at a time, under 3 MB
        out = tmp_path / "thss.csv"
        tracemalloc.start()
        try:
            code = main(["--experiment", "thss", "--out", str(out),
                         "--trials", str(10 * mac._FRAME_BLOCK)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + len(THSS_CASES)
        assert peak < 3e6, f"peak allocation {peak} bytes"

    @pytest.mark.parametrize("text,message", [
        ("node_density 0.05\n", "1: expected 'key = value', got 'node_density 0.05'"),
        ("seed = 1\n# a comment\nseed = 2\n", "3: duplicate config key 'seed'"),
    ], ids=["no-equals", "duplicate"])
    def test_malformed_config_line_fails_cleanly(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "o.csv"
        assert main(["--experiment", "fig3a", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"backsim: error: {cfg}:{message}\n"
        assert not out.exists()

    def test_unreadable_config_fails_cleanly(self, tmp_path, capsys):
        spec_argv = ["--experiment", "fig3a", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(tmp_path / "o.csv")]
        assert main(spec_argv) == 1
        assert "error" in capsys.readouterr().err


class TestDeterminism:
    def test_seeded_reruns_are_byte_identical(self, tmp_path, small_config_file):
        digests = {}
        for name, trials in [("fig3a", 2), ("thss", 2000), ("dyadic", 100_000),
                             ("tradeoff_beta", None), ("interference_count", None)]:
            pair = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}.csv"
                flags = ["--seed", "42"]
                if name == "fig3a":
                    flags += ["--config", str(small_config_file)]
                if trials is not None:
                    flags += ["--trials", str(trials)]
                assert _run(name, out, *flags) == 0
                pair.append(_digest(out))
            digests[name] = pair
        for name, (a, b) in digests.items():
            assert a == b, f"{name} output changed between identical runs"

    def test_config_file_never_mutated(self, tmp_path, small_config_file):
        before = _digest(small_config_file)
        out = tmp_path / "o.csv"
        _run("fig3a", out, "--config", str(small_config_file), "--trials", "1")
        assert _digest(small_config_file) == before
