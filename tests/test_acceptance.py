"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. The network-comparison experiment (criteria 1-3) runs once at
its full size (seed 42, 200 topology draws, default sweep) and is shared,
also with the check of the numbers README quotes from it.
"""

import hashlib
import math
import re
import time
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from backsim.channel import dbm_to_watts, friis_gain
from backsim.cli import parse_args, run as cli_run
from backsim.dyadic import simulate_dyadic_ber
from backsim.energymodel import duty_cycle_harvest, turn_on_energy
from backsim.mac import (count_interference_components,
                         th_ss_collision_probability, th_ss_collision_rate_mc)
from backsim.netsim import run_comparison
from backsim.phylink import energy_rate_frontier, q_function
from backsim.scenario import (NodeKind, PURPOSE_FADING, PURPOSE_MAC,
                              PURPOSE_PLACEMENT, ScenarioConfig, derive_stream)
from oracles import estimate_diversity_order, ledger_stepper, place_nodes_loop


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def fig3():
    """Full-size paired-population sweep: defaults, seed 42, 200 topologies."""
    config = ScenarioConfig()
    assert config.seed == 42
    started = time.perf_counter()
    stats = [stat.tolist() for stat in run_comparison(config, num_topologies=200)]
    elapsed = time.perf_counter() - started
    table = {(pb, kind): SimpleNamespace(mean_ber=stats[0][k][p], active_fraction=stats[2][k][p])
             for p, pb in enumerate(config.pb_power_dbm_sweep)
             for k, kind in enumerate(NodeKind)}
    return config, table, elapsed


def test_criterion_01_ber_trend(fig3):
    """Backscatter BER at most traditional BER at every beacon power, a
    10-1000x traditional/backscatter ratio at 40 dBm, within 2 minutes.

    Sweep points where a kind never produced an active link carry no BER
    estimate and cannot be compared; they are skipped by the ordering check.
    """
    config, table, elapsed = fig3
    ordered = True
    worst = ""
    for pb in config.pb_power_dbm_sweep:
        b = table[(pb, NodeKind.BACKSCATTER)].mean_ber
        t = table[(pb, NodeKind.TRADITIONAL)].mean_ber
        if math.isnan(b) or math.isnan(t):
            continue
        if b > t:
            ordered = False
            worst += f" [{pb:.0f} dBm: back {b:.3e} > trad {t:.3e}]"
    b40 = table[(40.0, NodeKind.BACKSCATTER)].mean_ber
    t40 = table[(40.0, NodeKind.TRADITIONAL)].mean_ber
    ratio = t40 / b40
    ok = ordered and 10.0 <= ratio <= 1000.0 and elapsed < 120.0
    _report(1, "BER trend and 40 dBm ratio", ok,
            f"(ratio at 40 dBm = {ratio:.3g}, runtime {elapsed:.1f} s{worst})")


def test_criterion_02_high_power_convergence(fig3):
    """Both BER curves meet at 50 dBm: log10 distance below 0.5."""
    _, table, _ = fig3
    b = table[(50.0, NodeKind.BACKSCATTER)].mean_ber
    t = table[(50.0, NodeKind.TRADITIONAL)].mean_ber
    gap = abs(math.log10(b) - math.log10(t))
    _report(2, "interference-floor convergence at 50 dBm", gap < 0.5,
            f"(|log10 gap| = {gap:.3f})")


def test_criterion_03_active_fraction_trend(fig3):
    """Active fractions nondecreasing in power; backscatter-traditional gap
    of 5-40 points at 30 dBm and 40-100 points at 40 dBm."""
    config, table, _ = fig3
    monotone = True
    for kind in (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL):
        fracs = [table[(pb, kind)].active_fraction for pb in config.pb_power_dbm_sweep]
        monotone &= all(a <= b for a, b in zip(fracs, fracs[1:]))
    gap30 = 100.0 * (table[(30.0, NodeKind.BACKSCATTER)].active_fraction
                     - table[(30.0, NodeKind.TRADITIONAL)].active_fraction)
    gap40 = 100.0 * (table[(40.0, NodeKind.BACKSCATTER)].active_fraction
                     - table[(40.0, NodeKind.TRADITIONAL)].active_fraction)
    ok = monotone and 5.0 <= gap30 <= 40.0 and 40.0 <= gap40 <= 100.0
    _report(3, "active-node percentage trend", ok,
            f"(gap 30 dBm = {gap30:.1f} pts, gap 40 dBm = {gap40:.1f} pts)")


def _sci(value, digits):
    """``value`` as README prints it: 1.38e-4, not 1.38e-04."""
    return re.sub(r"e([+-])0*(\d)", r"e\1\2", f"{value:.{digits}e}")


def test_readme_model_notes_numbers(fig3):
    """The thresholds, their ratio, shift and DAC-and-mixer share, and the fig3b
    active fractions that README's "Model notes" quotes are what the code gives."""
    config, table, _ = fig3
    radio = turn_on_energy(NodeKind.TRADITIONAL, config)[0]
    tag = turn_on_energy(NodeKind.BACKSCATTER, config)[0]
    share = (config.dac_w + config.mixer_w) * config.active_s / radio
    active = {(pb, kind): row.active_fraction for (pb, kind), row in table.items()}
    low_tag, low_radio = (_sci(active[key], 2) for key in [(10.0, NodeKind.BACKSCATTER),
                                                          (25.0, NodeKind.TRADITIONAL)])
    assert low_tag == low_radio  # README: "both read"
    quoted = [f"{_sci(radio, 1)} J", f"{_sci(tag, 1)} J", f"{radio / tag:.1f}×",
              f"{10.0 * math.log10(radio / tag):.1f} dB", f"{100.0 * share:.0f} %",
              f"at 25 dBm is {active[(25.0, NodeKind.BACKSCATTER)]:.3f}",
              f"at 40 dBm is {active[(40.0, NodeKind.TRADITIONAL)]:.3f}", f"both read {low_tag}"]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    notes = " ".join(readme.split("\n## Model notes\n", 1)[1].split())
    assert [text for text in quoted if text not in notes] == []


def test_criterion_04_q_function_accuracy():
    """Gaussian tail matches an independent high-precision erfc oracle to
    1e-12 absolute error on a 1601-point grid over [-8, 8], within 1 s."""
    started = time.perf_counter()
    grid = np.linspace(-8.0, 8.0, 1601)
    ours = q_function(grid)
    with mpmath.workdps(25):
        worst = max(abs(o - float(mpmath.erfc(x / mpmath.sqrt(2)) / 2))
                    for x, o in zip(grid, ours))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(4, "Gaussian tail accuracy", ok,
            f"(max abs error = {worst:.2e}, runtime {elapsed:.2f} s)")


def test_criterion_05_time_hopping_oracle():
    """Per-node collision frequency within 3 binomial standard errors of
    1 - (1 - 1/N)^(K-1) at three (K, N) settings, 1e5 trials each, in 10 s."""
    started = time.perf_counter()
    trials = 100_000
    detail = []
    ok = True
    for idx, (k, n) in enumerate(((2, 10), (10, 100), (50, 10))):
        rng = derive_stream(42, idx, PURPOSE_MAC)
        freq = th_ss_collision_rate_mc(k, n, trials, rng)
        p = th_ss_collision_probability(k, n)
        stderr = math.sqrt(p * (1.0 - p) / trials)
        ok &= abs(freq - p) < 3.0 * stderr
        detail.append(f"K={k},N={n}: {freq:.4f} vs {p:.4f}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _report(5, "time-hopping collision statistics", ok,
            f"({'; '.join(detail)}; runtime {elapsed:.1f} s)")


def test_criterion_06_interference_counting():
    """Exactly (K-1)*K first-order components per receiver; 2 at K=2."""
    expected = {1: 0, 2: 2, 5: 20, 10: 90, 20: 380}
    got = {k: count_interference_components(k) for k in expected}
    _report(6, "interference-component counting", got == expected, f"({got})")


def test_criterion_07_dyadic_diversity():
    """Fitted diversity slope 1 +/- 0.3 with one tag antenna and 2 +/- 0.5
    with two, 1e6 trials per point over the 25-35 dB window; the slope with
    one tag antenna stays within tolerance when the reader grows 2 -> 8
    receive antennas. Under 5 minutes.

    The estimator averages the exact conditional error probability given the
    backward-hop draw, so statistical resolution is certified by the
    per-point standard errors rather than by raw error counts.
    """
    started = time.perf_counter()
    grid = [25.0, 27.5, 30.0, 32.5, 35.0]
    trials = 1_000_000
    slopes = {}
    resolved = True
    for label, (ell, m_r) in {"L1": (1, 2), "L2": (2, 2), "L1_mr8": (1, 8)}.items():
        rng = derive_stream(42, 10 * ell + m_r, PURPOSE_FADING)
        curve = simulate_dyadic_ber(ell, 2, m_r, grid, trials, rng, with_stderr=True)
        resolved &= all(se < 0.1 * ber for _, ber, se in curve)
        slopes[label] = estimate_diversity_order([(s, b) for s, b, _ in curve])
    elapsed = time.perf_counter() - started
    ok = (abs(slopes["L1"] - 1.0) <= 0.3
          and abs(slopes["L2"] - 2.0) <= 0.5
          and abs(slopes["L1_mr8"] - 1.0) <= 0.3
          and resolved and elapsed < 300.0)
    _report(7, "dyadic diversity order", ok,
            f"(slopes: L=1 {slopes['L1']:.3f}, L=2 {slopes['L2']:.3f}, "
            f"L=1/8rx {slopes['L1_mr8']:.3f}; runtime {elapsed:.1f} s)")


def test_criterion_08_energy_conservation():
    """Cumulative harvested minus consumed equals the final battery to 1e-9
    relative error for every node, and batteries never go negative,
    checked each slot over full runs of both populations."""
    config = ScenarioConfig(num_slots=300, warmup_slots=20)
    topology = place_nodes_loop(config, derive_stream(config.seed, 0, PURPOSE_PLACEMENT), n=15)
    ok = True
    worst = 0.0
    pb_w = float(dbm_to_watts(40.0))
    lam, ap = config.wavelength_m, config.aperture_m2
    pb_distance = np.hypot(topology[:, 0, 0], topology[:, 0, 1])
    incident = pb_w * friis_gain(pb_distance, lam, ap, ap)
    for num_tags in (len(topology), 0):  # backscatter tags, then traditional radios
        ledger, step = ledger_stepper(incident, num_tags, config)
        for _ in range(config.num_slots):
            step()
            ok &= bool(np.all(ledger.battery_j >= 0.0))
        rel = np.abs(ledger.drift_j()) / np.maximum(ledger.harvested_j, 1e-30)
        worst = max(worst, float(rel.max()))
        ok &= bool(np.all(rel <= 1e-9))
    _report(8, "energy conservation", ok, f"(worst relative drift = {worst:.2e})")


def test_criterion_09_energy_rate_frontiers():
    """Along the reflection-scaling grid {0, .25, .5, .75, 1} and the duty
    grid {0, .2, ..., 1}: harvested quantity strictly decreases while the
    rate quantity strictly increases."""
    config = ScenarioConfig()
    frontier = energy_rate_frontier([0.0, 0.25, 0.5, 0.75, 1.0], 10**1.2)
    harvested = [h for h, _ in frontier]
    bers = [b for _, b in frontier]
    beta_ok = (all(a > b for a, b in zip(harvested, harvested[1:]))
               and all(a > b for a, b in zip(bers, bers[1:])))

    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    harvests = [duty_cycle_harvest(a, 1e-3, config) for a in alphas]
    rates = alphas  # the relative rate of a duty cycle is its active fraction
    duty_ok = (all(a > b for a, b in zip(harvests, harvests[1:]))
               and all(a < b for a, b in zip(rates, rates[1:])))
    _report(9, "energy-rate tradeoff frontiers", beta_ok and duty_ok,
            f"(scaling grid monotone: {beta_ok}, duty grid monotone: {duty_ok})")


def test_criterion_10_experiment_determinism(tmp_path):
    """Two runs of any experiment with identical flags produce byte-identical
    CSV files."""
    small_cfg = tmp_path / "fast.cfg"
    small_cfg.write_text("pb_power_dbm_sweep = 25, 40\nnum_slots = 30\nwarmup_slots = 5\n")
    settings = {
        "fig3a": (str(small_cfg), 2),
        "fig3b": (str(small_cfg), 2),
        "tradeoff_beta": (None, None),
        "tradeoff_duty": (None, None),
        "thss": (None, 5000),
        "interference_count": (None, None),
        "dyadic": (None, 100_000),
    }
    ok = True
    mismatched = []
    for name, (cfg, trials) in settings.items():
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}_{attempt}.csv"
            argv = ["--experiment", name, "--out", str(out), "--seed", "42"]
            argv += [] if cfg is None else ["--config", cfg]
            argv += [] if trials is None else ["--trials", str(trials)]
            status = cli_run(parse_args(argv))
            assert status == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        if digests[0] != digests[1]:
            ok = False
            mismatched.append(name)
    _report(10, "byte-identical reruns", ok,
            f"(experiments: {', '.join(settings)}{'; mismatch: ' + str(mismatched) if mismatched else ''})")
