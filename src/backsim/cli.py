"""Command-line experiment runner: parses the flags and writes every CSV.

Every experiment is deterministic for a fixed (config, seed): re-running
with identical flags reproduces the output file byte for byte. The summary
line goes to stdout, data only to the file.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .channel import dbm_to_watts, friis_gain
from .dyadic import simulate_dyadic_ber
from .energymodel import NodeKind, duty_cycle_harvest
from .mac import (count_interference_components, th_ss_collision_probability,
                  th_ss_collision_rate_mc)
from .netsim import run_comparison
from .phylink import energy_rate_frontier
from .scenario import (PURPOSE_FADING, PURPOSE_MAC, ScenarioConfig, derive_stream,
                       load_config)

BETA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DUTY_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
THSS_CASES = ((2, 10), (10, 100), (50, 10))
INTERFERENCE_KS = (1, 2, 5, 10, 20)
DYADIC_SNR_GRID = tuple(float(s) for s in range(0, 40, 5))
# Reference detection-limited link for the reflection-scaling sweep: a
# 12 dB SNR keeps every grid point's BER distinct in double precision.
BETA_REFERENCE_SNR = 10.0 ** (12.0 / 10.0)
# Largest --trials: thss takes about 0.46 s per 1e6 trials, so this bound
# is minutes, not days; fig3's gain-memory guard stops far fewer topologies.
MAX_TRIALS = 10**9


def _bounded_int(low, high):
    """argparse type: an integer in [low, high], else a usage error."""
    def integer(text):
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{value} is outside [{low}, {high}]")
        return value
    return integer


def parse_args(argv):
    """Parse CLI flags into an argparse namespace; usage errors exit with 2."""
    parser = argparse.ArgumentParser(
        prog="backsim",
        description="Run a backscatter-network experiment and write a CSV file.")
    parser.add_argument("--experiment", required=True, choices=list(_DISPATCH),
                        help="which experiment to run")
    parser.add_argument("--config", default=None,
                        help="flat key = value config file (defaults built in)")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=_bounded_int(0, 2**64 - 1), default=None,
                        help="master seed override (u64)")
    parser.add_argument("--trials", type=_bounded_int(1, MAX_TRIALS), default=None,
                        help="trial-count override (topologies or Monte Carlo draws)")
    return parser.parse_args(argv)


def _fig3_rows(config, trials):
    trials = 200 if trials is None else trials
    stats = [stat.tolist() for stat in run_comparison(config, num_topologies=trials)]
    rows = [f"{pb!r},{kind.value},{','.join(repr(s[k][p]) for s in stats)},{trials},{config.seed}"
            for p, pb in enumerate(config.pb_power_dbm_sweep) for k, kind in enumerate(NodeKind)]
    return ("pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,ci95_active,trials,seed",
            rows)


def _tradeoff_beta_rows(_config, _trials):
    frontier = energy_rate_frontier(BETA_GRID, BETA_REFERENCE_SNR)
    rows = [f"{beta!r},{harvested!r},{ber!r}"
            for beta, (harvested, ber) in zip(BETA_GRID, frontier)]
    return "beta,harvested_fraction,ber", rows


def _tradeoff_duty_rows(config, _trials):
    # Incident power of a mid-region node under a 40 dBm beacon.
    incident = float(dbm_to_watts(40.0)) * friis_gain(
        5.0, config.wavelength_m, config.aperture_m2, config.aperture_m2)
    rows = [f"{alpha!r},{duty_cycle_harvest(alpha, incident, config)!r},{alpha!r}"
            for alpha in DUTY_GRID]
    return "alpha,avg_harvest_w,relative_rate", rows


def _thss_rows(config, trials):
    n_trials = 100_000 if trials is None else trials
    rows = []
    for idx, (k, n) in enumerate(THSS_CASES):
        rng = derive_stream(config.seed, idx, PURPOSE_MAC)
        empirical = th_ss_collision_rate_mc(k, n, n_trials, rng)
        analytic = th_ss_collision_probability(k, n)
        rows.append(f"{k},{n},{n_trials},{empirical!r},{analytic!r}")
    return "k,n,trials,empirical_collision,analytic_collision", rows


def _interference_rows(_config, _trials):
    rows = [f"{k},{count_interference_components(k)}" for k in INTERFERENCE_KS]
    return "k,components_per_reader", rows


def _dyadic_rows(config, trials):
    n_trials = 200_000 if trials is None else trials
    rows = []
    for ell in (1, 2):
        rng = derive_stream(config.seed, ell, PURPOSE_FADING)
        curve = simulate_dyadic_ber(ell, 2, 2, DYADIC_SNR_GRID, n_trials, rng)
        rows.extend(f"{ell},2,{snr!r},{ber!r}" for snr, ber in curve)
    return "tag_antennas,rx_antennas,snr_db,ber", rows


_DISPATCH = {
    "fig3a": _fig3_rows,
    "fig3b": _fig3_rows,
    "tradeoff_beta": _tradeoff_beta_rows,
    "tradeoff_duty": _tradeoff_duty_rows,
    "thss": _thss_rows,
    "interference_count": _interference_rows,
    "dyadic": _dyadic_rows,
}


def run(args):
    """Run the experiment that ``parse_args`` returned, write its CSV, print a
    one-line summary."""
    if args.config:
        config = load_config(args.config)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    else:  # made, and so validated, once
        config = ScenarioConfig() if args.seed is None else ScenarioConfig(seed=args.seed)
    started = time.perf_counter()
    header, rows = _DISPATCH[args.experiment](config, args.trials)
    with open(args.out, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")
    elapsed = time.perf_counter() - started
    print(f"{args.experiment}: {len(rows)} rows, {elapsed:.2f} s, wrote {args.out}")
    return 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(args)
    except Exception as exc:  # config or experiment failure -> nonzero exit
        print(f"backsim: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
