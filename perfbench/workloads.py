"""Workload definitions shared by run.py, child.py and the reference recorder.

A workload seed ``n`` from the command line selects the inputs:

- fig3 workloads run the CLI with ``--seed n % REFERENCE_SEEDS``, whose
  output CSVs were recorded from the seed code under ``reference/``. The
  held-out seed HOLDOUT_SEED is recorded too and runs only when asked for
  by name; keep it for confirming a claim, never for developing one.
- dyadic_diversity draws its fading streams from ``n`` directly; its oracle
  is a quadrature, so it needs no recorded output.
"""

from __future__ import annotations

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

REFERENCE_SEEDS = 16
HOLDOUT_SEED = 1701

# Criterion 7 of the acceptance suite: (tag antennas, receive antennas).
DYADIC_CURVES = ((1, 2), (2, 2), (1, 8))
DYADIC_READER_TX = 2
DYADIC_GRID = (25.0, 27.5, 30.0, 32.5, 35.0)
DYADIC_TRIALS = 1_000_000

# Each experiment is kept to a few seconds, so that run.py's calibration
# kernel runs often enough to follow the shared host's drift.
FIG3_WORKLOADS = {
    # The default config over 50 topologies of about 6 nodes, a quarter of
    # the acceptance size: many tiny topologies, so per-node Python calls
    # dominate.
    "fig3_default": {"config": None, "topologies": 50},
}
WORKLOADS = (*FIG3_WORKLOADS, "dyadic_diversity")


def config_seed(workload, seed):
    """The seed the program receives for a benchmark seed."""
    if workload not in FIG3_WORKLOADS or seed == HOLDOUT_SEED:
        return seed
    return seed % REFERENCE_SEEDS


def fig3_argv(workload, seed, out_path):
    """CLI arguments of one fig3 run: what a user types after ``backsim``."""
    spec = FIG3_WORKLOADS[workload]
    argv = ["--experiment", "fig3a", "--out", str(out_path), "--seed", str(seed)]
    if spec["config"] is not None:
        argv += ["--config", str(spec["config"])]
    return argv + ["--trials", str(spec["topologies"])]


def reference_csv(workload, seed):
    return REFERENCE_DIR / workload / f"seed_{seed}.csv"


def reference_work(workload):
    """Node-slots per recorded seed: nodes x slots x powers x 2 kinds."""
    return REFERENCE_DIR / workload / "node_slots.json"
