"""Record the fig3 reference outputs the benchmark's oracle compares against.

Run from the repository root on the commit whose outputs are the reference
(the reference files in this directory were recorded from the seed code):

    python3 perfbench/record_reference.py

For every fig3 workload and every recorded seed it runs the CLI exactly as
the benchmark does, keeps the CSV, and counts the node-slots of the
generated inputs (nodes x slots x powers x 2 kinds, summed over topologies),
which the benchmark divides by run time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from workloads import (FIG3_WORKLOADS, HOLDOUT_SEED, REFERENCE_SEEDS, ROOT, fig3_argv,
                       reference_csv, reference_work)

sys.path.insert(0, str(ROOT / "src"))

from backsim import ScenarioConfig, derive_stream, load_config, place_nodes  # noqa: E402
from backsim.scenario import PURPOSE_PLACEMENT  # noqa: E402


def node_slots(workload, seed):
    spec = FIG3_WORKLOADS[workload]
    config = load_config(spec["config"]) if spec["config"] else ScenarioConfig().validate()
    nodes = sum(len(place_nodes(config, derive_stream(seed, t, PURPOSE_PLACEMENT)))
                for t in range(spec["topologies"]))
    return nodes * config.num_slots * len(config.pb_power_dbm_sweep) * 2


def main():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for workload in FIG3_WORKLOADS:
        work = {}
        for seed in [*range(REFERENCE_SEEDS), HOLDOUT_SEED]:
            out = reference_csv(workload, seed)
            out.parent.mkdir(parents=True, exist_ok=True)
            subprocess.run([sys.executable, "-m", "backsim.cli",
                            *fig3_argv(workload, seed, out)], env=env, check=True)
            work[str(seed)] = node_slots(workload, seed)
        reference_work(workload).write_text(json.dumps(work, indent=1) + "\n")


if __name__ == "__main__":
    main()
