"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9 --out summary.json [--compare earlier.json]

For every workload (all by default) and seed it runs run.py once, then
reports per metric the median, the quartiles of ``statistics.quantiles(n=4)``
and the spread (q3 - q1) / median, flagged when it is not below a third of
the metric's bound in BENCHMARK.json. ``--compare`` also flags every metric
whose median is worse than the earlier summary's by more than its bound.
baseline.json (end to end, seeds 0-9) and baseline_trace.json (per layer,
``--trace 1``, seeds 0-1) in this directory are such summaries of the seed
code, the first baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
    environment = next((json.loads(line.split(": ", 1)[1]) for line in lines
                        if line.startswith("environment: ")), None)
    return json.loads(lines[-1]) if lines else None, environment


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--compare", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    summary = {"seeds": args.seeds, "trace": args.trace, "seconds": spec["run_seconds"],
               "workloads": {}}
    flagged = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        runs = {"attempted": 0, "failed": 0, "incorrect": 0}
        for seed in seed_list(args.seeds):
            result, environment = run_once(workload, seed, spec["run_seconds"], args.trace)
            summary.setdefault("environment", environment)
            if result is None:
                runs["incorrect"] += 1
                continue
            runs["attempted"] += result["attempted"]
            runs["failed"] += result["failed"]
            runs["incorrect"] += not result["correct"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        stats = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        summary["workloads"][workload] = {"runs": runs, "metrics": stats}
        print(f"{workload}: {runs}")
        flagged += runs["incorrect"] + runs["failed"]
        for name, s in stats.items():
            bound = metrics[name].get("bound")
            notes = []
            if bound is not None and s["spread"] >= bound / 3:
                notes.append("spread >= bound/3")
            before = earlier.get(workload, {}).get("metrics", {}).get(name)
            if bound is not None and before:
                change = s["median"] / before["median"] - 1.0
                worse = -change if metrics[name]["better"] == "higher" else change
                notes.append(f"median {change:+.1%} vs earlier")
                if worse > bound:
                    notes.append("WORSE THAN BOUND")
            flagged += any(n in ("spread >= bound/3", "WORSE THAN BOUND") for n in notes)
            print(f"  {name:36s} median {s['median']:<12.6g} spread {s['spread']:6.2%}  "
                  + "; ".join(notes))
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
