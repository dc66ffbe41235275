"""backsim benchmark: end-to-end and per-layer numbers for two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fig3_default --seed 3 --seconds 40 --trace 0

Workloads (see workloads.py for their inputs):

- ``fig3_default``: ``backsim --experiment fig3a`` with the default config
  over 50 topologies.
- ``dyadic_diversity``: acceptance criterion 7's three curves through
  ``simulate_dyadic_ber``, 1e6 trials per point; no netsim at all.

Every experiment runs in a fresh process (child.py) whose timestamps split
set-up from the run, and whose resource usage, read with ``wait4``, covers
the process and any pool workers. Every output is checked (oracle.py);
repeated runs of one seed must also produce identical bytes.

The host has few cores and shares them, so every benchmark process runs
one thread of work: ``BACKSIM_THREADS=1`` (no process pool) and one BLAS
thread, pinned with this process to one CPU. The host's speed also drifts by tens of percent over minutes, so in
``--trace 0`` the fixed kernel of calibrate.py is timed KERNEL_REPEATS
times in this process between benchmark processes, and each process's times
are scaled by REFERENCE_S / (median of the kernel times just before and
just after it), to seconds at the kernel's reference speed (see
calibrate.py). Experiments are kept short so that the kernel runs often.
result.json keeps the unscaled times and the scale of every sample.

``--trace 0`` repeats the untraced experiment until ``--seconds`` have
passed and reports medians of:

- ``setup_s``: process launch until the experiment starts (interpreter,
  ``import backsim``, config load and validate), over the experiment
  processes plus SETUP_PROBES processes that only set up;
- ``run_s``: experiment start until its output is written;
- ``work_per_s``: node-slots (nodes x slots x powers x 2 kinds, counted from
  the generated inputs) per second of ``run_s`` for fig3, Monte Carlo trials
  (curves x SNR points x trials) per second for dyadic;
- ``cpu_s``: user plus system CPU of the process and any pool workers;
- ``peak_rss_mb``: peak resident memory of the benchmark process (VmHWM).

All times but ``peak_rss_mb`` are scaled host seconds.

``--trace 1`` runs untraced and traced experiments in pairs, unscaled, until
``--seconds`` have passed and at least two traced runs were made. It reports
the per-layer counts and times of child.py's ``layer_metrics`` (medians for
times; counts must repeat exactly between the traced runs, or the run fails)
and the tracing overhead against the untraced runs at the same worker count.
The spans of each traced run stay in its ``NNN_record.json`` in the work
directory.

Failed processes and failed output checks count in ``failed``; the fail
rate is ``failed / attempted``. The environment goes to stdout before the
result line, and everything, samples included, to
``.perfbench_work/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One thread of work per process; set before numpy is imported here or in a
# benchmark process, which inherits the environment.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
os.environ["BACKSIM_THREADS"] = "1"

from calibrate import REFERENCE_S, kernel_s  # noqa: E402
from workloads import (DYADIC_CURVES, DYADIC_GRID, DYADIC_TRIALS, FIG3_WORKLOADS, ROOT,
                       WORKLOADS, config_seed, fig3_argv, reference_work)  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 3
KERNEL_REPEATS = 3
MIN_TRACED_RUNS = 2
CHILD_TIMEOUT_S = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")
    return args


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _wait(proc, deadline):
    """Reap ``proc`` and return its rusage, which includes its reaped workers."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"child {proc.pid} ran past {CHILD_TIMEOUT_S} s")
        time.sleep(0.005)


class Bench:
    def __init__(self, workload, seed, work_dir, scaled):
        self.workload = workload
        self.scaled = scaled
        self.kernels = []
        self.kind = "fig3" if workload in FIG3_WORKLOADS else "dyadic"
        self.seed = config_seed(workload, seed)
        self.work_dir = work_dir
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_output = None
        self.config = FIG3_WORKLOADS.get(workload, {}).get("config")
        if self.kind == "fig3":
            from oracle import check_fig3
            self.work = json.loads(reference_work(workload).read_text())[str(self.seed)]
            self.check = lambda text: check_fig3(workload, self.seed, text)
        else:
            from oracle import check_dyadic, dyadic_reference
            reference = dyadic_reference()
            self.work = len(DYADIC_CURVES) * len(DYADIC_GRID) * DYADIC_TRIALS
            self.check = lambda text: check_dyadic(text, reference)

    def warm_up(self):
        """One unmeasured set-up, so that bytecode caches exist (and the kernel
        has run) before timing."""
        self.launch("setup")
        self.attempted = self.failed = 0
        self.problems.clear()

    def calibrate(self):
        """Time the calibration kernel KERNEL_REPEATS times."""
        self.kernels = [kernel_s() for _ in range(KERNEL_REPEATS)]
        return self.kernels

    def launch(self, mode):
        """Run one child process; return its sample, or None if it failed.

        When scaled, the sample's times are in seconds at the kernel's
        reference speed, measured just before and just after the process."""
        if self.scaled:
            before = self.kernels or self.calibrate()
        n = self.count
        self.count += 1
        files = {k: self.work_dir / f"{n:03d}_{k}" for k in ("spec.json", "record.json",
                                                               "out.csv", "log.txt")}
        spec = {"mode": mode, "kind": self.kind, "seed": self.seed, "src": str(SRC),
                "out": str(files["out.csv"]), "record": str(files["record.json"]),
                "argv": (fig3_argv(self.workload, self.seed, files["out.csv"])
                         if self.kind == "fig3" else None),
                "config": str(self.config) if self.config else None}
        files["spec.json"].write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

        self.attempted += 1
        with open(files["log.txt"], "w") as log:
            launched = time.monotonic()
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                     str(files["spec.json"])], cwd=ROOT, env=env,
                                    stdout=log, stderr=subprocess.STDOUT,
                                    start_new_session=True)
            try:
                usage = _wait(proc, launched + CHILD_TIMEOUT_S)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        scale = 1.0
        if self.scaled:
            scale = REFERENCE_S / statistics.median(before + self.calibrate())
        problems = self._problems(proc.returncode, files)
        if problems:
            self.failed += 1
            self.problems.append({"process": n, "mode": mode, "problems": problems[:10]})
            return None
        record = json.loads(files["record.json"].read_text())
        sample = {"scale": scale, "host_setup_s": record["t_ready"] - launched}
        if mode != "setup":
            sample.update(host_run_s=record["t_end"] - record["t_ready"],
                          host_cpu_s=usage.ru_utime + usage.ru_stime,
                          peak_rss_mb=record["peak_rss_mb"],
                          layers=record.get("layers"))
        for key in ("setup_s", "run_s", "cpu_s"):
            if "host_" + key in sample:
                sample[key] = sample["host_" + key] * scale
        return sample

    def _problems(self, returncode, files):
        if returncode != 0 or not files["record.json"].is_file():
            tail = files["log.txt"].read_text().splitlines()[-3:]
            return [f"exit code {returncode}", *tail]
        record = json.loads(files["record.json"].read_text())
        if "rc" not in record:
            return []
        if record["rc"] != 0:
            return [f"experiment returned {record['rc']}",
                    *files["log.txt"].read_text().splitlines()[-3:]]
        if not files["out.csv"].is_file():
            return ["no output written"]
        text = files["out.csv"].read_text()
        problems = self.check(text)
        if self.first_output is None:
            self.first_output = text
        elif text != self.first_output:
            problems.append("output differs from the first run of this seed")
        return problems


def median(samples, key):
    return statistics.median(s[key] for s in samples)


def measure_plain(bench, seconds):
    setups = [bench.launch("setup") for _ in range(SETUP_PROBES)]
    samples = []
    started = time.monotonic()
    while not samples or time.monotonic() - started < seconds:
        samples.append(bench.launch("plain"))
    setups = [s for s in setups + samples if s is not None]
    samples = [s for s in samples if s is not None]
    if not samples or not setups:
        return {}, {"experiments": 0}
    for sample in samples:
        sample["work_per_s"] = bench.work / sample["run_s"]
    metrics = {key: median(samples, key)
               for key in ("run_s", "work_per_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = median(setups, "setup_s")
    return metrics, {"experiments": len(samples), "setups": len(setups),
                     **{key: [s[key] for s in samples]
                        for key in ("run_s", "host_run_s", "cpu_s", "host_cpu_s")},
                     **{key: [s[key] for s in setups]
                        for key in ("setup_s", "host_setup_s", "scale")}}


def measure_traced(bench, seconds, units):
    base, traced = [], []
    started = time.monotonic()
    while len(traced) < MIN_TRACED_RUNS or time.monotonic() - started < seconds:
        base.append(bench.launch("plain"))
        traced.append(bench.launch("trace"))
    base = [s for s in base if s is not None]
    traced = [s for s in traced if s is not None]
    if not base or not traced:
        return {}, {"experiments": 0}
    layers = [s["layers"] for s in traced]
    times = [key for key in layers[0] if units[key] == "s"]
    metrics = {key: statistics.median(layer[key] for layer in layers) for key in times}
    counts = {key: value for key, value in layers[0].items() if key not in times}
    metrics.update(counts)
    for n, layer in enumerate(layers[1:], start=1):
        differ = [f"{key} = {layer[key]}, first traced run had {value}"
                  for key, value in counts.items() if layer[key] != value]
        if differ:
            bench.failed += 1
            bench.problems.append({"traced_run": n, "problems": differ})
    metrics["trace.run_s"] = median(traced, "run_s")
    metrics["trace.base_run_s"] = median(base, "run_s")
    metrics["trace.overhead"] = metrics["trace.run_s"] / metrics["trace.base_run_s"] - 1.0
    return metrics, {"experiments": len(base) + len(traced),
                     "traced_run_s": [s["run_s"] for s in traced],
                     "base_run_s": [s["run_s"] for s in base]}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    # Turn SIGTERM into an exception so that launch() kills the running child
    # and its pool workers before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "backsim" / "__init__.py").is_file():
        print(f"perfbench: no backsim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    # This process and every benchmark process share one CPU, so that the
    # calibration kernel measures the CPU the experiments run on.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    import numpy
    import scipy
    work_dir = WORK_ROOT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    bench = Bench(args.workload, args.seed, work_dir, scaled=not args.trace)
    environment = {
        "workload": args.workload, "seed": args.seed, "config_seed": bench.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": git_commit(),
        "nproc": os.cpu_count(), "cpu": cpu,
        "workers": int(os.environ["BACKSIM_THREADS"]),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }

    bench.warm_up()
    if args.trace:
        metrics, detail = measure_traced(bench, args.seconds, units)
    else:
        metrics, detail = measure_plain(bench, args.seconds)
        if detail["experiments"]:
            environment["host_speed"] = statistics.median(detail["scale"])

    correct = bench.failed == 0 and set(metrics) == set(units)
    result = {"correct": correct, "attempted": bench.attempted, "failed": bench.failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    (work_dir / "result.json").write_text(json.dumps(
        {"environment": environment, "detail": detail, "problems": bench.problems,
         **result}, indent=1) + "\n")
    for problem in bench.problems:
        print(f"perfbench: {json.dumps(problem)}", file=sys.stderr)
    print("environment: " + json.dumps(environment))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
