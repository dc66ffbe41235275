"""One benchmark process: set up backsim, run one workload, record timings.

Started by run.py in a fresh interpreter as ``child.py SPEC_JSON``. The spec
names the mode:

- ``setup``: import backsim and load and validate the config, then stop;
- ``plain``: set up, then run the experiment untraced;
- ``trace``: set up, wrap backsim's public functions with the tracer, run the
  experiment in this one process and record per-layer counts, times and
  spans.

The record (monotonic timestamps, exit code, layers, spans) is written to the
spec's ``record`` path as JSON. Timestamps use CLOCK_MONOTONIC, which is
shared by all processes, so the parent subtracts its own launch time.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from workloads import DYADIC_CURVES, DYADIC_GRID, DYADIC_READER_TX, DYADIC_TRIALS


def run_fig3(backsim, spec, tracer):
    return backsim.cli.main(spec["argv"])


def run_dyadic(backsim, spec, tracer):
    from backsim.scenario import PURPOSE_FADING
    rows = ["tag_antennas,rx_antennas,snr_db,ber,stderr"]
    for ell, m_r in DYADIC_CURVES:
        rng = backsim.derive_stream(spec["seed"], 10 * ell + m_r, PURPOSE_FADING)
        if tracer is not None:
            from tracer import CountingGenerator
            rng = CountingGenerator(rng, tracer)
        curve = backsim.simulate_dyadic_ber(ell, DYADIC_READER_TX, m_r, DYADIC_GRID,
                                            DYADIC_TRIALS, rng, with_stderr=True)
        rows.extend(f"{ell},{m_r},{snr!r},{ber!r},{se!r}" for snr, ber, se in curve)
    Path(spec["out"]).write_text("\n".join(rows) + "\n")
    return 0


def layer_metrics(tracer, spec):
    """Per-layer numbers of one traced run, named as in BENCHMARK.json.

    Which end-to-end metric each group should move, and where:

    - scenario.*: run_s on fig3_*, slightly;
    - channel.*: run_s on fig3_*, small today;
    - energymodel.*: run_s and work_per_s on fig3_default; nothing on
      dyadic_diversity;
    - phylink.*: run_s on fig3_default (per-slot calls on small arrays);
    - netsim.*: run_s on fig3_default;
    - dyadic.*: work_per_s on dyadic_diversity only;
    - cli.*: setup_s and run_s on fig3_*, negligible today.

    Counts are zero on a workload that does not reach the layer, or once the
    wrapped function is no longer called.
    """
    def get(name, key="calls"):
        return tracer.counters.get(name, {}).get(key, 0)

    steps = get("energymodel.step_slot")
    out = {
        "scenario.place_nodes.calls": get("scenario.place_nodes"),
        "scenario.place_nodes.s": get("scenario.place_nodes", "s"),
        "scenario.nodes": get("scenario.place_nodes", "nodes"),
        "scenario.empty_topologies": get("scenario.place_nodes", "empty"),
        "channel.friis_gain.calls": get("channel.friis_gain"),
        "channel.friis_gain.s": get("channel.friis_gain", "s"),
        "energymodel.step_slot.calls": steps,
        "energymodel.step_slot.s": get("energymodel.step_slot", "s"),
        "energymodel.active_node_slots": get("energymodel.step_slot", "active"),
        "energymodel.active_share": get("energymodel.step_slot", "active") / steps if steps else 0.0,
        "phylink.bpsk_ber.calls": get("phylink.bpsk_ber"),
        "phylink.bpsk_ber.s": get("phylink.bpsk_ber", "s"),
        "phylink.bpsk_ber.values": get("phylink.bpsk_ber", "values"),
        "netsim.run_population.calls": get("netsim.run_population"),
        "netsim.run_population.self_s": tracer.self_time("netsim.run_population"),
        "netsim.node_slots": get("netsim.run_population", "node_slots"),
        "netsim.active_link_slots": get("netsim.run_population", "active_link_slots"),
        "netsim.aggregate_s": tracer.self_time("netsim.run_comparison"),
        "dyadic.simulate_dyadic_ber.calls": get("dyadic.simulate_dyadic_ber"),
        "dyadic.simulate_dyadic_ber.self_s": tracer.self_time("dyadic.simulate_dyadic_ber"),
        "dyadic.rng_calls": get("dyadic.rng"),
        "dyadic.rng_values": get("dyadic.rng", "values"),
        "dyadic.rng_s": get("dyadic.rng", "s"),
        "dyadic.trials": get("dyadic.simulate_dyadic_ber", "trials"),
        "cli.load_s": 0.0,
        "cli.write_s": 0.0,
        "cli.rows": 0,
        "trace.spans": len(tracer.spans),
    }
    # The CLI's own config load and CSV write: the parts of the experiment
    # span before the first and after the last run_comparison span.
    sweeps = tracer.spans_named("netsim.run_comparison")
    if spec["kind"] == "fig3" and sweeps:
        (experiment,) = tracer.spans_named("experiment")
        out["cli.load_s"] = sweeps[0][3] - experiment[3]
        out["cli.write_s"] = experiment[4] - sweeps[-1][4]
        out["cli.rows"] = len(Path(spec["out"]).read_text().splitlines()) - 1
    return out


def peak_rss_mb():
    """Peak resident memory of this process since its exec.

    ``wait4``'s ru_maxrss would also count the launching process's memory,
    which the kernel carries over from before the exec."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    import backsim
    src = Path(spec["src"]).resolve()
    if src not in Path(backsim.__file__).resolve().parents:
        raise SystemExit(f"backsim was imported from {backsim.__file__}, not from {src}")
    if spec["kind"] == "fig3":
        import backsim.cli  # noqa: F401  (the entry point users run)
        if spec["config"]:
            backsim.load_config(spec["config"])
        else:
            backsim.ScenarioConfig().validate()

    tracer = None
    if spec["mode"] == "trace":
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    record = {"t_ready": time.monotonic()}
    if spec["mode"] != "setup":
        run = run_fig3 if spec["kind"] == "fig3" else run_dyadic
        if tracer is None:
            record["rc"] = run(backsim, spec, None)
        else:
            record["rc"] = tracer.run_span("experiment", run, backsim, spec, tracer)
        record["t_end"] = time.monotonic()
        if tracer is not None:
            record["layers"] = layer_metrics(tracer, spec)
            record["spans"] = tracer.spans
            record["rng_methods"] = {k: v for k, v in tracer.counters.items()
                                     if k.startswith("dyadic.rng.")}
    record["peak_rss_mb"] = peak_rss_mb()
    Path(spec["record"]).write_text(json.dumps(record))


if __name__ == "__main__":
    main()
