"""Slot-driven network simulation comparing backscatter and traditional nodes.

For each beacon power in the sweep, two populations - one all-backscatter,
one all-traditional - are run over identical topology realisations (paired
seeds), which removes placement variance from the comparison. Within a
topology, slots advance sequentially (battery state carries over) and all
active nodes transmit concurrently; per-link BER is evaluated
semi-analytically as Q(sqrt(2 * SINR)) of the per-slot SINR, which has the
same expectation as bit-level simulation under the Gaussian detector model
at a fraction of the cost.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import dbm_to_watts, friis_gain
from .energymodel import ConsumptionProfile, EnergyLedger, step_population
from .mac import aggregate_interference
from .phylink import bpsk_ber
from .scenario import NodeKind, PURPOSE_PLACEMENT, derive_stream, place_nodes

CSV_HEADER = "pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,ci95_active,trials,seed"


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregate outcome of one (beacon power, node kind) sweep point."""

    pb_power_dbm: float
    kind: NodeKind
    mean_ber: float        # NaN when no link was ever active
    ci95_ber: float
    active_fraction: float
    ci95_active: float
    trials: int            # number of topology draws
    seed: int

    def csv_row(self):
        return ",".join([
            repr(float(self.pb_power_dbm)),
            self.kind.value,
            repr(float(self.mean_ber)),
            repr(float(self.ci95_ber)),
            repr(float(self.active_fraction)),
            repr(float(self.ci95_active)),
            str(int(self.trials)),
            str(int(self.seed)),
        ])


@dataclass
class PopulationResult:
    """Outcome of one population over one topology at one beacon power."""

    mean_ber: float        # NaN when no link was ever active
    active_fraction: float
    ber_samples: int
    ledger: EnergyLedger   # final per-node energy ledgers, in topology order


def run_population(config, kind, topology, pb_power_dbm, num_slots=None,
                   bit_level_rng=None, bits_per_slot=1000):
    """Run one population of a single kind over a fixed topology.

    Per slot: every node harvests from the beacon carrier and steps its
    energy model; the active set is then frozen and each active link's SINR
    is signal / (co-active interference + noise). BER samples are collected
    after the warmup slots; a slot with no active node contributes no BER
    sample. Active fraction is the per-slot active share averaged over the
    measured slots. An empty topology yields no samples for either metric.

    BER is semi-analytic by default, Q(sqrt(2 * SINR)) per active link;
    passing ``bit_level_rng`` switches to counting errors over
    ``bits_per_slot`` simulated BPSK bits per link instead (same
    expectation under the Gaussian detector model, for spot validation).
    """
    kind = NodeKind(kind)
    if num_slots is None:
        num_slots = config.num_slots
    if config.warmup_slots >= num_slots:
        raise ValueError("warmup_slots must be smaller than the slot count")
    if bit_level_rng is not None and bits_per_slot < 1:
        raise ValueError("bits_per_slot must be positive")

    n = len(topology)
    ledger = EnergyLedger.empty(n)
    if n == 0:
        return PopulationResult(mean_ber=math.nan, active_fraction=math.nan,
                                ber_samples=0, ledger=ledger)

    wavelength = config.wavelength_m
    aperture = config.aperture_m2
    noise_w = config.noise_w
    pb_w = float(dbm_to_watts(pb_power_dbm))
    profile = ConsumptionProfile.for_kind(kind, config)

    positions = np.array([nd.position for nd in topology])          # (n, 2)
    rx_positions = np.array([nd.receiver_position for nd in topology])

    pb_gain = friis_gain(np.hypot(positions[:, 0], positions[:, 1]),
                         wavelength, aperture, aperture)
    incident = pb_w * np.atleast_1d(pb_gain)

    # gain_to_rx[j, i]: transmitter j's antenna to link i's receiver.
    diff = positions[:, None, :] - rx_positions[None, :, :]
    gain_to_rx = friis_gain(np.hypot(diff[..., 0], diff[..., 1]), wavelength, aperture, aperture)
    link_gain = np.diag(gain_to_rx)

    ber_sum = 0.0
    ber_samples = 0
    active_share_sum = 0.0
    measured_slots = 0

    for slot in range(num_slots):
        active, emitted = step_population(ledger, incident, profile, config)
        if slot < config.warmup_slots:
            continue
        measured_slots += 1
        n_active = int(active.sum())
        active_share_sum += n_active / n
        if n_active == 0:
            continue
        interference = aggregate_interference(emitted, gain_to_rx)
        signal = emitted * link_gain
        sinr = signal[active] / (interference[active] + noise_w)
        if bit_level_rng is None:
            ber_sum += float(bpsk_ber(sinr).sum())
        else:
            # coherent BPSK: per bit, error iff the unit-variance noise
            # projection exceeds the sqrt(2 * SINR) decision distance
            noise_proj = bit_level_rng.standard_normal((n_active, bits_per_slot))
            amplitude = np.sqrt(2.0 * np.asarray(sinr, dtype=float))
            errors = noise_proj > amplitude[:, None]
            ber_sum += float(errors.mean(axis=1).sum())
        ber_samples += n_active

    drifted = np.abs(ledger.drift_j()) > 1e-9 * np.maximum(ledger.harvested_j, 1e-30)
    if drifted.any():
        raise RuntimeError(f"energy conservation violated on node {int(np.argmax(drifted))}")

    mean_ber = ber_sum / ber_samples if ber_samples else math.nan
    return PopulationResult(mean_ber=mean_ber,
                            active_fraction=active_share_sum / measured_slots,
                            ber_samples=ber_samples, ledger=ledger)


def _topology_sweep(args):
    """One topology draw, both populations, the whole power sweep."""
    config, topo_index, num_slots = args
    rng = derive_stream(config.seed, topo_index, PURPOSE_PLACEMENT)
    topology = place_nodes(config, rng)
    out = {}
    for pb_dbm in config.pb_power_dbm_sweep:
        for kind in (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL):
            res = run_population(config, kind, topology, pb_dbm, num_slots=num_slots)
            out[(float(pb_dbm), kind)] = (res.mean_ber, res.active_fraction)
    return out


def _max_workers():
    env = os.environ.get("BACKSIM_THREADS", "").strip()
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(f"BACKSIM_THREADS must be a positive integer, got {env!r}")
        return workers
    return os.cpu_count() or 1


def _mean_ci(values):
    """Sample mean and normal-approximation 95% half-width, NaN-safe."""
    vals = np.asarray(values, dtype=float)
    vals = vals[~np.isnan(vals)]
    if vals.size == 0:
        return math.nan, math.nan
    mean = float(vals.mean())
    if vals.size < 2:
        return mean, 0.0
    half = 1.96 * float(vals.std(ddof=1)) / math.sqrt(vals.size)
    return mean, half


def run_comparison(config, num_topologies=200, num_slots=None, max_workers=None):
    """Sweep beacon power for both node kinds over paired topologies.

    Per-topology means are aggregated unweighted across topology draws;
    topologies without samples (e.g. no node ever active at a low power)
    simply drop out of the BER mean. Results come out in sweep order,
    backscatter before traditional at each power, and are byte-reproducible
    for a fixed (config, seed) regardless of worker count.
    """
    config.validate()
    if num_topologies < 1:
        raise ValueError("need at least one topology draw")
    if max_workers is None:
        max_workers = _max_workers()

    tasks = [(config, t, num_slots) for t in range(num_topologies)]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            per_topology = list(pool.map(_topology_sweep, tasks, chunksize=8))
    else:
        per_topology = [_topology_sweep(task) for task in tasks]

    results = []
    for pb_dbm in config.pb_power_dbm_sweep:
        for kind in (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL):
            key = (float(pb_dbm), kind)
            bers = [topo[key][0] for topo in per_topology]
            fracs = [topo[key][1] for topo in per_topology]
            mean_ber, ci_ber = _mean_ci(bers)
            mean_frac, ci_frac = _mean_ci(fracs)
            results.append(ExperimentResult(
                pb_power_dbm=float(pb_dbm), kind=kind,
                mean_ber=mean_ber, ci95_ber=ci_ber,
                active_fraction=mean_frac, ci95_active=ci_frac,
                trials=num_topologies, seed=config.seed))
    return results


def write_results_csv(results, path):
    """Write sweep results with the fixed schema, one row per sweep point."""
    lines = [CSV_HEADER]
    lines.extend(r.csv_row() for r in results)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
