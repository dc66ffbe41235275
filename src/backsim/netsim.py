"""Slot-driven network simulation comparing backscatter and traditional nodes.

For each beacon power in the sweep, two populations - one all-backscatter,
one all-traditional - are run over identical topology realisations (paired
seeds), which removes placement variance from the comparison. Within a
topology, slots advance sequentially (battery state carries over) and all
active nodes transmit concurrently; per-link BER is evaluated
semi-analytically as Q(sqrt(2 * SINR)) of the per-slot SINR, which has the
same expectation as bit-level simulation under the Gaussian detector model
at a fraction of the cost. The whole sweep runs as one padded array batch
over (power, topology, node); padded nodes receive no carrier and so never
activate.
"""

from __future__ import annotations

import math
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


def _padded_gains(config, topologies):
    """Gains of topologies padded to the largest node count N.

    Returns beacon-to-node gains (T, N), node-to-receiver gains (T, N, N)
    with ``gain[t, j, i]`` from node j's antenna to link i's receiver, and
    the (T, N) mask of real nodes. Padded entries get a placeholder 1 m
    distance for ``friis_gain`` and are then zeroed.
    """
    present = np.arange(max(map(len, topologies))) < np.array([[len(t)] for t in topologies])
    padded = np.zeros(present.shape + (2, 2))
    padded[present] = np.concatenate(topologies)
    positions, rx_positions = padded[..., 0, :], padded[..., 1, :]

    wavelength, aperture = config.wavelength_m, config.aperture_m2
    pb_distance = np.where(present, np.hypot(positions[..., 0], positions[..., 1]), 1.0)
    pb_gain = np.where(present, friis_gain(pb_distance, wavelength, aperture, aperture), 0.0)
    pairs = present[:, :, None] & present[:, None, :]
    diff = positions[:, :, None, :] - rx_positions[:, None, :, :]
    distance = np.where(pairs, np.hypot(diff[..., 0], diff[..., 1]), 1.0)
    gain_to_rx = np.where(pairs, friis_gain(distance, wavelength, aperture, aperture), 0.0)
    return pb_gain, gain_to_rx, present


def _run_kind(config, kind, pb_gain, gain_to_rx, present, pb_power_dbm):
    """Run populations of one kind at every beacon power over padded topologies.

    Every (power, topology) pair is an independent population; all of them
    advance together, one slot at a time. Returns the mean BER, the active
    fraction and the BER sample count, each (P, T), and the final
    (P, T, N) energy ledger.
    """
    profile = ConsumptionProfile.for_kind(kind, config)
    incident = dbm_to_watts(pb_power_dbm)[:, None, None] * pb_gain  # (P, T, N)
    link_gain = np.diagonal(gain_to_rx, axis1=-2, axis2=-1)          # (T, N)
    nodes = present.sum(axis=-1)

    ledger = EnergyLedger.empty(incident.shape)
    ber_sum = np.zeros(incident.shape[:2])
    ber_samples = np.zeros(incident.shape[:2], dtype=np.int64)
    active_share_sum = np.zeros(incident.shape[:2])

    for slot in range(config.num_slots):
        active, emitted = step_population(ledger, incident, profile, config)
        if slot < config.warmup_slots:
            continue
        n_active = active.sum(axis=-1)
        active_share_sum += n_active / np.maximum(nodes, 1)
        interference = aggregate_interference(emitted, gain_to_rx)
        sinr = (emitted * link_gain)[active] / (interference[active] + config.noise_w)
        ber = np.zeros(active.shape)
        ber[active] = bpsk_ber(sinr)
        ber_sum += ber.sum(axis=-1)
        ber_samples += n_active

    drifted = np.abs(ledger.drift_j()) > 1e-9 * np.maximum(ledger.harvested_j, 1e-30)
    if drifted.any():
        raise RuntimeError(f"energy conservation violated at (power, topology, node) "
                           f"{tuple(np.argwhere(drifted)[0])}")

    mean_ber = np.where(ber_samples > 0, ber_sum / np.maximum(ber_samples, 1), math.nan)
    measured_slots = config.num_slots - config.warmup_slots
    active_fraction = np.where(nodes > 0, active_share_sum / measured_slots, math.nan)
    return mean_ber, active_fraction, ber_samples, ledger


def run_population(config, kind, topology, pb_power_dbm):
    """Run one population of a single kind over a fixed topology.

    ``topology`` is an (n, 2, 2) array of node and receiver positions as
    ``place_nodes`` returns it. Per slot: every node harvests from the
    beacon carrier and steps its energy model; the active set is then
    frozen and each active link's SINR is signal / (co-active interference
    + noise). BER samples are collected after the warmup slots; a slot with
    no active node contributes no BER sample. Active fraction is the per-slot active share averaged over the
    measured slots. An empty topology yields no samples for either metric.
    BER is semi-analytic, Q(sqrt(2 * SINR)) per active link. This is the
    sweep engine of ``run_comparison`` at one power and one topology.
    """
    config.validate()
    mean_ber, active_fraction, ber_samples, ledger = _run_kind(
        config, kind, *_padded_gains(config, [topology]), [pb_power_dbm])
    return PopulationResult(
        mean_ber=float(mean_ber[0, 0]), active_fraction=float(active_fraction[0, 0]),
        ber_samples=int(ber_samples[0, 0]),
        ledger=EnergyLedger(**{name: flows[0, 0] for name, flows in vars(ledger).items()}))


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


def run_comparison(config, num_topologies=200):
    """Sweep beacon power for both node kinds over paired topologies.

    All topologies are placed first and padded into one batch; each kind
    then runs every (power, topology) population in one array pass over
    the slots. Per-topology means are aggregated unweighted across
    topology draws; topologies without samples (e.g. no node ever active at
    a low power) simply drop out of the BER mean. Results come out in sweep
    order, backscatter before traditional at each power, and are
    byte-reproducible for a fixed (config, seed).
    """
    config.validate()
    if num_topologies < 1:
        raise ValueError("need at least one topology draw")

    topologies = [place_nodes(config, derive_stream(config.seed, t, PURPOSE_PLACEMENT))
                  for t in range(num_topologies)]
    gains = _padded_gains(config, topologies)
    kinds = (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL)
    per_kind = {kind: _run_kind(config, kind, *gains, config.pb_power_dbm_sweep)
                for kind in kinds}

    results = []
    for p, pb_dbm in enumerate(config.pb_power_dbm_sweep):
        for kind in kinds:
            bers, fracs = per_kind[kind][0][p], per_kind[kind][1][p]
            mean_ber, ci_ber = _mean_ci(bers)
            mean_frac, ci_frac = _mean_ci(fracs)
            results.append(ExperimentResult(
                pb_power_dbm=float(pb_dbm), kind=kind,
                mean_ber=mean_ber, ci95_ber=ci_ber,
                active_fraction=mean_frac, ci95_active=ci_frac,
                trials=num_topologies, seed=config.seed))
    return results

