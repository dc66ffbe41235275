"""Slot-driven network simulation comparing backscatter and traditional nodes.

For each beacon power in the sweep, two populations - one all-backscatter,
one all-traditional - are run over identical topology realisations (paired
seeds), which removes placement variance from the comparison. Within a
topology, slots advance sequentially (battery state carries over) and all
active nodes transmit concurrently; per-link BER is evaluated
semi-analytically as Q(sqrt(2 * SINR)) of the per-slot SINR, which has the
same expectation as bit-level simulation under the Gaussian detector model
at a fraction of the cost. The whole sweep runs as one padded array batch
over (topology, power, node); padded nodes receive no carrier, so like
every node whose harvest never reaches its requirement they are not stepped.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import dbm_to_watts, friis_gain
from .energymodel import EnergyLedger, population_stepper, slot_energies
from .mac import aggregate_interference
from .phylink import bpsk_ber
from .scenario import NodeKind, place_topologies

CSV_HEADER = "pb_power_dbm,kind,mean_ber,ci95_ber,active_fraction,ci95_active,trials,seed"

# Active link-slots collected before one bpsk_ber call: large enough to
# amortise its per-call cost over many slots, small enough to bound memory.
# Peak RSS of the 50-topology default sweep rose by 0.1-0.3 MB per doubling
# from 2^11 to 2^14 and by 0.8 MB from 2^14 to 2^15.
_BER_BLOCK = 1 << 12

# Peak bytes per (topology, node, node) entry while _padded_gains runs: five
# float64 arrays of that size live at once (the two halves of the position
# differences, the distances, the Friis gains and the masked cross gains)
# plus the boolean pair mask. On fig3_dense.cfg at 2,000 topologies the peak
# RSS rose by 5.3 times 8 T N^2 bytes.
_GAIN_BYTES_PER_PAIR = 5 * 8 + 1


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


def _padded_gains(config, nodes, counts):
    """Gains of topologies padded to the largest node count N.

    ``nodes`` holds the (n, 2, 2) layouts of ``scenario.place_nodes`` of
    every topology, one after another, and ``counts`` their node counts.

    Returns beacon-to-node gains (T, N), each link's own gain (T, N), the
    cross gains (T, N, N) with ``cross[t, j, i]`` from node j's antenna to
    link i's receiver and a zero diagonal (a link is not its own
    interferer), and the (T, N) mask of real nodes. Padded entries get a
    placeholder 1 m distance for ``friis_gain`` and are then zeroed.
    """
    present = np.arange(counts.max()) < counts[:, None]
    padded = np.zeros(present.shape + (2, 2))
    padded[present] = nodes
    positions, rx_positions = padded[..., 0, :], padded[..., 1, :]

    wavelength, aperture = config.wavelength_m, config.aperture_m2
    pb_distance = np.where(present, np.hypot(positions[..., 0], positions[..., 1]), 1.0)
    pb_gain = np.where(present, friis_gain(pb_distance, wavelength, aperture, aperture), 0.0)
    pairs = present[:, :, None] & present[:, None, :]
    diff = positions[:, :, None, :] - rx_positions[:, None, :, :]
    distance = np.where(pairs, np.hypot(diff[..., 0], diff[..., 1]), 1.0)
    cross_gain = np.where(pairs, friis_gain(distance, wavelength, aperture, aperture), 0.0)
    own = np.arange(present.shape[-1])
    link_gain = cross_gain[:, own, own]
    cross_gain[:, own, own] = 0.0
    return pb_gain, link_gain, cross_gain, present


def _run_kind(config, kind, pb_gain, link_gain, cross_gain, present):
    """Run populations of one kind at every sweep power over padded topologies.

    Every (topology, power) pair is an independent population; all of them
    advance together, one slot at a time, so that the interference of each
    topology is one (P, N) @ (N, N) product over (T, P, N) emitted powers.
    Until a node first turns on, its battery is its running harvest, which
    never decreases. A node, padded ones included, whose harvest alone stays
    below its kind's requirement through the last slot is therefore silent
    throughout: it is not stepped, emits +0.0 and its ledger row is
    (harvest, harvest, 0, 0). The stepper runs on the remaining nodes only.
    Each slot writes the signal, interference plus noise and flat (topology,
    power) population index of its active links into three buffers
    allocated once, and BER is evaluated on them whenever they hold at
    least ``_BER_BLOCK`` link-slots. An interference sum that overflows
    fails the run with a ValueError. The ledger's ``slots_active`` is
    copied when warm-up ends; its growth since then is each population's
    BER sample count. Returns the mean BER, the active fraction and the
    BER sample count, each (T, P), and the final (T, P, N) energy ledger.
    """
    incident = dbm_to_watts(config.pb_power_dbm_sweep)[:, None] * pb_gain[:, None, :]  # (T, P, N)
    shape = incident.shape
    num_powers, num_nodes = shape[1:]
    noise_w = config.noise_w

    # the whole incident is checked here, before any node is screened out
    harvested, required, _ = slot_energies(incident, kind, config)
    harvest_only = np.zeros(shape)
    for _ in range(config.num_slots):  # the stepper's own float recursion
        harvest_only += harvested
    stepped = (harvest_only >= required).reshape(-1).nonzero()[0]  # flat (T, P, N) indices
    part = EnergyLedger.empty(stepped.size)
    step = population_stepper(part, incident.take(stepped), kind, config)
    del incident, harvested  # the slot loop sets the sweep's peak memory
    warm = np.zeros_like(part.slots_active)
    population, node = np.divmod(stepped, num_nodes)
    part_link_gain = link_gain[population // num_powers, node]
    emitted_all = np.zeros(shape)  # screened nodes stay +0.0
    emitted_flat = emitted_all.reshape(-1)  # a view; setitem scatters faster than put
    ber_sum = np.zeros(math.prod(shape[:2]))
    # a slot is added whole, so a block holds up to _BER_BLOCK - 1 link-slots
    # plus one slot's worth, and never more than the run produces
    measured = config.num_slots - config.warmup_slots
    capacity = min(_BER_BLOCK, stepped.size * measured) + stepped.size
    signal, denominator = np.empty(capacity), np.empty(capacity)
    owner = np.empty(capacity, dtype=np.intp)
    filled = 0

    for slot in range(config.num_slots if stepped.size else 0):
        if slot == config.warmup_slots:
            warm = part.slots_active.copy()
        active, emitted = step()
        if slot < config.warmup_slots:
            continue
        links = active.nonzero()[0]
        if links.size:
            block = slice(filled, filled + links.size)
            filled += links.size
            # mode="clip" lets take write straight into ``out`` (the default
            # buffers it); nonzero's indices are in range, so nothing is clipped
            emitted.take(links, out=signal[block], mode="clip")
            part_link_gain.take(links, out=denominator[block], mode="clip")
            signal[block] *= denominator[block]
            emitted_flat[stepped] = emitted
            # an overflow is reported once per block below, not warned per slot
            with np.errstate(over="ignore"):
                interference = aggregate_interference(emitted_all, cross_gain)
            interference.take(stepped.take(links), out=denominator[block], mode="clip")
            denominator[block] += noise_w
            population.take(links, out=owner[block], mode="clip")
        if filled and (filled >= _BER_BLOCK or slot == config.num_slots - 1):
            # validate() bounds each emitter's power over the noise, not the
            # sum over every co-slot emitter at one receiver
            if not np.isfinite(denominator[:filled]).all():
                raise ValueError("the interference at a receiver overflows to inf; lower "
                                 "pb_power_dbm_sweep, aperture_m2 or node_density")
            sinr = np.divide(signal[:filled], denominator[:filled], out=signal[:filled])
            ber_sum += np.bincount(owner[:filled], weights=bpsk_ber(sinr),
                                   minlength=ber_sum.size)
            filled = 0

    # written as not-within so that a NaN drift is flagged too
    drifted = ~(np.abs(part.drift_j()) <= 1e-9 * np.maximum(part.harvested_j, 1e-30))
    if drifted.any():
        where = np.unravel_index(stepped[drifted.argmax()], shape)
        raise RuntimeError(f"energy conservation violated at (topology, power, node) "
                           f"{tuple(int(i) for i in where)}")
    ledger = EnergyLedger(harvest_only, harvest_only.copy(), np.zeros(shape),
                          np.zeros(shape, dtype=np.int64))
    for flows, part_flows in zip(vars(ledger).values(), vars(part).values()):
        flows.put(stepped, part_flows)

    counted = np.zeros(shape, dtype=np.int64)  # active slots since warm-up
    counted.put(stepped, part.slots_active - warm)
    ber_samples = counted.sum(axis=-1)
    ber_sum = ber_sum.reshape(ber_samples.shape)
    mean_ber = np.where(ber_samples > 0, ber_sum / np.maximum(ber_samples, 1), math.nan)
    nodes = present.sum(axis=-1)[:, None]
    active_fraction = np.where(nodes > 0, ber_samples / np.maximum(nodes, 1), math.nan)
    active_fraction /= config.num_slots - config.warmup_slots
    return mean_ber, active_fraction, ber_samples, ledger


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


def run_comparison(config, num_topologies):
    """Sweep beacon power for both node kinds over paired topologies.

    All topologies are placed in one pass and padded into one batch; each kind
    then runs every (power, topology) population in one array pass over
    the slots. Per-topology means are aggregated unweighted across
    topology draws; topologies without samples (e.g. no node ever active at
    a low power) simply drop out of the BER mean. Results come out in sweep
    order, backscatter before traditional at each power, and are
    byte-reproducible for a fixed (config, seed).
    """
    if num_topologies < 1:
        raise ValueError("need at least one topology draw")
    # The expected node count is usually below the padded one, so the
    # estimate errs towards running; it exists to stop absurd densities
    # before placement allocates anything.
    needed = _GAIN_BYTES_PER_PAIR * num_topologies * config.expected_node_count**2
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(f"node_density = {config.node_density!r} over {num_topologies} "
                         f"topologies needs about {needed:.3g} bytes of gain matrices, more "
                         f"than the {physical} bytes of physical memory; lower node_density "
                         f"or the number of topologies (--trials)")

    gains = _padded_gains(config, *place_topologies(config, num_topologies))
    kinds = (NodeKind.BACKSCATTER, NodeKind.TRADITIONAL)
    per_kind = {kind: _run_kind(config, kind, *gains) for kind in kinds}

    results = []
    for p, pb_dbm in enumerate(config.pb_power_dbm_sweep):
        for kind in kinds:
            bers, fracs = per_kind[kind][0][:, p], per_kind[kind][1][:, p]
            mean_ber, ci_ber = _mean_ci(bers)
            mean_frac, ci_frac = _mean_ci(fracs)
            results.append(ExperimentResult(
                pb_power_dbm=float(pb_dbm), kind=kind,
                mean_ber=mean_ber, ci95_ber=ci_ber,
                active_fraction=mean_frac, ci95_active=ci_frac,
                trials=num_topologies, seed=config.seed))
    return results

