"""Slot-driven network simulation comparing backscatter and traditional nodes.

For each beacon power in the sweep, two populations - one all-backscatter,
one all-traditional - are run over identical topology realisations (paired
seeds), which removes placement variance from the comparison. Within a
topology, slots advance sequentially (battery state carries over) and all
active nodes transmit concurrently; per-link BER is evaluated
semi-analytically as Q(sqrt(2 * SINR)) of the per-slot SINR, which has the
same expectation as bit-level simulation under the Gaussian detector model
at a fraction of the cost. The whole sweep runs as one padded array batch
over (topology, kind, power, node); ``_run_kinds`` states which entries it
steps, which populations it evaluates once and how it bounds its buffers.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .channel import _check_integers, dbm_to_watts, friis_gain
from .energymodel import NodeKind, slot_harvest, slot_stepper, turn_on_energy
from .mac import aggregate_interference
from .phylink import bpsk_ber
from .scenario import place_topologies

_KINDS = tuple(NodeKind)  # order of the kind axis

# Active link-slots collected for one bpsk_ber call (or one slot's worth,
# if more). It bounds memory and per-call overhead only; no output bit
# depends on it. On the 50-topology default sweep, one call per slot gave
# the same bytes at 1.6 times the CPU (0.022 against 0.014 s), and peak RSS
# rose by 0.1-0.3 MB per doubling from 2^11 to 2^14 and by 0.8 MB to 2^15.
_BER_BLOCK = 1 << 12

# Peak bytes per (topology, node, node) entry while _padded_gains runs: five
# float64 arrays of that size live at once (the two halves of the position
# differences, the distances, the Friis gains and the masked cross gains)
# plus the boolean pair mask. On fig3_dense.cfg at 2,000 topologies the peak
# RSS rose by 5.3 times 8 T N^2 bytes.
_GAIN_BYTES_PER_PAIR = 5 * 8 + 1


def _padded_gains(config, nodes, counts):
    """Gains of topologies padded to the largest node count N.

    ``nodes`` and ``counts`` are what ``scenario.place_topologies`` returns:
    every topology's (n, 2, 2) layout, one after another, and their node
    counts.

    Returns beacon-to-node gains (T, N), each link's own gain (T, N), the
    cross gains (T, N, N) with ``cross[t, j, i]`` from node j's antenna to
    link i's receiver and a zero diagonal (a link is not its own
    interferer). Padded entries get a placeholder 1 m distance for
    ``friis_gain`` and are then zeroed.
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
    return pb_gain, link_gain, cross_gain


def _stepped(per_kind, incident, link_gain, config):
    """Emitter index, population, own link gain and stepper of stepped entries.

    ``per_kind`` holds each kind's flat (T, P, N) entry indices, in
    ``_KINDS`` order, laid out tags then radios. An emitter index is flat
    (T, 2, P, N), a population flat (T, 2, P); batteries start empty.
    """
    entries, num_tags = np.concatenate(per_kind), per_kind[0].size
    row = incident[0].size  # entries per topology and kind
    topology = entries // row
    emitter = entries + topology * row
    emitter[num_tags:] += row  # radios sit one kind further on
    population, node = np.divmod(emitter, incident.shape[-1])
    step = slot_stepper(np.zeros(entries.size), incident.take(entries), num_tags, config)
    return emitter, population, link_gain[topology, node], step


def _run_kinds(config, pb_gain, link_gain, cross_gain, counts):
    """Run both kinds' populations at every sweep power over padded topologies.

    The gains are what ``_padded_gains`` returns, and ``counts`` holds each
    topology's node count. Every (topology, kind, power) triple is an
    independent population; all of them advance together, one slot at a
    time, so that the interference of each topology is one (2P, N) @ (N, N)
    product over (T, 2, P, N) emitted powers, kinds in ``_KINDS`` order.

    Screen. Until a node first turns on, its battery is its running
    harvest, which never decreases and does not depend on the kind. A node,
    padded ones included, whose harvest alone stays below its kind's
    requirement through the last slot is therefore silent throughout: it is
    not stepped and emits +0.0.

    Group. A population is fixed when each of its stepped entries harvests
    at least its requirement in every slot, and is then active in every
    slot with the same emission: a tag reflects its incident wave, and a
    radio, which spends exactly all it holds, starts each slot at 0.0. The
    fixed and the changing populations' entries are laid out apart
    (``_stepped``). The fixed ones take one step, and their links are
    evaluated once and counted once per measured slot; the others are
    stepped in every slot.

    Step. Each measured slot writes the signal, interference plus noise and
    population of the changing populations' active links into three
    buffers allocated once, whose link-slots are evaluated a block at a
    time (``_BER_BLOCK``). Each block adds its BER values and link-slot
    counts to its populations one link-slot at a time, in slot-then-entry
    order whatever the blocks hold; the sample counts are the measured
    active slots. An overflowing interference sum fails with a ValueError.

    Returns the mean BER, the active fraction and the BER sample count,
    each (T, 2, P).
    """
    incident = dbm_to_watts(config.pb_power_dbm_sweep)[:, None] * pb_gain[:, None, :]  # (T, P, N)
    num_topologies, num_powers, num_nodes = incident.shape
    noise_w, measured = config.noise_w, config.num_slots - config.warmup_slots

    # the whole incident is checked here, before any entry is screened out
    harvested = slot_harvest(incident, config)
    harvest_only = np.zeros(incident.shape)
    for _ in range(config.num_slots):  # the stepper's own float recursion
        harvest_only += harvested
    fixed, changing = [], []  # flat (T, P, N) indices of each kind's stepped entries
    for kind in _KINDS:
        required = turn_on_energy(kind, config)[0]
        stepped = harvest_only >= required
        changes = (stepped & (harvested < required)).any(axis=-1, keepdims=True)
        fixed.append((stepped & ~changes).reshape(-1).nonzero()[0])
        changing.append((stepped & changes).reshape(-1).nonzero()[0])
    del harvested, harvest_only, stepped

    emitted_all = np.zeros((num_topologies, len(_KINDS) * num_powers, num_nodes))
    emitted_flat = emitted_all.reshape(-1)  # a view; setitem scatters faster than put
    ber_sum = np.zeros(emitted_all.shape[:2]).reshape(-1)
    ber_samples = np.zeros(ber_sum.size, dtype=np.int64)

    def add_ber(signal, denominator, owner, repeats):
        # validate() bounds each emitter's power over the noise, not the sum
        # over every co-slot emitter at one receiver
        if not np.isfinite(denominator).all():
            raise ValueError("the interference at a receiver overflows to inf; lower "
                             "pb_power_dbm_sweep, aperture_m2 or node_density")
        ber = bpsk_ber(np.divide(signal, denominator, out=signal))
        ber *= repeats  # exact for one repeat
        np.add.at(ber_sum, owner, ber)
        np.add.at(ber_samples, owner, repeats)

    emitter, population, gain, step = _stepped(fixed, incident, link_gain, config)
    if emitter.size:  # every fixed entry is active, emitting what one step gives
        signal = step()[1]
        emitted_flat[emitter] = signal
        with np.errstate(over="ignore"):
            interference = aggregate_interference(emitted_all, cross_gain).take(emitter)
        add_ber(signal * gain, interference + noise_w, population, measured)

    emitter, population, gain, step = _stepped(changing, incident, link_gain, config)
    del incident, changing  # the slot loop sets the sweep's peak memory

    # a slot is added whole, and the buffers are flushed first if it would
    # take them past _BER_BLOCK, so a block holds at most _BER_BLOCK link-slots
    # or one slot's worth, and never more than the run produces
    capacity = max(min(_BER_BLOCK, emitter.size * measured), emitter.size)
    signal, denominator = np.empty(capacity), np.empty(capacity)
    owner = np.empty(capacity, dtype=np.intp)
    filled = 0

    for slot in range(config.num_slots if emitter.size else 0):
        active, emitted, _ = step()
        if slot < config.warmup_slots:
            continue
        links = active.nonzero()[0]
        if filled and filled + links.size > _BER_BLOCK:
            add_ber(signal[:filled], denominator[:filled], owner[:filled], 1)
            filled = 0
        if links.size:
            block = slice(filled, filled + links.size)
            filled += links.size
            # mode="clip" lets take write straight into ``out`` (the default
            # buffers it); nonzero's indices are in range, so nothing is clipped
            emitted.take(links, out=signal[block], mode="clip")
            gain.take(links, out=denominator[block], mode="clip")
            signal[block] *= denominator[block]
            emitted_flat[emitter] = emitted
            # an overflow is reported once per block, not warned per slot; the
            # product is not kept, so none is alive while BER is evaluated
            with np.errstate(over="ignore"):
                aggregate_interference(emitted_all, cross_gain).take(
                    emitter.take(links), out=denominator[block], mode="clip")
            denominator[block] += noise_w
            population.take(links, out=owner[block], mode="clip")
    if filled:
        add_ber(signal[:filled], denominator[:filled], owner[:filled], 1)

    ber_samples = ber_samples.reshape(num_topologies, len(_KINDS), num_powers)
    ber_sum = ber_sum.reshape(ber_samples.shape)
    mean_ber = np.where(ber_samples > 0, ber_sum / np.maximum(ber_samples, 1), math.nan)
    nodes = counts[:, None, None]
    active_fraction = np.where(nodes > 0, ber_samples / np.maximum(nodes, 1), math.nan)
    active_fraction /= measured
    return mean_ber, active_fraction, ber_samples


def _mean_ci(values):
    """Means and normal-approximation 95% half-widths over axis 0, NaN-safe.

    NaN entries drop out. A column with one sample has half-width 0.0, one
    with none (NaN, NaN).
    """
    count = (~np.isnan(values)).sum(axis=0)
    with np.errstate(invalid="ignore"):  # 0 / 0 is NaN where there is no sample
        mean = np.nansum(values, axis=0) / count
        squares = np.nansum((values - mean) ** 2, axis=0)
        half = np.where(count == 1, 0.0, 1.96 * np.sqrt(squares / (count - 1)) / np.sqrt(count))
    return mean, half


def _check_gain_memory(config, num_topologies, num_nodes):
    """Raise ValueError, naming node_density, if ``_padded_gains`` of
    ``num_topologies`` topologies of ``num_nodes`` nodes exceeds physical memory."""
    needed = _GAIN_BYTES_PER_PAIR * num_topologies * num_nodes**2
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > physical:
        raise ValueError(f"node_density = {config.node_density!r} over {num_topologies} "
                         f"topologies needs about {needed:.3g} bytes of gain matrices, more "
                         f"than the {physical} bytes of physical memory; lower node_density "
                         f"or the number of topologies (--trials)")


def run_comparison(config, num_topologies):
    """Sweep beacon power for both node kinds over paired topologies.

    All topologies are placed in one pass and padded into one batch, and
    every (topology, kind, power) population runs in one array pass over
    the slots. Per-topology means are aggregated unweighted across
    topology draws; topologies without samples (e.g. no node ever active at
    a low power) simply drop out of the BER mean.

    Returns four float arrays: the mean BER, its 95% half-width, the active
    fraction and its 95% half-width. Each is (len(NodeKind), number of
    powers), kinds in ``NodeKind`` declaration order and powers in
    ``config.pb_power_dbm_sweep`` order. An entry is NaN where no topology
    contributed: the BER pair where no link of that kind was ever active at
    that power, the activity pair where no topology has a node. The arrays
    are byte-reproducible for a fixed (config, seed).
    """
    _check_integers(1, num_topologies=num_topologies)
    # The expected node count stops absurd densities before placement
    # allocates anything. The gains pad every topology to the largest count,
    # so that is checked again: on the default config 17 to 19 nodes at 200
    # to 1e5 topologies, against 6.22 expected.
    _check_gain_memory(config, num_topologies, config.expected_node_count)
    nodes, counts = place_topologies(config, num_topologies)
    _check_gain_memory(config, num_topologies, int(counts.max()))
    gains = _padded_gains(config, nodes, counts)
    del nodes  # not held through the slot loop, which sets the peak memory
    mean_ber, active_fraction, _ = _run_kinds(config, *gains, counts)
    return (*_mean_ci(mean_ber), *_mean_ci(active_fraction))
