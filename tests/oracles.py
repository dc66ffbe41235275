"""Reference implementations that the simulator is tested against.

The network oracles follow a single node or a single receiver with plain
Python floats, the way the physics reads in the paper's model, so the array
engine in ``backsim`` can be checked against it term by term. The dyadic
oracles estimate the same error rate as ``simulate_dyadic_ber`` by drawing
both hops instead of integrating one out.
"""

import math
from dataclasses import dataclass

import numpy as np

from backsim.channel import dbm_to_watts, friis_gain
from backsim.energymodel import (ConsumptionProfile, EnergyLedger, activation_decision,
                                 harvested_energy, step_population, traditional_tx_power)
from backsim.mac import aggregate_interference
from backsim.phylink import bpsk_ber, q_function
from backsim.scenario import NodeKind


@dataclass
class ScalarNode:
    """Battery, last-slot activity and cumulative ledger of one node."""

    battery_j: float = 0.0
    was_active: bool = False
    tx_power_w: float = 0.0        # radiated power, traditional nodes
    reflect_fraction: float = 0.0  # reflected power fraction, backscatter nodes
    harvested_total_j: float = 0.0
    consumed_total_j: float = 0.0
    slots_seen: int = 0
    slots_active: int = 0


@dataclass(frozen=True)
class SlotOutcome:
    """Energy flows of one node over one slot."""

    harvested_j: float
    consumed_j: float
    was_active: bool
    tx_power_w: float        # radiated power (traditional, 0 otherwise)
    reflect_fraction: float  # reflected fraction (backscatter, 0 otherwise)
    battery_after_j: float


def step_slot(node, incident_w, profile, config):
    """Advance one node through one slot, mutating it, and report the flows.

    Harvesting happens only during the harvesting sub-slot (an active
    backscatter node reflects everything during the active window, so it
    harvests nothing there). Degenerate inputs resolve to silent outcomes.
    """
    harvested = harvested_energy(incident_w, config.harvest_efficiency, config.harvest_s)
    battery = node.battery_j + harvested
    active = activation_decision(battery, profile, config)

    tx_power = 0.0
    reflect = 0.0
    if not active:
        consumed = 0.0
    elif profile.kind == NodeKind.BACKSCATTER:
        consumed = profile.sense_energy_j + profile.digital_w * config.active_s
        reflect = 1.0
    else:
        tx_power = traditional_tx_power(battery, profile, config)
        consumed = battery  # greedy: overheads plus full PA drain

    battery_after = battery - consumed
    if battery_after < 0.0:
        raise RuntimeError("battery went negative; energy accounting is broken")

    node.battery_j = battery_after
    node.was_active = active
    node.tx_power_w = tx_power
    node.reflect_fraction = reflect
    node.harvested_total_j += harvested
    node.consumed_total_j += consumed
    node.slots_seen += 1
    node.slots_active += int(active)

    return SlotOutcome(harvested_j=harvested, consumed_j=consumed, was_active=active,
                       tx_power_w=tx_power, reflect_fraction=reflect,
                       battery_after_j=battery_after)


def emitted_power(outcome, incident_w):
    """Power a node radiates in the slot ``outcome`` describes."""
    return outcome.tx_power_w + incident_w * outcome.reflect_fraction


def place_nodes_loop(config, rng):
    """``place_nodes`` one node at a time with scalar ``math.cos``/``math.sin``.

    Draws the node count, radii, angles and receiver angles in the same
    order as ``place_nodes`` and returns the same (n, 2, 2) layout: node
    position in ``[:, 0]``, receiver position in ``[:, 1]``.
    """
    config.validate()
    if config.fixed_node_count is not None:
        n = int(config.fixed_node_count)
    else:
        n = int(rng.poisson(config.expected_node_count))
    r_min2 = config.min_pb_distance_m**2
    r_max2 = config.region_radius**2
    radii = np.sqrt(r_min2 + rng.random(n) * (r_max2 - r_min2))
    angles = rng.random(n) * 2.0 * math.pi
    rx_angles = rng.random(n) * 2.0 * math.pi

    topology = np.empty((n, 2, 2))
    for i in range(n):
        pos = np.array([radii[i] * math.cos(angles[i]), radii[i] * math.sin(angles[i])])
        topology[i, 0] = pos
        topology[i, 1] = pos + config.rx_distance_m * np.array(
            [math.cos(rx_angles[i]), math.sin(rx_angles[i])])
    return topology


def interference_at(receiver, topology, emitted_w, config, slots=None):
    """Interference power at node ``receiver``'s receiver, in watts.

    Sums ``emitted_w[j] * friis_gain(distance j -> receiver)`` over every
    other node j of the (n, 2, 2) ``topology``, one scalar gain per pair.
    With per-node sub-slot indices ``slots`` (TDMA or time hopping) only
    nodes sharing the receiver's sub-slot count.
    """
    rx = topology[receiver, 1]
    lam, ap = config.wavelength_m, config.aperture_m2
    total = 0.0
    for j, (position, _) in enumerate(topology):
        if j == receiver:
            continue
        if slots is not None and slots[j] != slots[receiver]:
            continue
        d = math.hypot(position[0] - rx[0], position[1] - rx[1])
        total += emitted_w[j] * friis_gain(d, lam, ap, ap)
    return total


def population_loop(config, kind, topology, pb_power_dbm, bit_level_rng=None,
                    bits_per_slot=1000):
    """One population over one topology at one beacon power, unbatched.

    The network engine before it was batched over powers and topologies:
    gains for this topology alone, one slot at a time over its nodes, BER
    and activity summed in slot order. Returns (mean_ber, active_fraction,
    ber_samples, ledger); both means are NaN for an empty topology.

    BER is Q(sqrt(2 * SINR)) per active link, or, given ``bit_level_rng``,
    the error share counted over ``bits_per_slot`` simulated BPSK bits per
    link (the same expectation under the Gaussian detector model).
    """
    kind = NodeKind(kind)
    n = len(topology)
    ledger = EnergyLedger.empty(n)
    if n == 0:
        return math.nan, math.nan, 0, ledger

    lam, ap = config.wavelength_m, config.aperture_m2
    profile = ConsumptionProfile.for_kind(kind, config)
    positions, rx_positions = topology[:, 0], topology[:, 1]
    incident = float(dbm_to_watts(pb_power_dbm)) * np.atleast_1d(
        friis_gain(np.hypot(positions[:, 0], positions[:, 1]), lam, ap, ap))
    diff = positions[:, None, :] - rx_positions[None, :, :]
    gain_to_rx = friis_gain(np.hypot(diff[..., 0], diff[..., 1]), lam, ap, ap)
    link_gain = np.diag(gain_to_rx)

    ber_sum = 0.0
    ber_samples = 0
    active_share_sum = 0.0
    for slot in range(config.num_slots):
        active, emitted = step_population(ledger, incident, profile, config)
        if slot < config.warmup_slots:
            continue
        n_active = int(active.sum())
        active_share_sum += n_active / n
        if n_active == 0:
            continue
        interference = aggregate_interference(emitted, gain_to_rx)
        sinr = (emitted * link_gain)[active] / (interference[active] + config.noise_w)
        if bit_level_rng is None:
            ber_sum += float(bpsk_ber(sinr).sum())
        else:
            # coherent BPSK: per bit, error iff the unit-variance noise
            # projection exceeds the sqrt(2 * SINR) decision distance
            noise_proj = bit_level_rng.standard_normal((sinr.size, bits_per_slot))
            ber_sum += float((noise_proj > np.sqrt(2.0 * sinr)[:, None]).mean(axis=1).sum())
        ber_samples += n_active

    mean_ber = ber_sum / ber_samples if ber_samples else math.nan
    return (mean_ber, active_share_sum / (config.num_slots - config.warmup_slots),
            ber_samples, ledger)


# Dyadic MIMO estimators ----------------------------------------------------

_DYADIC_CHUNK = 1 << 17  # codewords drawn per batch


def _complex_normal(rng, shape):
    """Circularly-symmetric complex Gaussian entries, unit variance."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _semi_chunk(ell, num_tx, num_rx, snr, n, rng):
    """Q(sqrt(2 * post-combining SNR)) of n codewords over fresh draws of both hops."""
    b = _complex_normal(rng, (n, num_rx, ell))
    branch = np.sum(np.abs(b) ** 2, axis=1)                 # (n, L)
    fwd = _complex_normal(rng, (n, ell, num_tx))
    a = np.abs(fwd.sum(axis=2)) ** 2 / num_tx               # (n, L)
    return q_function(np.sqrt(2.0 * snr * np.sum(a * branch, axis=1)))


def _bit_level_chunk(ell, num_tx, num_rx, snr, n, rng):
    """Bit error share of n codewords sent over the channel with additive noise.

    One tag antenna is plain BPSK with maximum-ratio combining; two use the
    Alamouti pair over the tag's reflection coefficients.
    """
    fwd = _complex_normal(rng, (n, ell, num_tx))
    a = fwd.sum(axis=2) / math.sqrt(num_tx)          # (n, L) combined forward
    b = _complex_normal(rng, (n, num_rx, ell))
    h = b * a[:, None, :]                            # (n, M_r, L) composite
    sigma = math.sqrt(1.0 / snr)                     # noise std per complex sample

    if ell == 1:
        s = rng.choice([-1.0, 1.0], size=n)
        noise = sigma * _complex_normal(rng, (n, num_rx))
        r = h[:, :, 0] * s[:, None] + noise
        stat = np.real(np.sum(np.conj(h[:, :, 0]) * r, axis=1))
        return (np.sign(stat) != s).astype(float)

    s = rng.choice([-1.0, 1.0], size=(n, 2))
    s1 = s[:, 0][:, None]
    s2 = s[:, 1][:, None]
    h1 = h[:, :, 0]
    h2 = h[:, :, 1]
    n1 = sigma * _complex_normal(rng, (n, num_rx))
    n2 = sigma * _complex_normal(rng, (n, num_rx))
    r1 = h1 * s1 + h2 * s2 + n1
    r2 = -h1 * s2 + h2 * s1 + n2  # BPSK symbols are real, conjugation is a no-op
    z1 = np.real(np.sum(np.conj(h1) * r1 + h2 * np.conj(r2), axis=1))
    z2 = np.real(np.sum(np.conj(h2) * r1 - h1 * np.conj(r2), axis=1))
    errors = (np.sign(z1) != s[:, 0]).astype(float) + (np.sign(z2) != s[:, 1]).astype(float)
    return errors / 2.0


def _dyadic_mean(chunk, ell, num_tx, num_rx, snr_db, trials, rng):
    snr = 10.0 ** (float(snr_db) / 10.0)
    total = 0.0
    for done in range(0, trials, _DYADIC_CHUNK):
        total += float(chunk(ell, num_tx, num_rx, snr, min(_DYADIC_CHUNK, trials - done),
                             rng).sum())
    return total / trials


def semi_dyadic_ber(ell, num_tx, num_rx, snr_db, trials, rng):
    """Dyadic BPSK error rate at one SNR: both hops drawn, Q-function averaged."""
    return _dyadic_mean(_semi_chunk, ell, num_tx, num_rx, snr_db, trials, rng)


def bit_level_dyadic_ber(ell, num_tx, num_rx, snr_db, trials, rng):
    """Dyadic BPSK error rate at one SNR by counting bit errors in simulated codewords."""
    return _dyadic_mean(_bit_level_chunk, ell, num_tx, num_rx, snr_db, trials, rng)
