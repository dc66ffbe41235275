"""Reference implementations that the simulator is tested against.

The network oracles follow a single node or a single receiver with plain
Python floats, the way the physics reads in the paper's model, so the array
engine in ``backsim`` can be checked against it term by term. ``step_slot``
writes out its own harvest, activation thresholds and amplifier output and
takes none of them from ``backsim``, so it is the oracle for the formulas of
``slot_stepper`` (``TestArrayStepMatchesOracle``). ``EnergyLedger`` and
``ledger_stepper`` keep the cumulative flows that ``slot_stepper`` does not:
every slot's harvest, payment and activity, so that tests can check energy
conservation on the stepper's own arithmetic. ``population_loop`` steps
every node with ``ledger_stepper``, so it guards what the sweep adds to the
step: the screen, the fixed populations, the gains, the interference and
the BER aggregation, and its ledger holds each node's flows. The dyadic
oracles estimate the same error rate as ``simulate_dyadic_ber`` by drawing
both hops instead of integrating one out, or compute it by quadrature, or
repeat its conditional estimator one allocating array expression at a time.
``run_population`` and ``tdma_schedule`` are not oracles but small test
helpers: the sweep engine on one population, and a round-robin schedule.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from backsim.channel import dbm_to_watts, friis_gain
from backsim.dyadic import _CHUNK, _ONE_DIVISION_MAX, _UNIFORM_GAMMA_MAX
from backsim.energymodel import slot_harvest, slot_stepper
from backsim.mac import aggregate_interference
from backsim.netsim import _KINDS, _padded_gains, _run_kinds
from backsim.phylink import bpsk_ber, q_function
from backsim.scenario import NodeKind


@dataclass
class EnergyLedger:
    """Per-node battery and cumulative energy flows of populations.

    The last axis of every array indexes nodes, leading axes (if any)
    independent populations; batteries start empty.
    """

    battery_j: np.ndarray
    harvested_j: np.ndarray
    consumed_j: np.ndarray
    slots_active: np.ndarray

    @classmethod
    def empty(cls, shape):
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(shape),
                   np.zeros(shape, dtype=np.int64))

    def drift_j(self):
        """Harvested minus consumed minus stored energy; zero up to rounding."""
        return self.harvested_j - self.consumed_j - self.battery_j


def ledger_stepper(incident_w, num_tags, config, ledger=None):
    """``slot_stepper`` on a ledger's batteries, with the ledger keeping the flows.

    ``ledger`` defaults to an empty one shaped like ``incident_w``; passing
    one lets a ledger run on across steppers of other incident powers. Returns
    the ledger and a ``step()`` that runs the stepper's step, adds the
    slot's ``slot_harvest``, the energy paid and the active mask into the
    ledger, and returns the active mask and the emitted powers.
    """
    if ledger is None:
        ledger = EnergyLedger.empty(np.shape(incident_w))
    step_batteries = slot_stepper(ledger.battery_j, incident_w, num_tags, config)
    harvested = slot_harvest(incident_w, config)

    def step():
        active, emitted, paid = step_batteries()
        ledger.harvested_j += harvested
        ledger.consumed_j += paid
        ledger.slots_active += active
        return active, emitted

    return ledger, step


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


def step_slot(node, incident_w, kind, config):
    """Advance one node through one slot, mutating it, and report the flows.

    Harvesting happens only during the harvesting sub-slot (an active
    backscatter node reflects everything during the active window, so it
    harvests nothing there). A node activates iff its battery covers the
    requirement of its kind: sensing plus the digital circuit for a
    backscatter node; sensing plus digital, mixer and DAC draws, plus the PA
    drain that radiates the receiver noise power, for a traditional one.
    An active traditional node pushes all it holds above those draws
    through the amplifier.
    """
    if incident_w < 0.0:
        raise ValueError("incident power must be non-negative")
    harvested = incident_w * config.harvest_efficiency * config.harvest_s
    battery = node.battery_j + harvested
    window_s = config.active_s
    sensing_j = config.sense_energy_j

    consumed = 0.0
    tx_power = 0.0
    reflect = 0.0
    if NodeKind(kind) == NodeKind.BACKSCATTER:
        required = sensing_j + config.digital_circuit_w * window_s
        active = battery >= required
        if active:
            consumed = required
            reflect = 1.0
    else:
        circuits_j = sensing_j + (config.digital_circuit_w + config.mixer_w
                                  + config.dac_w) * window_s
        noise_floor_j = config.noise_w * window_s / config.pa_efficiency
        active = battery >= circuits_j + noise_floor_j
        if active:
            consumed = battery  # greedy: overheads plus full PA drain
            tx_power = config.pa_efficiency * (battery - circuits_j) / window_s

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


def place_nodes_loop(config, rng, n=None):
    """``place_nodes`` one node at a time with scalar ``math.cos``/``math.sin``.

    Draws the node count, radii, angles and receiver angles in the same
    order as ``place_nodes`` and returns the same (n, 2, 2) layout: node
    position in ``[:, 0]``, receiver position in ``[:, 1]``. An integer
    ``n`` pins the node count: the count draw is skipped and the position
    draws are unchanged.
    """
    if n is None:
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


def tdma_schedule(num_nodes, frame_length):
    """Slot index per node: round-robin in node order, so collision-free."""
    if frame_length < num_nodes:
        raise ValueError(f"frame of {frame_length} slots cannot hold {num_nodes} nodes")
    return np.arange(num_nodes)


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
    if n == 0:
        return math.nan, math.nan, 0, EnergyLedger.empty(0)

    lam, ap = config.wavelength_m, config.aperture_m2
    positions, rx_positions = topology[:, 0], topology[:, 1]
    incident = dbm_to_watts(pb_power_dbm) * np.atleast_1d(
        friis_gain(np.hypot(positions[:, 0], positions[:, 1]), lam, ap, ap))
    diff = positions[:, None, :] - rx_positions[None, :, :]
    gain_to_rx = friis_gain(np.hypot(diff[..., 0], diff[..., 1]), lam, ap, ap)
    link_gain = np.diag(gain_to_rx).copy()
    np.fill_diagonal(gain_to_rx, 0.0)  # a link is not its own interferer

    ber_sum = 0.0
    ber_samples = 0
    active_share_sum = 0.0
    ledger, step = ledger_stepper(incident, n if kind == NodeKind.BACKSCATTER else 0, config)
    for slot in range(config.num_slots):
        active, emitted = step()
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


def run_population(config, kind, topology, pb_power_dbm):
    """The batched sweep engine of ``run_comparison`` on one population.

    Runs both kinds on one topology at one beacon power, the config's sweep
    replaced by that power, and returns (mean_ber, active_fraction,
    ber_samples) of ``kind`` as ``population_loop`` does.
    """
    config = dataclasses.replace(config, pb_power_dbm_sweep=(pb_power_dbm,))
    counts = np.array([len(topology)])
    stats = _run_kinds(config, *_padded_gains(config, topology, counts), counts)
    k = _KINDS.index(NodeKind(kind))
    return tuple(stat[0, k, 0] for stat in stats)


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


def _gamma_mean_inverse(t, m):
    """E[1 / (1 + t g)] for g ~ Gamma(m, 1), m a positive integer, in closed form.

    With c = 1/t, dividing g^(m-1) by (g + c) leaves the polynomial
    sum_{k<m-1} (-c)^(m-2-k) g^k and the remainder (-c)^(m-1) / (g + c),
    whose Gamma means are k! and exp(c) E1(c). For m = 1 the sum is empty.
    """
    c = 1 / t
    poly = mpmath.fsum((-c) ** (m - 2 - k) * mpmath.factorial(k) for k in range(m - 1))
    return (poly + (-c) ** (m - 1) * mpmath.exp(c) * mpmath.e1(c)) / (t * mpmath.factorial(m - 1))


def dyadic_quadrature(ell, num_rx, snr_db):
    """Dyadic BPSK error rate at one SNR by numerical integration, no random draws.

    The post-combining SNR is snr * sum_l a_l g_l with a_l ~ Exp(1) (forward
    hop) and g_l ~ Gamma(num_rx, 1) (backward branch gains), all independent.
    Craig's form of Q gives P = (1/pi) int_0^{pi/2} E[exp(-X / sin^2 t)] dt,
    and E[exp(-s a g)] = E_g[1 / (1 + s g)], raised to the L-th power.
    Evaluated in mpmath at 15 digits; tanh-sinh quadrature never samples
    the endpoint theta = 0.
    """
    snr = 10.0 ** (snr_db / 10.0)
    with mpmath.workdps(15):
        value = mpmath.quad(
            lambda theta: _gamma_mean_inverse(snr / mpmath.sin(theta) ** 2, num_rx) ** ell,
            [0, mpmath.pi / 2])
        return float(value / mpmath.pi)


def dual_branch_equal_ber(snr_mean):
    """E[Q(sqrt(2 g))] for g ~ Gamma(2, mean/2 per branch): two equal branches.

    Takes a float, an array or an mpmath number, and computes in its type.
    """
    mu = (snr_mean / (1 + snr_mean)) ** 0.5
    return (1 - mu) ** 2 * (2 + mu) / 4


def conditional_ber(beta):
    """BPSK error probability given the (n, L) per-antenna branch means ``beta``.

    One branch b gives f(b) = 0.5 / ((1 + b) + sqrt(b (1 + b))) while the
    largest b of ``beta`` (one block) is below the simulator's
    ``_ONE_DIVISION_MAX``, and f(b) = 0.5 / ((1 + b)(1 + m)) with
    m = sqrt(b / (1 + b)) otherwise. Two branches b1, b2 give
    2 f(b1) f(b2) (1 + m1 m2 / (m1 + m2)): while every b of the block is
    positive and below that bound as 0.5 (s + p) / (s D (1 + s + p)) with
    s = m1 + m2, p = m1 m2 and D = (1 + b1)(1 + b2), and otherwise with the
    second form of f and m1 + m2 floored at 1e-300 for b1 = b2 = 0; in the
    simulator's order, one fresh array per operation.
    """
    b1 = beta[:, 0]
    below = beta.max() < _ONE_DIVISION_MAX
    if beta.shape[1] == 1 and below:
        return 0.5 / ((1.0 + b1) + np.sqrt(b1 * (1.0 + b1)))
    m1 = np.sqrt(b1 / (1.0 + b1))
    if beta.shape[1] == 1:
        return 0.5 / ((1.0 + b1) * (1.0 + m1))
    b2 = beta[:, 1]
    m2 = np.sqrt(b2 / (1.0 + b2))
    if below and beta.min() > 0.0:
        s, p = m1 + m2, m1 * m2
        return 0.5 * ((s + p) / ((1.0 + b1) * (1.0 + b2) * s * (1.0 + (s + p))))
    d1 = (1.0 + b1) * (1.0 + m1)
    d2 = (1.0 + b2) * (1.0 + m2)
    x = (m1 * m2) / np.maximum(m1 + m2, 1e-300)
    return 0.5 * ((1.0 + x) / d1 / d2)


def conditional_dyadic_curve(num_tag_antennas, num_reader_rx, snr_db_grid, trials, rng):
    """``simulate_dyadic_ber``'s curve with stderr, evaluated point by point.

    Draws Gamma(num_reader_rx, 1) branch gains in blocks of the simulator's
    ``_CHUNK`` trials from the simulator's stream: up to
    ``_UNIFORM_GAMMA_MAX`` receive antennas -log((1 - U_1) ... (1 - U_M))
    over each gain's M consecutive uniforms, multiplied left to right, and
    ``rng.gamma`` above. It scales the block by each grid SNR and sums
    ``conditional_ber`` and its square per block, so the BER sums group as
    the simulator's do.
    """
    grid = [float(snr_db) for snr_db in snr_db_grid]
    total = np.zeros(len(grid))
    total_sq = np.zeros(len(grid))
    for done in range(0, trials, _CHUNK):
        shape = (min(_CHUNK, trials - done), num_tag_antennas)
        if num_reader_rx > _UNIFORM_GAMMA_MAX:
            gains = rng.gamma(num_reader_rx, size=shape)
        else:
            factors = 1.0 - rng.random((*shape, num_reader_rx))
            gains = -np.log(functools.reduce(np.multiply, np.moveaxis(factors, -1, 0)))
        for i, snr_db in enumerate(grid):
            vals = conditional_ber(10.0 ** (snr_db / 10.0) * gains)
            total[i] += vals.sum()
            total_sq[i] += (vals**2).sum()
    curve = []
    for snr_db, point_total, point_sq in zip(grid, total, total_sq):
        mean = float(point_total) / trials
        var = max(float(point_sq) / trials - mean**2, 0.0)
        curve.append((snr_db, mean, math.sqrt(var / trials)))
    return curve


def estimate_diversity_order(curve, min_resolved_ber=0.0):
    """Diversity order: negative slope of log10(BER) against SNR_dB / 10.

    Fitted over the top decade of the SNR grid. Points at or below
    ``min_resolved_ber`` (and exact zeros) are discarded as statistically
    unresolved; fewer than three surviving points is an error asking for
    more trials.
    """
    points = [(float(p[0]), float(p[1])) for p in curve]
    if not points:
        raise ValueError("empty BER curve")
    top = max(s for s, _ in points)
    window = [(s, b) for s, b in points if s >= top - 10.0 - 1e-9]
    resolved = [(s, b) for s, b in window if b > min_resolved_ber and b > 0.0]
    if len(resolved) < 3:
        raise ValueError(
            "fewer than 3 statistically resolved points in the top decade; "
            "increase the trial count or lower the SNR window")
    x = np.array([s / 10.0 for s, _ in resolved])
    y = np.log10([b for _, b in resolved])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)
