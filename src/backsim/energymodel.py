"""RF energy harvesting, battery bookkeeping and the per-slot duty cycle.

Each slot follows a harvest-then-sense-and-transmit sequence: the node
harvests during the short harvesting sub-slot, then turns active for the
remainder if and only if its battery covers the active-mode energy. A
backscatter node in active mode reflects the full incident wave (and
therefore harvests nothing during that window); a traditional node drains
its entire remaining battery through the power amplifier (greedy policy,
which maximises per-slot SNR and keeps "sufficient energy" a single
threshold). Batteries carry over between slots with no cap and no leakage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import NodeKind


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


def harvested_energy(incident_w, efficiency, duration_s):
    """Energy captured from an incident wave: power x efficiency x time.

    Accepts a scalar or an array of incident powers.
    """
    if (np.asarray(incident_w) < 0.0).any() or duration_s < 0.0:
        raise ValueError("incident power and duration must be non-negative")
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    return incident_w * efficiency * duration_s


def _traditional_overhead_j(config):
    """Sensing plus digital, mixer and DAC draws over the active window."""
    return config.sense_energy_j + (
        config.digital_circuit_w + config.mixer_w + config.dac_w) * config.active_s


def required_active_energy(kind, config):
    """Battery level a node of ``kind`` needs to run the active sub-slot, in joules.

    Backscatter: one sensing task plus the digital circuit for the window.
    Traditional: sensing plus digital, mixer and DAC draws, plus the PA
    drain needed to radiate at least the receiver noise power (activity
    below the noise floor is pointless).
    """
    if NodeKind(kind) == NodeKind.BACKSCATTER:
        return config.sense_energy_j + config.digital_circuit_w * config.active_s
    pa_drain_j = config.noise_w * config.active_s / config.pa_efficiency
    return _traditional_overhead_j(config) + pa_drain_j


def activation_decision(battery_j, kind, config):
    """True (active) iff the battery covers the active-mode requirement.

    The boundary is inclusive: a battery exactly at the requirement
    activates, which keeps the threshold deterministic. Accepts a scalar or
    an array of battery levels.
    """
    if (np.asarray(battery_j) < 0.0).any():
        raise ValueError("battery must be non-negative")
    return battery_j >= required_active_energy(kind, config)


def traditional_tx_power(battery_j, config):
    """Radiated power of an active traditional node under the greedy policy.

    Everything left after sensing and circuit overheads is pushed through
    the class-AB amplifier over the active window; the battery is empty by
    the end of the slot. Accepts a scalar or an array of battery levels.
    """
    drain_j = battery_j - _traditional_overhead_j(config)
    if (np.asarray(drain_j) < 0.0).any():
        raise ValueError("node lacks the active-mode overhead; it should be silent")
    return config.pa_efficiency * drain_j / config.active_s


def step_population(ledger, incident_w, kind, config):
    """Advance every node of one or more populations of ``kind`` through one slot.

    ``incident_w`` is the carrier power reaching each node, shaped like the
    ledger arrays. Each node harvests during the harvesting sub-slot only
    (an active backscatter node reflects everything during the active
    window, so it harvests nothing there), activates iff its battery covers
    the requirement, and pays for the slot. Updates ``ledger`` in place and
    returns the active mask and the power each node emits: the full
    reflected incident wave for an active backscatter node, the amplifier
    output for an active traditional node, zero for a silent one.
    """
    harvested = harvested_energy(incident_w, config.harvest_efficiency, config.harvest_s)
    battery = ledger.battery_j + harvested
    active = activation_decision(battery, kind, config)

    if NodeKind(kind) == NodeKind.BACKSCATTER:
        consumed = np.where(active, required_active_energy(kind, config), 0.0)
        emitted = np.where(active, incident_w, 0.0)
    else:
        consumed = np.where(active, battery, 0.0)  # greedy: overheads plus full PA drain
        emitted = np.zeros(battery.shape)
        emitted[active] = traditional_tx_power(battery[active], config)

    battery_after = battery - consumed
    if (battery_after < 0.0).any():
        raise RuntimeError("battery went negative; energy accounting is broken")

    ledger.battery_j = battery_after
    ledger.harvested_j += harvested
    ledger.consumed_j += consumed
    ledger.slots_active += active
    return active, emitted


def duty_cycle_harvest(alpha, incident_w, config):
    """Average harvested power of a tag active for a fraction ``alpha`` of the time.

    An active tag reflects the whole incident wave and harvests nothing;
    a silent one harvests all of it. The information rate is proportional
    to ``alpha``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if incident_w < 0.0:
        raise ValueError("incident power must be non-negative")
    return config.harvest_efficiency * incident_w * (1.0 - alpha)
