"""RF energy harvesting, battery bookkeeping and the per-slot duty cycle.

Each slot follows a harvest-then-sense-and-transmit sequence: the node
harvests ``incident_w * harvest_efficiency`` during the short harvesting
sub-slot, then turns active for the remainder if and only if its battery
covers the active-mode energy (the boundary is inclusive). A backscatter
node needs one sensing task plus the digital circuit over the active
window; in active mode it reflects the full incident wave (and therefore
harvests nothing during that window). A traditional node also needs the
mixer and DAC draws, plus the PA drain that radiates at least the receiver
noise power; in active mode it drains its entire remaining battery through
the power amplifier (greedy policy, which maximises per-slot SNR and keeps
"sufficient energy" a single threshold). Batteries carry over between
slots with no cap and no leakage. ``step_population`` is the one place
these formulas are written.
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


def step_population(ledger, incident_w, kind, config):
    """Advance every node of one or more populations of ``kind`` through one slot.

    ``incident_w`` is the carrier power reaching each node, shaped like the
    ledger arrays. Each node harvests, activates iff its battery covers the
    requirement of its kind, and pays for the slot. Updates ``ledger`` in
    place and returns the active mask and the power each node emits: the
    full reflected incident wave for an active backscatter node, the
    amplifier output for an active traditional node, zero for a silent one.
    """
    if (incident_w < 0.0).any():
        raise ValueError("incident power must be non-negative")
    active_s = config.active_s
    harvested = incident_w * config.harvest_efficiency * config.harvest_s
    battery = ledger.battery_j + harvested

    if NodeKind(kind) == NodeKind.BACKSCATTER:
        required = config.sense_energy_j + config.digital_circuit_w * active_s
        active = battery >= required
        consumed = np.where(active, required, 0.0)
        emitted = np.where(active, incident_w, 0.0)
    else:
        overhead = config.sense_energy_j + (
            config.digital_circuit_w + config.mixer_w + config.dac_w) * active_s
        active = battery >= overhead + config.noise_w * active_s / config.pa_efficiency
        consumed = np.where(active, battery, 0.0)
        emitted = np.zeros(battery.shape)
        emitted[active] = config.pa_efficiency * (battery[active] - overhead) / active_s

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
