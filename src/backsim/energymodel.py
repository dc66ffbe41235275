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
slots with no cap and no leakage. ``slot_energies`` is the one place the
harvest and the requirements are written, ``population_stepper`` the one
place a slot is stepped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import NodeKind


@dataclass
class EnergyLedger:
    """Per-node battery and cumulative energy flows of populations.

    The last axis of every array indexes nodes, leading axes (if any)
    independent populations; batteries start empty. The network sweep
    takes its BER sample counts and active fractions from ``slots_active``.
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


def slot_energies(incident_w, kind, config):
    """Per-slot harvest of each node and the battery a node of ``kind`` needs.

    Returns the energy harvested in one slot from ``incident_w``, the
    battery at which a node of ``kind`` turns on (inclusive), and the part
    of that spent on sensing and circuits; a traditional radio's remainder
    is the PA drain that radiates the noise power. Raises ValueError unless
    every incident power is non-negative.
    """
    if not (incident_w >= 0.0).all():  # NaN fails too
        raise ValueError("incident power must be non-negative")
    backscatter = NodeKind(kind) == NodeKind.BACKSCATTER
    harvested = incident_w * config.harvest_efficiency * config.harvest_s
    if backscatter:
        overhead = config.sense_energy_j + config.digital_circuit_w * config.active_s
        return harvested, overhead, overhead
    overhead = config.sense_energy_j + (
        config.digital_circuit_w + config.mixer_w + config.dac_w) * config.active_s
    required = overhead + config.noise_w * config.active_s / config.pa_efficiency
    return harvested, required, overhead


def population_stepper(ledger, incident_w, kind, config):
    """Slot stepper for every node of one or more populations of ``kind``.

    ``incident_w`` is the carrier power reaching each node, shaped like the
    ledger arrays and fixed for the stepper's life, so its check, the
    per-slot harvest and the kind's requirement (``slot_energies``) are
    computed here once. Each call of the returned ``step()`` advances the
    nodes one slot: each node harvests, activates iff its battery covers
    the requirement, and pays for the slot. ``step()`` updates ``ledger``
    in place and returns the active mask and the power each node emits: the
    full reflected incident wave for an active backscatter node, the
    amplifier output for an active traditional node, +0.0 for a silent one.
    Both are buffers that the next ``step()`` overwrites. The ledger's
    ``slots_active`` is the one count of active slots; the sweep reads it.
    """
    harvested, required, overhead = slot_energies(incident_w, kind, config)
    backscatter = NodeKind(kind) == NodeKind.BACKSCATTER
    active_s, pa_efficiency = config.active_s, config.pa_efficiency
    shape = ledger.battery_j.shape
    active = np.zeros(shape, dtype=bool)
    consumed, emitted = np.zeros(shape), np.zeros(shape)

    def step():
        battery = ledger.battery_j
        np.add(battery, harvested, out=battery)
        np.greater_equal(battery, required, out=active)
        # the 0/1 mask times a finite non-negative value is that value or
        # +0.0, exactly what np.where(active, value, 0.0) gives
        if backscatter:
            np.multiply(active, required, out=consumed)
            np.multiply(active, incident_w, out=emitted)
        else:
            np.multiply(active, battery, out=consumed)
            # pa_efficiency * (battery - overhead) / active_s, clamped at 0.0 so
            # that a silent node below the overhead emits +0.0, not -0.0
            np.subtract(battery, overhead, out=emitted)
            np.multiply(emitted, pa_efficiency, out=emitted)
            np.divide(emitted, active_s, out=emitted)
            np.maximum(emitted, 0.0, out=emitted)
            np.multiply(emitted, active, out=emitted)
        np.subtract(battery, consumed, out=battery)
        # the minimum is NaN if any battery is
        if not np.minimum.reduce(battery, axis=None, initial=np.inf) >= 0.0:
            raise RuntimeError("battery went negative or NaN; energy accounting is broken")
        ledger.harvested_j += harvested
        ledger.consumed_j += consumed
        ledger.slots_active += active
        return active, emitted

    return step


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
