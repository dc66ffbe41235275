"""RF energy harvesting, battery stepping and the per-slot duty cycle.

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
slots with no cap and no leakage. ``slot_harvest`` is the one place the
harvest is written, ``turn_on_energy`` the one place each kind's
requirement is, and ``slot_stepper`` the one place a slot is stepped. It
keeps no running totals: each step returns what that slot paid.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .channel import _check_integers, _check_reals


class NodeKind(str, Enum):
    BACKSCATTER = "backscatter"
    TRADITIONAL = "traditional"


def slot_harvest(incident_w, config):
    """Energy each node harvests in one slot from ``incident_w``.

    Raises ValueError unless every incident power is non-negative and finite.
    """
    return (_check_reals("incident_w", incident_w, 0.0, ndim=None)
            * config.harvest_efficiency * config.harvest_s)


def turn_on_energy(kind, config):
    """The battery at which a node of ``kind`` turns on (inclusive), and the
    part of it spent on sensing and circuits.

    A traditional radio's remainder is the PA drain that radiates the noise
    power; a backscatter tag has none. ``kind`` is a NodeKind or its value,
    or ValueError is raised.
    """
    if kind not in tuple(NodeKind):
        raise ValueError(f"kind must be 'backscatter' or 'traditional', got {kind!r}")
    if kind == NodeKind.BACKSCATTER:
        overhead = config.sense_energy_j + config.digital_circuit_w * config.active_s
        return overhead, overhead
    overhead = config.sense_energy_j + (
        config.digital_circuit_w + config.mixer_w + config.dac_w) * config.active_s
    return overhead + config.noise_w * config.active_s / config.pa_efficiency, overhead


def slot_stepper(battery, incident_w, num_tags, config):
    """Slot stepper for backscatter tags and traditional radios held in one array.

    ``battery`` holds every entry's stored energy; the caller makes it (zeroed,
    for empty batteries) and the stepper updates it in place. Along axis 0, the
    first ``num_tags`` entries are tags and the rest radios: ``num_tags`` is an
    integer from 0 to ``len(battery)``, or ValueError is raised, as it is for
    an ``incident_w`` without an axis and a ``battery`` that is not a float64
    array shaped like it. Entries are nodes in a one-axis array but whole
    populations in a multi-axis one, which is therefore all one kind unless
    ``num_tags`` splits axis 0. ``incident_w`` is the carrier power reaching
    each entry, shaped like ``battery`` and fixed for the stepper's life, so its
    check, the per-slot harvest and each entry's requirement are computed here
    once. Each call of the returned ``step()``
    advances every entry one slot: each harvests, activates iff its battery
    covers its requirement, and pays for the slot. The harvest and activation
    run on the whole array, the payment and the emission on each kind's slice.
    ``step()`` returns the active mask, the power each entry emits (the full
    reflected incident wave for an active tag, the amplifier output for an
    active radio, +0.0 for a silent entry) and the energy each entry paid in the
    slot. All three are buffers that the next ``step()`` overwrites.
    """
    harvested = slot_harvest(incident_w, config)
    if harvested.ndim == 0:
        raise ValueError(f"incident_w must be an array of at least one axis, got {incident_w!r}")
    if not (isinstance(battery, np.ndarray) and battery.dtype == np.float64
            and battery.shape == harvested.shape):
        raise ValueError(f"battery must be a float64 array of shape {harvested.shape}, "
                         f"got {battery!r}")
    _check_integers(0, len(battery), num_tags=num_tags)
    tag_required = turn_on_energy(NodeKind.BACKSCATTER, config)[0]
    radio_required, overhead = turn_on_energy(NodeKind.TRADITIONAL, config)
    active_s, pa_efficiency = config.active_s, config.pa_efficiency
    shape = battery.shape
    required = np.full(shape, radio_required)
    required[:num_tags] = tag_required
    active = np.zeros(shape, dtype=bool)
    paid, emitted = np.zeros(shape), np.zeros(shape)
    tags, radios = slice(None, num_tags), slice(num_tags, None)
    tag_on, tag_cost, tag_incident = active[tags], required[tags], incident_w[tags]
    tag_paid, tag_out = paid[tags], emitted[tags]
    radio_on, radio_held = active[radios], battery[radios]
    radio_paid, radio_out = paid[radios], emitted[radios]

    def step():
        np.add(battery, harvested, out=battery)
        np.greater_equal(battery, required, out=active)
        # the 0/1 mask times a finite non-negative value is that value or
        # +0.0, exactly what np.where(active, value, 0.0) gives
        np.multiply(tag_on, tag_cost, out=tag_paid)
        np.multiply(tag_on, tag_incident, out=tag_out)
        np.multiply(radio_on, radio_held, out=radio_paid)
        # pa_efficiency * (battery - overhead) / active_s, clamped at 0.0 so
        # that a silent node below the overhead emits +0.0, not -0.0
        np.subtract(radio_held, overhead, out=radio_out)
        np.multiply(radio_out, pa_efficiency, out=radio_out)
        np.divide(radio_out, active_s, out=radio_out)
        np.maximum(radio_out, 0.0, out=radio_out)
        np.multiply(radio_out, radio_on, out=radio_out)
        np.subtract(battery, paid, out=battery)
        # the minimum is NaN if any battery is
        if not np.minimum.reduce(battery, axis=None, initial=np.inf) >= 0.0:
            raise RuntimeError("battery went negative or NaN; energy accounting is broken")
        return active, emitted, paid

    return step


def duty_cycle_harvest(alpha, incident_w, config):
    """Average harvested power of a tag active for a fraction ``alpha`` of the time.

    An active tag reflects the whole incident wave and harvests nothing;
    a silent one harvests all of it. The information rate is proportional
    to ``alpha``, one number in [0, 1]; ``incident_w`` is one finite number >= 0.
    """
    _check_reals("alpha", alpha, 0.0, 1.0)
    _check_reals("incident_w", incident_w, 0.0)
    return config.harvest_efficiency * incident_w * (1.0 - alpha)
