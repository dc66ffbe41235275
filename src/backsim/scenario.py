"""Scenario configuration, node placement and reproducible random streams.

A single power beacon sits at the origin of a disk region. Sensor nodes are
dropped by a Poisson process over the annulus between the beacon exclusion
radius and the region edge, each with a dedicated receiver at a fixed short
distance in a uniformly random direction. Every stochastic ingredient is
derived from one 64-bit master seed so a scenario is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .channel import SPEED_OF_LIGHT_M_S, dbm_to_watts

# Purpose tags for derive_stream, so different subsystems never share draws.
PURPOSE_PLACEMENT = 0
PURPOSE_MAC = 1
PURPOSE_FADING = 2
PURPOSE_BITLEVEL = 3


class NodeKind(str, Enum):
    BACKSCATTER = "backscatter"
    TRADITIONAL = "traditional"


@dataclass
class ScenarioConfig:
    """All physical and protocol constants of the network experiment.

    Units are embedded in the field names (dbm, ms, m, j, w, hz). The same
    names are used verbatim as keys of the flat ``key = value`` config file.
    """

    node_density: float = 0.02            # nodes per square metre
    region_radius: float = 10.0           # metres
    pb_power_dbm_sweep: list = field(default_factory=lambda: [float(p) for p in range(10, 55, 5)])
    carrier_hz: float = 2.4e9
    aperture_m2: float = 0.001            # effective antenna aperture, all nodes
    noise_dbm: float = -100.0
    harvest_efficiency: float = 0.5
    slot_ms: float = 100.0
    harvest_ms: float = 20.0
    active_ms: float = 80.0
    sense_energy_j: float = 1e-7
    digital_circuit_w: float = 2.5e-6
    mixer_w: float = 15e-6
    dac_w: float = 1e-4
    pa_efficiency: float = 0.5
    rx_distance_m: float = 0.5
    min_pb_distance_m: float = 1.0
    num_slots: int = 100
    warmup_slots: int = 20
    seed: int = 42
    # Optional: pin the node count instead of drawing it Poisson (tests).
    fixed_node_count: int | None = None
    # Optional: minimum radiated power a traditional node must be able to
    # afford before it activates; defaults to the receiver noise power.
    min_pa_radiated_w: float | None = None

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not all(math.isfinite(p) for p in self.pb_power_dbm_sweep):
            raise ValueError(f"pb_power_dbm_sweep entries must be finite, got "
                             f"{self.pb_power_dbm_sweep}")
        positive = [
            ("node_density", self.node_density),
            ("region_radius", self.region_radius),
            ("carrier_hz", self.carrier_hz),
            ("aperture_m2", self.aperture_m2),
            ("harvest_efficiency", self.harvest_efficiency),
            ("slot_ms", self.slot_ms),
            ("harvest_ms", self.harvest_ms),
            ("active_ms", self.active_ms),
            ("sense_energy_j", self.sense_energy_j),
            ("digital_circuit_w", self.digital_circuit_w),
            ("mixer_w", self.mixer_w),
            ("dac_w", self.dac_w),
            ("pa_efficiency", self.pa_efficiency),
            ("rx_distance_m", self.rx_distance_m),
            ("min_pb_distance_m", self.min_pb_distance_m),
        ]
        for name, value in positive:
            if value <= 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        for name, value in (("harvest_efficiency", self.harvest_efficiency),
                            ("pa_efficiency", self.pa_efficiency)):
            if value > 1.0:
                raise ValueError(f"{name} must not exceed 1, got {value}")
        if not math.isclose(self.harvest_ms + self.active_ms, self.slot_ms,
                            rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("harvest_ms + active_ms must equal slot_ms")
        if self.min_pb_distance_m >= self.region_radius:
            raise ValueError("min_pb_distance_m must be smaller than region_radius")
        if not self.pb_power_dbm_sweep:
            raise ValueError("pb_power_dbm_sweep must not be empty")
        if self.num_slots <= 0 or self.warmup_slots < 0:
            raise ValueError("num_slots must be positive and warmup_slots non-negative")
        if self.warmup_slots >= self.num_slots:
            raise ValueError("warmup_slots must be smaller than num_slots")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.fixed_node_count is not None and self.fixed_node_count < 0:
            raise ValueError("fixed_node_count must be non-negative")
        return self

    # Derived quantities -------------------------------------------------

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

    @property
    def slot_s(self):
        return self.slot_ms * 1e-3

    @property
    def harvest_s(self):
        return self.harvest_ms * 1e-3

    @property
    def active_s(self):
        return self.active_ms * 1e-3

    @property
    def noise_w(self):
        return float(dbm_to_watts(self.noise_dbm))

    @property
    def annulus_area_m2(self):
        return math.pi * (self.region_radius**2 - self.min_pb_distance_m**2)

    @property
    def expected_node_count(self):
        return self.node_density * self.annulus_area_m2


def derive_stream(master_seed, node_id, purpose_tag):
    """Deterministic, statistically independent stream per (node, purpose).

    Distinct (node_id, purpose_tag) pairs seed distinct PCG64 streams; the
    same inputs always reproduce the same stream.
    """
    seq = np.random.SeedSequence([int(master_seed), int(node_id), int(purpose_tag)])
    return np.random.default_rng(seq)


def place_nodes(config, rng):
    """Drop nodes over the annulus around the beacon.

    The node count is Poisson with mean density * annulus area unless
    ``config.fixed_node_count`` pins it. Positions are uniform over the
    annulus, each receiver sits at ``rx_distance_m`` from its node at a
    uniformly random angle. Returns an (n, 2, 2) array in metres with the
    beacon at the origin: ``[:, 0]`` the node positions, ``[:, 1]`` their
    receivers' positions.
    """
    config.validate()
    mean_count = config.expected_node_count
    if mean_count <= 0.0:
        raise ValueError("expected node count is zero; nothing to place")
    if config.fixed_node_count is not None:
        n = int(config.fixed_node_count)
    else:
        n = int(rng.poisson(mean_count))

    r_min2 = config.min_pb_distance_m**2
    r_max2 = config.region_radius**2
    # Uniform over the annulus: area-linear in r^2.
    radii = np.sqrt(r_min2 + rng.random(n) * (r_max2 - r_min2))
    angles = rng.random(n) * 2.0 * math.pi
    rx_angles = rng.random(n) * 2.0 * math.pi

    topology = np.empty((n, 2, 2))
    topology[:, 0] = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    topology[:, 1] = topology[:, 0] + config.rx_distance_m * np.stack(
        [np.cos(rx_angles), np.sin(rx_angles)], axis=-1)
    return topology


# Flat key = value config files -----------------------------------------

_INT_FIELDS = {"num_slots", "warmup_slots", "seed", "fixed_node_count"}
_LIST_FIELDS = {"pb_power_dbm_sweep"}


def load_config(path):
    """Read a ScenarioConfig from a flat ``key = value`` text file.

    Keys match the field names exactly; ``#`` starts a comment; the power
    sweep is a comma- or whitespace-separated list of dBm values.
    """
    known = {f.name for f in fields(ScenarioConfig)}
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            if key in _LIST_FIELDS:
                parts = value.replace(",", " ").split()
                values[key] = [float(p) for p in parts]
            elif key in _INT_FIELDS:
                values[key] = int(value)
            else:
                values[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return ScenarioConfig(**values).validate()
