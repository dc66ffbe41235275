"""Scenario configuration, node placement and reproducible random streams.

A single power beacon sits at the origin of a disk region. Sensor nodes are
dropped by a Poisson process over the annulus between the beacon exclusion
radius and the region edge, each with a dedicated receiver at a fixed short
distance in a uniformly random direction. Every stochastic ingredient is
derived from one 64-bit master seed so a scenario is bit-reproducible.
"""

import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
# numpy loads numpy.random on first use; importing it here keeps that cost
# in backsim's import instead of the first experiment that draws
from numpy.random import SeedSequence, default_rng

from .channel import SPEED_OF_LIGHT_M_S, _check_integers, _check_reals, dbm_to_watts
from .energymodel import NodeKind, turn_on_energy

# Purpose tags for derive_stream, so different subsystems never share draws.
PURPOSE_PLACEMENT = 0
PURPOSE_MAC = 1
PURPOSE_FADING = 2


@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and protocol constants of the network experiment.

    Units are embedded in the field names (dbm, ms, m, j, w, hz). The same
    names are used verbatim as keys of the flat ``key = value`` config file.
    A config is checked once, when it is made (constructor, ``dataclasses.replace``,
    ``load_config``), and cannot be modified afterwards: the power sweep is
    stored as a tuple, so a config is also hashable.
    """

    node_density: float = 0.02            # nodes per square metre
    region_radius: float = 10.0           # metres
    pb_power_dbm_sweep: tuple = tuple(float(p) for p in range(10, 55, 5))
    carrier_hz: float = 2.4e9
    aperture_m2: float = 0.001            # effective antenna aperture, all nodes
    noise_dbm: float = -100.0
    harvest_efficiency: float = 0.5
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

    def __post_init__(self):
        sweep = self.pb_power_dbm_sweep
        if np.iterable(sweep) and not isinstance(sweep, (str, bytes)):  # else validate rejects it
            object.__setattr__(self, "pb_power_dbm_sweep", tuple(sweep))
        self.validate()

    def validate(self):
        _check_integers(1, num_slots=self.num_slots)
        _check_integers(0, self.num_slots - 1, warmup_slots=self.warmup_slots)
        _check_integers(0, 2**64 - 1, seed=self.seed)
        # a dBm level may be negative; every other float is a magnitude, and
        # an efficiency is at most 1
        for f in fields(self):
            if f.type is float:
                _check_reals(f.name, getattr(self, f.name),
                             -math.inf if f.name.endswith("_dbm") else 0.0,
                             1.0 if f.name.endswith("_efficiency") else math.inf, above=True)
        _check_reals("pb_power_dbm_sweep", self.pb_power_dbm_sweep, ndim=1)
        _check_integers(1, **{"the length of pb_power_dbm_sweep": len(self.pb_power_dbm_sweep)})
        # the engine divides by the noise power and scales by the beacon power,
        # so both must also be finite in watts; an overflow to inf is rejected
        # below instead of warning here
        with np.errstate(over="ignore"):
            noise_w = self.noise_w
            sweep_w = dbm_to_watts(self.pb_power_dbm_sweep)
        _check_reals("noise_dbm in watts", noise_w, 0.0, above=True)
        _check_reals("pb_power_dbm_sweep in watts", sweep_w, ndim=1)
        _check_reals("region_radius above min_pb_distance_m", self.region_radius,
                     self.min_pb_distance_m, above=True)
        # placement and friis_gain square these, divide by them or draw from them
        lam2 = self.wavelength_m * self.wavelength_m
        _check_reals("carrier_hz's wavelength squared", lam2, np.finfo(float).tiny)
        try:
            count = self.expected_node_count
        except OverflowError:  # region_radius ** 2
            count = math.inf
        # numpy's Poisson draw takes means up to about 9.2e18
        _check_reals("the expected node count of node_density, region_radius and "
                     "min_pb_distance_m", count, 0.0, 1e18, above=True)
        span = 2.0 * self.region_radius + self.rx_distance_m  # farthest node to receiver
        _check_reals("the squared longest path of region_radius and rx_distance_m times "
                     "the squared wavelength", span * span * lam2)
        # or a receiver can round onto its node
        _check_reals("rx_distance_m above the float spacing at region_radius",
                     self.rx_distance_m, math.ulp(self.region_radius), above=True)
        # slot_stepper scales harvest_s and active_s into energies and
        # powers, which must stay finite: the energy stored over the run, and
        # the largest amplifier output. That output counts the traditional
        # requirement, which bounds the backscatter one, because battery -
        # overhead is computed for silent nodes too; so it is finite only if
        # the requirement is.
        try:
            stored = (float(sweep_w.max()) * self.harvest_efficiency * self.harvest_s
                      * self.num_slots)
        except OverflowError:  # num_slots beyond a float
            stored = math.inf
        _check_reals("the energy stored over the run of pb_power_dbm_sweep, harvest_efficiency, "
                     "harvest_ms and num_slots", stored)
        required = turn_on_energy(NodeKind.TRADITIONAL, self)[0]
        amplified = (self.pa_efficiency * (stored + required) / self.active_s
                     if self.active_s > 0.0 else math.inf)
        _check_reals("the largest amplifier output of active_ms, pa_efficiency and the "
                     "activation requirement of sense_energy_j, digital_circuit_w, mixer_w, "
                     "dac_w and noise_dbm", amplified)
        # a link's SINR is its received power over interference plus noise, and
        # no node emits more than the top beacon power (a reflecting tag) or the
        # largest amplifier output (a traditional radio); with gains at most 1,
        # a finite quotient by the noise keeps every SINR finite
        emitted = max(float(sweep_w.max()), amplified)
        _check_reals("the largest emitted power over the noise power of pb_power_dbm_sweep "
                     "and noise_dbm", emitted / noise_w)
        return self

    # Derived quantities -------------------------------------------------

    @property
    def wavelength_m(self):
        return SPEED_OF_LIGHT_M_S / self.carrier_hz

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
    _check_integers(0, master_seed=master_seed, node_id=node_id, purpose_tag=purpose_tag)
    return default_rng(SeedSequence([int(master_seed), int(node_id), int(purpose_tag)]))


def _annulus_layout(config, draws):
    """The (n, 2, 2) layout of ``place_nodes`` from (3, n) uniform draws:
    radius, angle and receiver angle of each node."""
    r_min2 = config.min_pb_distance_m**2
    r_max2 = config.region_radius**2
    # Uniform over the annulus: area-linear in r^2.
    radii = np.sqrt(r_min2 + draws[0] * (r_max2 - r_min2))
    angles = draws[1] * 2.0 * math.pi
    rx_angles = draws[2] * 2.0 * math.pi

    layout = np.empty((draws.shape[1], 2, 2))
    layout[:, 0] = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    layout[:, 1] = layout[:, 0] + config.rx_distance_m * np.stack(
        [np.cos(rx_angles), np.sin(rx_angles)], axis=-1)
    return layout


def _draw_topology(config, rng):
    """One topology's draws: a Poisson node count n, then (3, n) uniforms."""
    n = int(rng.poisson(config.expected_node_count))
    # one call of 3 n draws continues the stream as three calls of n would
    return rng.random(3 * n).reshape(3, n)


def place_nodes(config, rng):
    """Drop nodes over the annulus around the beacon.

    The node count is Poisson with mean density * annulus area. Positions
    are uniform over the annulus, each receiver sits at ``rx_distance_m``
    from its node at a uniformly random angle. Returns an (n, 2, 2) array
    in metres with the beacon at the origin: ``[:, 0]`` the node positions,
    ``[:, 1]`` their receivers' positions.
    """
    return _annulus_layout(config, _draw_topology(config, rng))


def place_topologies(config, num_topologies):
    """Topologies 0 .. num_topologies - 1 of ``config``'s sweep, placed in one pass.

    Topology t draws from ``derive_stream(config.seed, t, PURPOSE_PLACEMENT)``
    exactly what ``place_nodes`` draws, and the positions of all of them
    are computed together, so topology t equals ``place_nodes`` on its
    stream bit for bit. Returns the nodes of every topology in topology
    order, (sum of counts, 2, 2), and the node count of each topology.
    """
    _check_integers(1, num_topologies=num_topologies)
    draws = [_draw_topology(config, derive_stream(config.seed, t, PURPOSE_PLACEMENT))
             for t in range(num_topologies)]
    counts = np.array([d.shape[1] for d in draws], dtype=np.intp)
    return _annulus_layout(config, np.concatenate(draws, axis=1)), counts


# Flat key = value config files -----------------------------------------


def load_config(path):
    """Read a ScenarioConfig from a flat ``key = value`` text file.

    Keys match the field names exactly; ``#`` starts a comment; each value
    is parsed with its field's declared type, and the power sweep is a
    comma- or whitespace-separated list of dBm values.
    """
    types = {f.name: f.type for f in fields(ScenarioConfig)}
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
        if key not in types:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate config key {key!r}")
        try:
            if types[key] is tuple:
                values[key] = tuple(float(p) for p in value.replace(",", " ").split())
            else:
                values[key] = types[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return ScenarioConfig(**values)
