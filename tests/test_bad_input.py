"""One table of bad arguments: each public integer or real-number argument
rejects a bool, a string, NaN and a value outside its bounds, an integer one
also a fraction, a whole float and a numpy float, a real one an infinity it
does not allow and an array of the wrong shape or dtype, with a ValueError
whose message starts "<name> must be <rule>, got". Guards hold every
public parameter to a row, and every raise in the package to one of the
two rules, or to a stated reason; a numpy integer must act as the Python
int of its value."""

import ast
import copy
import inspect
import math
import re
from collections import Counter
from dataclasses import fields
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from backsim import (ScenarioConfig, bpsk_ber, channel, count_interference_components,
                     dbm_to_watts, derive_stream, duty_cycle_harvest, dyadic, energy_rate_frontier,
                     energymodel, friis_gain, mac, netsim, phylink, q_function, run_comparison,
                     scenario, simulate_dyadic_ber, th_ss_assign, th_ss_collision_probability)
from backsim.energymodel import NodeKind, slot_harvest, slot_stepper, turn_on_energy
from backsim.mac import th_ss_collision_rate_mc
from backsim.scenario import PURPOSE_FADING, PURPOSE_MAC, place_topologies

CONFIG = ScenarioConfig()

# valid keyword arguments of each callable; a row replaces one of them
VALID = {
    friis_gain: {"distance_m": 1.0, "wavelength_m": 0.125, "aperture_tx_m2": 1e-3,
                 "aperture_rx_m2": 1e-3},
    dbm_to_watts: {"p_dbm": 40.0},
    q_function: {"x": 1.0},
    bpsk_ber: {"sinr_linear": 1.0},
    # beta 0 first: a bad snr there once failed as the internal SINR instead
    energy_rate_frontier: {"beta_grid": [0.0, 0.5], "snr": 10.0},
    duty_cycle_harvest: {"alpha": 0.5, "incident_w": 1e-3, "config": CONFIG},
    slot_harvest: {"incident_w": np.array([1e-3]), "config": CONFIG},
    slot_stepper: {"battery": np.zeros(3), "incident_w": np.array([1e-3, 1e-3, 0.0]),
                   "num_tags": 1, "config": CONFIG},
    turn_on_energy: {"kind": NodeKind.BACKSCATTER, "config": CONFIG},
    simulate_dyadic_ber: {"num_tag_antennas": 1, "num_reader_tx": 1, "num_reader_rx": 1,
                          "snr_db_grid": [10.0], "trials": 100_000,
                          "rng": derive_stream(1, 0, PURPOSE_FADING)},
    ScenarioConfig: {"num_slots": 40, "warmup_slots": 8, "seed": 11},
    derive_stream: {"master_seed": 1, "node_id": 0, "purpose_tag": PURPOSE_FADING},
    place_topologies: {"config": CONFIG, "num_topologies": 2},
    run_comparison: {"config": CONFIG, "num_topologies": 1},
    th_ss_assign: {"shape": 3, "frame_length": 4, "rng": derive_stream(1, 0, PURPOSE_MAC)},
    th_ss_collision_probability: {"num_links": 2, "frame_length": 10},
    th_ss_collision_rate_mc: {"num_links": 2, "frame_length": 10, "trials": 100,
                              "rng": derive_stream(1, 0, PURPOSE_MAC)},
    count_interference_components: {"num_links": 5},
}

# bad values of an argument that takes one number, ...
SCALAR = {"bool": True, "str": "0.5", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
          "huge-int": 10**400, "array": np.array([0.5, 0.5])}
# ... a sequence of them ...
GRID = {"bool": [0.5, True], "str": "0.5", "str-entry": ["0.5"], "nan": [0.5, math.nan],
        "inf": [math.inf], "-inf": [-math.inf], "number": 0.5, "2d-array": np.array([[0.5]]),
        "bool-array": np.array([True])}
# ... or a number or an array of them
ARRAY = {"bool": True, "str": "0.5", "nan": math.nan, "nan-array": np.array([0.5, math.nan]),
         "inf": math.inf, "-inf": np.array([-math.inf]), "bool-list": [0.5, True],
         "bool-array": np.array([True]), "str-array": np.array(["0.5"]),
         "complex-array": np.array([0.5j])}


def _integers(low):
    """Bad values of an integer argument of at least ``low``."""
    return {"bool": True, "float": low + 1.5, "whole-float": low + 1.0, "str": str(low + 2),
            "nan": math.nan, "numpy-float": np.float64(low + 1), "below": low - 1}


def _without(values, *labels):
    return {label: bad for label, bad in values.items() if label not in labels}


def _config_row(name):
    """The row of a float field of the config: a dBm level may be negative, every
    other field must be above 0, an efficiency at most 1."""
    if name.endswith("_dbm"):
        return ScenarioConfig, name, "a real number in (-inf, inf)", SCALAR
    if name.endswith("_efficiency"):
        return (ScenarioConfig, name, "a real number in (0.0, 1.0]",
                SCALAR | {"zero": 0.0, "above-1": 1.5})
    return ScenarioConfig, name, "a real number in (0.0, inf)", SCALAR | {"zero": 0.0}


# (callable, real-number argument, the rule its message states, its bad values);
# the extra values leave its bounds
ARGUMENTS = [
    (friis_gain, "distance_m", "real numbers in (0.0, inf)",
     ARRAY | {"zero": 0.0, "negative": -1.0}),
    *[(friis_gain, name, "a real number in (0.0, inf)", SCALAR | {"zero": 0.0})
      for name in ("wavelength_m", "aperture_tx_m2", "aperture_rx_m2")],
    (dbm_to_watts, "p_dbm", "real numbers in (-inf, inf)", ARRAY),
    (q_function, "x", "real numbers in [-inf, inf] or NaN",  # Q is NaN, 0, 1 there
     _without(ARRAY, "nan", "nan-array", "inf", "-inf")),
    (bpsk_ber, "sinr_linear", "real numbers in [0.0, inf]",  # BER 0 at inf
     _without(ARRAY, "inf") | {"negative": -0.1, "nan-list": [1.0, math.nan]}),
    (energy_rate_frontier, "beta_grid", "a sequence of real numbers in [0.0, 1.0]",
     GRID | {"above-1": [0.5, 1.5], "negative": [-0.1]}),
    (energy_rate_frontier, "snr", "a real number in [0.0, inf)", SCALAR | {"negative": -1.0}),
    (duty_cycle_harvest, "alpha", "a real number in [0.0, 1.0]",
     SCALAR | {"above-1": 1.5, "negative": -0.1}),
    (duty_cycle_harvest, "incident_w", "a real number in [0.0, inf)",
     SCALAR | {"negative": -1e-3}),
    (slot_harvest, "incident_w", "real numbers in [0.0, inf)",
     ARRAY | {"negative": np.array([1e-3, -1e-9])}),
    (slot_stepper, "incident_w", "real numbers in [0.0, inf)",
     ARRAY | {"negative": np.array([1e-3, -1e-9, 0.0])}),
    # 3075 dB gave a NaN BER and 4000 dB an OverflowError
    (simulate_dyadic_ber, "snr_db_grid", "a sequence of real numbers in [-1000.0, 1000.0]",
     GRID | {"above-1000": [10.0, 1000.5], "below-minus-1000": [-1000.5],
             "above-3000": [10.0, 3075.0], "overflow": [4000.0]}),
    *[_config_row(f.name) for f in fields(ScenarioConfig) if f.type is float],
    (ScenarioConfig, "pb_power_dbm_sweep", "a sequence of real numbers in (-inf, inf)", GRID),
]

# (callable, integer argument, its bounds (low, high), bad values besides _integers(low));
# the extra values leave its upper bound
INF = math.inf
INTEGERS = [
    *[(derive_stream, name, (0, INF), {}) for name in ("master_seed", "node_id", "purpose_tag")],
    (place_topologies, "num_topologies", (1, INF), {"negative": -1}),
    (run_comparison, "num_topologies", (1, INF), {}),
    (th_ss_assign, "shape", (1, INF), {"float-axis": (2, 2.5), "empty": (), "zero-axis": (3, 0)}),
    (th_ss_assign, "frame_length", (1, INF), {}),
    *[(th_ss_collision_probability, name, (1, INF), {}) for name in ("num_links", "frame_length")],
    *[(th_ss_collision_rate_mc, name, (1, INF), {})
      for name in ("num_links", "frame_length", "trials")],
    (count_interference_components, "num_links", (1, INF), {}),
    (simulate_dyadic_ber, "num_tag_antennas", (1, 2), {"above-2": 3}),
    (simulate_dyadic_ber, "num_reader_tx", (1, INF), {}),
    # 10**8 receive antennas at 3000 dB warned of an overflow, 10**9 gave NaN
    (simulate_dyadic_ber, "num_reader_rx", (1, 10**7), {"above-1e7": 10**7 + 1}),
    (simulate_dyadic_ber, "trials", (10**5, INF), {}),
    (ScenarioConfig, "num_slots", (1, INF), {}),
    # below VALID's num_slots of 40
    (ScenarioConfig, "warmup_slots", (0, 39), {"num_slots": 40}),
    (ScenarioConfig, "seed", (0, 2**64 - 1), {"2**64": 2**64}),
    # the three entries of VALID's battery; -1, True and 4 ran silently
    (slot_stepper, "num_tags", (0, 3), {"above-entries": 4}),
]


def _integer_rule(low, high):
    return f"an integer of at least {low}" if high == INF else f"an integer in [{low}, {high}]"


ROWS = ARGUMENTS + [(func, name, _integer_rule(low, high), _integers(low) | extra)
                    for func, name, (low, high), extra in INTEGERS] + [
    # checked once, by name, rather than by numpy at the first step(); a 0-d
    # incident_w with a 0-d battery once raised a TypeError naming neither
    (slot_stepper, "incident_w", "an array of at least one axis", {"0-d": 1e-3}),
    (slot_stepper, "battery", "a float64 array of shape (3,)",
     {"bool": True, "int64": np.zeros(3, dtype=np.int64), "two-entries": np.zeros(2),
      "column": np.zeros((3, 1)), "0-d": np.zeros(())}),
    (turn_on_energy, "kind", "'backscatter' or 'traditional'", {"bool": True, "relay": "relay"}),
]


@pytest.mark.parametrize("func,name,rule,bad", [
    pytest.param(func, name, rule, bad, id=f"{func.__name__}-{name}-{label}")
    for func, name, rule, values in ROWS for label, bad in values.items()])
def test_bad_argument_rejected(func, name, rule, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {rule}, got ')}"):
        func(**{**VALID[func], name: bad})


def test_valid_arguments_pass():
    # every row's failure is its bad value's doing
    for func, kwargs in VALID.items():
        func(**kwargs)


# parameters without rows, and why
UNCHECKED = {
    "rng": "a numpy Generator, drawn from as it is",
    "config": "a ScenarioConfig, checked once when it is made",
    "path": "a config file, whose values load_config hands to ScenarioConfig",
    # its dtype and shape have rows
    "battery": "the caller's buffer, whose values are checked after every slot",
    "slots": "sub-slot indices, which co_slot_mask only compares",
    "with_stderr": "a flag, read for its truth",
    # aggregate_interference is fig3's per-slot product: a check would run every slot
    "emitted_w": "aggregate_interference's emissions",
    "cross_gain": "aggregate_interference's gain matrices",
}


def _rejects_a_bool(func, name):
    """Whether ``func`` with ``name`` = True and its other arguments valid raises
    a ValueError whose message starts with ``name``."""
    try:
        func(**{**VALID[func], name: True})
    except ValueError as err:
        return str(err).startswith(f"{name} must be ")
    return False


def test_every_public_parameter_has_rows_or_a_reason():
    # a row is not enough: an argument that takes a bool is not checked at all
    rows = {(func, name) for func, name, _, _ in ROWS}
    missing, unchecked = [], set()
    for module in (channel, energymodel, phylink, mac, dyadic, netsim, scenario):
        for func in vars(module).values():
            if (not callable(func) or func.__name__.startswith("_")
                    or func.__module__ != module.__name__
                    or isinstance(func, type) and issubclass(func, Enum)):  # takes its members
                continue
            for name in inspect.signature(func).parameters:
                if name in UNCHECKED:
                    unchecked.add(name)
                elif (func, name) not in rows or not _rejects_a_bool(func, name):
                    missing.append(f"{module.__name__}.{func.__name__}({name})")
    assert missing == []
    assert unchecked == set(UNCHECKED)  # no stale reason


# the raise statements of src/backsim, by enclosing function: (how many, why)
RAISES = {
    "channel._check_integers": (1, "the integer rule"),
    "channel._check_reals": (1, "the real-number rule"),
    "cli._bounded_int.integer": (1, "--seed and --trials: argparse's usage error, status 2"),
    "energymodel.turn_on_energy": (1, "kind: a NodeKind or its value, not a number"),
    "energymodel.slot_stepper": (2, "incident_w's axes and battery's dtype and shape"),
    "energymodel.slot_stepper.step": (1, "broken energy accounting, not a bad argument"),
    "netsim._run_kinds.add_ber": (1, "interference summed while the sweep runs"),
    "netsim._check_gain_memory": (1, "the host's physical memory, not a fixed bound"),
    "scenario.load_config": (4, "the config file's syntax, before ScenarioConfig sees a value"),
}


def _raise_sites(node, scope):
    """The dotted name of the function or class around each raise statement under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield from _raise_sites(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Raise):
            yield scope
        yield from _raise_sites(child, scope)


def test_every_raise_is_a_rule_or_has_a_reason():
    # a new bound must go through a rule, or add its raise here with a reason
    package = Path(channel.__file__).parent
    sites = Counter(site for path in package.glob("*.py")
                    for site in _raise_sites(ast.parse(path.read_text()), path.stem))
    assert sites == {site: count for site, (count, _) in RAISES.items()}


def _outcome(func, name, value):
    """What ``func`` gives with ``name`` = ``value`` and fresh copies of its other
    valid arguments: a stream's first draws, a stepper's first slot, or its result."""
    result = func(**{**copy.deepcopy(VALID[func]), name: value})
    if isinstance(result, np.random.Generator):
        return result.random(8)
    return result() if callable(result) else result


@pytest.mark.parametrize("func,name,value", [
    *[pytest.param(func, name, dtype(VALID[func][name]),
                   id=f"{func.__name__}-{name}-{dtype.__name__}")
      for func, name, _, _ in INTEGERS for dtype in (np.int64, np.int32)],
    pytest.param(th_ss_assign, "shape", (np.int64(2), 3), id="th_ss_assign-shape-tuple"),
    pytest.param(simulate_dyadic_ber, "num_tag_antennas", np.int64(2),
                 id="simulate_dyadic_ber-num_tag_antennas-int64-two"),
    pytest.param(derive_stream, "master_seed", np.uint64(2**64 - 1),
                 id="derive_stream-master_seed-uint64-max"),
])
def test_numpy_integer_acts_as_its_int(func, name, value):
    as_int = tuple(map(int, value)) if isinstance(value, tuple) else int(value)
    np.testing.assert_equal(_outcome(func, name, value), _outcome(func, name, as_int))


def test_dbm_overflow_is_inf_with_a_warning():
    # finite dBm beyond the float range in watts give inf, not an error:
    # validate() relies on it to name noise_dbm or pb_power_dbm_sweep
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert dbm_to_watts(1e5) == math.inf
