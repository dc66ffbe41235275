"""One table of bad arguments: each public real-number argument rejects a
bool, a string, NaN, an infinity it does not allow, a value outside its
bounds and an array of the wrong shape or dtype, with a ValueError whose
message starts with the argument's name."""

import math
import re

import numpy as np
import pytest

from backsim import (ScenarioConfig, bpsk_ber, dbm_to_watts, derive_stream, duty_cycle_harvest,
                     energy_rate_frontier, friis_gain, q_function, simulate_dyadic_ber)
from backsim.energymodel import slot_harvest
from backsim.scenario import PURPOSE_FADING

CONFIG = ScenarioConfig()

# valid keyword arguments of each callable; a row replaces one of them
VALID = {
    friis_gain: {"distance_m": 1.0, "wavelength_m": 0.125, "aperture_tx_m2": 1e-3,
                 "aperture_rx_m2": 1e-3},
    dbm_to_watts: {"p_dbm": 40.0},
    q_function: {"x": 1.0},
    bpsk_ber: {"sinr_linear": 1.0},
    energy_rate_frontier: {"beta_grid": [0.5], "snr": 10.0},
    duty_cycle_harvest: {"alpha": 0.5, "incident_w": 1e-3, "config": CONFIG},
    slot_harvest: {"incident_w": np.array([1e-3]), "config": CONFIG},
    simulate_dyadic_ber: {"num_tag_antennas": 1, "num_reader_tx": 1, "num_reader_rx": 1,
                          "snr_db_grid": [10.0], "trials": 100_000,
                          "rng": derive_stream(1, 0, PURPOSE_FADING)},
    ScenarioConfig: {},
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


def _without(values, *labels):
    return {label: bad for label, bad in values.items() if label not in labels}


# (callable, argument, its bad values); the extra ones leave its bounds
ARGUMENTS = [
    (friis_gain, "distance_m", ARRAY | {"zero": 0.0, "negative": -1.0}),
    (friis_gain, "wavelength_m", SCALAR | {"zero": 0.0}),
    (friis_gain, "aperture_tx_m2", SCALAR | {"zero": 0.0}),
    (friis_gain, "aperture_rx_m2", SCALAR | {"zero": 0.0}),
    (dbm_to_watts, "p_dbm", ARRAY),
    (q_function, "x", _without(ARRAY, "nan", "nan-array", "inf", "-inf")),  # Q is NaN, 0, 1
    (bpsk_ber, "sinr_linear", _without(ARRAY, "inf")  # BER 0 at inf
     | {"negative": -0.1, "nan-list": [1.0, math.nan]}),
    (energy_rate_frontier, "beta_grid", GRID | {"above-1": [0.5, 1.5], "negative": [-0.1]}),
    (energy_rate_frontier, "snr", SCALAR | {"negative": -1.0}),
    (duty_cycle_harvest, "alpha", SCALAR | {"above-1": 1.5, "negative": -0.1}),
    (duty_cycle_harvest, "incident_w", SCALAR | {"negative": -1e-3}),
    (slot_harvest, "incident_w", ARRAY | {"negative": np.array([1e-3, -1e-9])}),
    (simulate_dyadic_ber, "snr_db_grid", GRID | {"above-3000": [10.0, 3075.0]}),
    (ScenarioConfig, "node_density", SCALAR | {"zero": 0.0}),
    (ScenarioConfig, "noise_dbm", SCALAR),
    (ScenarioConfig, "harvest_efficiency", SCALAR | {"above-1": 1.5}),
    (ScenarioConfig, "pb_power_dbm_sweep", GRID),
]


@pytest.mark.parametrize("func,name,bad", [
    pytest.param(func, name, bad, id=f"{func.__name__}-{name}-{label}")
    for func, name, values in ARGUMENTS for label, bad in values.items()])
def test_bad_argument_rejected(func, name, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(name)} "):
        func(**{**VALID[func], name: bad})


def test_valid_arguments_pass():
    # every row's failure is its bad value's doing
    for func, kwargs in VALID.items():
        func(**kwargs)


def test_dbm_overflow_is_inf_with_a_warning():
    # finite dBm beyond the float range in watts give inf, not an error:
    # validate() relies on it to name noise_dbm or pb_power_dbm_sweep
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert dbm_to_watts(1e5) == math.inf
