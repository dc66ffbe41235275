"""Seeded Monte Carlo simulator of wirelessly powered backscatter networks."""

from .channel import dbm_to_watts, friis_gain
from .dyadic import simulate_dyadic_ber
from .energymodel import NodeKind, duty_cycle_harvest
from .mac import (aggregate_interference, co_slot_mask, count_interference_components,
                  th_ss_assign, th_ss_collision_probability)
from .netsim import run_comparison
from .phylink import bpsk_ber, energy_rate_frontier, q_function
from .scenario import ScenarioConfig, derive_stream, load_config, place_nodes

__version__ = "0.1.0"
