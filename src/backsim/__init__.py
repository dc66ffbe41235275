"""Seeded Monte Carlo simulator of wirelessly powered backscatter networks."""

from .channel import LinkBudget, dbm_to_watts, friis_gain
from .dyadic import estimate_diversity_order, simulate_dyadic_ber
from .energymodel import (ConsumptionProfile, EnergyLedger, activation_decision,
                          duty_cycle_tradeoff, harvested_energy, step_population,
                          traditional_tx_power)
from .mac import (aggregate_interference, co_slot_mask, count_interference_components,
                  tdma_schedule, th_ss_assign, th_ss_collision_probability)
from .netsim import ExperimentResult, run_comparison, run_population
from .phylink import (ReflectionConstellation, bpsk_ber, energy_rate_frontier, q_function,
                      scale_constellation)
from .scenario import NodeKind, ScenarioConfig, derive_stream, load_config, place_nodes

__version__ = "0.1.0"
