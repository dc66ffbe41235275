import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backsim.energymodel import (ConsumptionProfile, EnergyLedger, activation_decision,
                                 duty_cycle_tradeoff, harvested_energy,
                                 required_active_energy, step_population,
                                 traditional_tx_power)
from backsim.scenario import NodeKind, ScenarioConfig
from oracles import ScalarNode, emitted_power, step_slot


@pytest.fixture
def config():
    return ScenarioConfig().validate()


@pytest.fixture
def back_profile(config):
    return ConsumptionProfile.for_kind(NodeKind.BACKSCATTER, config)


@pytest.fixture
def trad_profile(config):
    return ConsumptionProfile.for_kind(NodeKind.TRADITIONAL, config)


def _slot(battery_j, incident_w, profile, config):
    """Step one node with the given battery through one slot on a fresh
    ledger, whose totals are then exactly that slot's flows."""
    ledger = EnergyLedger.empty(1)
    ledger.battery_j[0] = battery_j
    active, emitted = step_population(ledger, np.array([incident_w]), profile, config)
    return active[0], emitted[0], ledger


class TestConsumptionProfile:
    def test_backscatter_has_no_mixer_or_dac(self, back_profile):
        assert back_profile.mixer_w == 0.0 and back_profile.dac_w == 0.0

    def test_backscatter_mixer_draw_rejected(self):
        with pytest.raises(ValueError):
            ConsumptionProfile(kind=NodeKind.BACKSCATTER, digital_w=2.5e-6,
                               mixer_w=15e-6, dac_w=0.0, pa_efficiency=1.0,
                               sense_energy_j=1e-7, min_radiated_w=0.0)

    def test_traditional_draws_from_config(self, trad_profile, config):
        assert trad_profile.mixer_w == config.mixer_w
        assert trad_profile.dac_w == config.dac_w
        assert trad_profile.min_radiated_w == config.noise_w


class TestHarvestedEnergy:
    def test_milliwatt_for_twenty_ms(self):
        assert harvested_energy(1e-3, 0.5, 0.02) == pytest.approx(1e-5, rel=1e-12)

    def test_zero_efficiency(self):
        assert harvested_energy(1e-3, 0.0, 0.02) == 0.0

    def test_linearity(self):
        assert harvested_energy(2e-3, 0.5, 0.02) == pytest.approx(
            2 * harvested_energy(1e-3, 0.5, 0.02))

    def test_bounded_by_incident_energy(self):
        assert harvested_energy(1e-3, 1.0, 0.02) <= 1e-3 * 0.02


class TestActivation:
    def test_backscatter_requirement(self, back_profile, config):
        # sensing 0.1 uJ + digital 2.5 uW over 80 ms = 0.3 uJ
        assert required_active_energy(back_profile, config) == pytest.approx(3e-7, rel=1e-12)

    def test_boundary_is_inclusive(self, back_profile, config):
        req = required_active_energy(back_profile, config)
        assert activation_decision(req, back_profile, config)
        assert not activation_decision(req * (1 - 1e-9), back_profile, config)

    def test_empty_battery_is_silent(self, back_profile, trad_profile, config):
        assert not activation_decision(0.0, back_profile, config)
        assert not activation_decision(0.0, trad_profile, config)

    def test_abundance_is_active(self, back_profile, trad_profile, config):
        assert activation_decision(1.0, back_profile, config)
        assert activation_decision(1.0, trad_profile, config)

    def test_traditional_requirement_larger(self, back_profile, trad_profile, config):
        assert (required_active_energy(trad_profile, config)
                > required_active_energy(back_profile, config))

    def test_monotone_in_battery(self, trad_profile, config):
        req = required_active_energy(trad_profile, config)
        grid = np.linspace(0.0, 2 * req, 101)
        decisions = [activation_decision(b, trad_profile, config) for b in grid]
        # once active, never flips back as battery grows
        assert decisions == sorted(decisions)


class TestTraditionalTxPower:
    def test_fifty_percent_amplifier(self, trad_profile, config):
        # battery holding overhead plus a 100 uW drain for the window
        overhead = (trad_profile.sense_energy_j
                    + (trad_profile.digital_w + trad_profile.mixer_w + trad_profile.dac_w)
                    * config.active_s)
        battery = overhead + 100e-6 * config.active_s
        assert traditional_tx_power(battery, trad_profile, config) == pytest.approx(
            50e-6, rel=1e-12)

    def test_lossless_amplifier(self, config):
        profile = ConsumptionProfile(kind=NodeKind.TRADITIONAL, digital_w=2.5e-6,
                                     mixer_w=15e-6, dac_w=1e-4, pa_efficiency=1.0,
                                     sense_energy_j=1e-7, min_radiated_w=0.0)
        overhead = 1e-7 + (2.5e-6 + 15e-6 + 1e-4) * config.active_s
        battery = overhead + 100e-6 * config.active_s
        assert traditional_tx_power(battery, profile, config) == pytest.approx(
            100e-6, rel=1e-12)

    def test_zero_residual_radiates_nothing(self, trad_profile, config):
        overhead = (trad_profile.sense_energy_j
                    + (trad_profile.digital_w + trad_profile.mixer_w + trad_profile.dac_w)
                    * config.active_s)
        assert traditional_tx_power(overhead, trad_profile, config) == 0.0

    def test_negative_residual_is_contract_violation(self, trad_profile, config):
        with pytest.raises(ValueError):
            traditional_tx_power(0.0, trad_profile, config)


class TestStepSlot:
    def test_dead_node_stays_silent(self, back_profile, config):
        active, emitted, slot = _slot(0.0, 0.0, back_profile, config)
        assert not active and emitted == 0.0
        assert slot.harvested_j[0] == 0.0 and slot.consumed_j[0] == 0.0
        assert slot.battery_j[0] == 0.0

    def test_backscatter_activation_chain(self, back_profile, config):
        # 1 mW incident harvests 10 uJ in the 20 ms window, well over 0.3 uJ.
        active, emitted, slot = _slot(0.0, 1e-3, back_profile, config)
        assert slot.harvested_j[0] == pytest.approx(1e-5, rel=1e-12)
        assert active
        assert emitted == 1e-3  # the full incident wave is reflected
        assert slot.consumed_j[0] == pytest.approx(3e-7, rel=1e-12)
        assert slot.battery_j[0] == pytest.approx(1e-5 - 3e-7, rel=1e-12)

    def test_traditional_full_drain(self, trad_profile, config):
        active, emitted, slot = _slot(0.0, 1e-3, trad_profile, config)
        assert active
        assert slot.battery_j[0] == 0.0
        assert slot.consumed_j[0] == pytest.approx(1e-5, rel=1e-12)
        drain = 1e-5 - (1e-7 + (2.5e-6 + 15e-6 + 1e-4) * config.active_s)
        assert emitted == pytest.approx(0.5 * drain / config.active_s, rel=1e-9)

    def test_conservation_identity_every_slot(self, back_profile, config):
        battery = 0.0
        rng = np.random.default_rng(11)
        for _ in range(500):
            _, _, slot = _slot(battery, float(rng.random() * 1e-5), back_profile, config)
            harvested, consumed = slot.harvested_j[0], slot.consumed_j[0]
            assert slot.battery_j[0] == pytest.approx(battery + harvested - consumed, abs=1e-24)
            assert consumed <= battery + harvested + 1e-24
            battery = slot.battery_j[0]

    def test_cumulative_ledger_over_many_slots(self, trad_profile, config):
        ledger = EnergyLedger.empty(1)
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            step_population(ledger, np.array([rng.random() * 2e-6]), trad_profile, config)
            assert ledger.battery_j[0] >= 0.0
        assert abs(ledger.drift_j()[0]) <= 1e-9 * ledger.harvested_j[0]


class TestActiveSetDominance:
    def test_backscatter_superset_of_traditional(self, config):
        # Identical topology and harvests: every node a traditional circuit
        # ever activates is also activated by the cheaper backscatter circuit,
        # and never less often.
        rng = np.random.default_rng(2)
        incidents = rng.random(40) * 3e-5
        bp = ConsumptionProfile.for_kind(NodeKind.BACKSCATTER, config)
        tp = ConsumptionProfile.for_kind(NodeKind.TRADITIONAL, config)
        for power_scale in (0.1, 1.0, 10.0):
            back = EnergyLedger.empty(incidents.size)
            trad = EnergyLedger.empty(incidents.size)
            for _ in range(100):
                step_population(back, incidents * power_scale, bp, config)
                step_population(trad, incidents * power_scale, tp, config)
            ever_back = set(np.flatnonzero(back.slots_active))
            ever_trad = set(np.flatnonzero(trad.slots_active))
            assert ever_trad <= ever_back
            assert np.all(back.slots_active >= trad.slots_active)


# A slot harvests incident x 0.01 s. A backscatter node (0.3 uJ) activates
# within one slot above 3e-5 W, a traditional node (about 9.5 uJ) above
# 9.5e-4 W or after saving over several slots; 1e-2 W is about what a node
# 1 m from a 50 dBm beacon receives.
_INCIDENT = st.one_of(st.just(0.0), st.floats(0.0, 1e-4), st.floats(0.0, 1e-2))


class TestArrayStepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(NodeKind)),
           slots=st.integers(1, 6).flatmap(lambda n: st.lists(
               st.lists(_INCIDENT, min_size=n, max_size=n), min_size=1, max_size=40)))
    def test_exact_agreement(self, kind, slots):
        config = ScenarioConfig().validate()
        profile = ConsumptionProfile.for_kind(kind, config)
        n = len(slots[0])
        ledger = EnergyLedger.empty(n)
        nodes = [ScalarNode() for _ in range(n)]
        for incident in slots:
            active, emitted = step_population(ledger, np.array(incident), profile, config)
            outcomes = [step_slot(node, inc, profile, config)
                        for node, inc in zip(nodes, incident)]
            assert active.tolist() == [o.was_active for o in outcomes]
            assert emitted.tolist() == [emitted_power(o, inc)
                                        for o, inc in zip(outcomes, incident)]
            assert ledger.battery_j.tolist() == [nd.battery_j for nd in nodes]
        assert ledger.harvested_j.tolist() == [nd.harvested_total_j for nd in nodes]
        assert ledger.consumed_j.tolist() == [nd.consumed_total_j for nd in nodes]
        assert ledger.slots_active.tolist() == [nd.slots_active for nd in nodes]


class TestDutyCycleTradeoff:
    def test_always_silent(self, config):
        harvest, rate = duty_cycle_tradeoff(0.0, 1e-3, 1.0, config)
        assert harvest == pytest.approx(0.5 * 1e-3)
        assert rate == 0.0

    def test_always_reflecting(self, config):
        harvest, rate = duty_cycle_tradeoff(1.0, 1e-3, 1.0, config)
        assert harvest == 0.0
        assert rate == 1.0

    def test_default_slot_split(self, config):
        # the 80/100 ms active share of the slotted experiment
        alpha = config.active_ms / config.slot_ms
        harvest, rate = duty_cycle_tradeoff(alpha, 1e-3, 1.0, config)
        assert rate == pytest.approx(0.8)
        assert harvest == pytest.approx(0.5 * 1e-3 * 0.2, rel=1e-12)

    def test_monotone_frontier(self, config):
        grid = np.linspace(0.0, 1.0, 11)
        points = [duty_cycle_tradeoff(a, 1e-3, 1.0, config) for a in grid]
        harvests = [p[0] for p in points]
        rates = [p[1] for p in points]
        assert all(h1 > h2 for h1, h2 in zip(harvests, harvests[1:]))
        assert all(r1 < r2 for r1, r2 in zip(rates, rates[1:]))

    def test_alpha_out_of_range(self, config):
        with pytest.raises(ValueError):
            duty_cycle_tradeoff(1.5, 1e-3, 1.0, config)
