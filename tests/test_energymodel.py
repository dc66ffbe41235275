import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from backsim.energymodel import NodeKind, duty_cycle_harvest, turn_on_energy
from backsim.scenario import ScenarioConfig
from oracles import EnergyLedger, ScalarNode, emitted_power, ledger_stepper, step_slot


@pytest.fixture
def config():
    return ScenarioConfig()


BACK, TRAD = NodeKind.BACKSCATTER, NodeKind.TRADITIONAL


def _slot(battery_j, incident_w, kind, config):
    """Step one node with the given battery through one slot on a fresh
    ledger, whose totals are then exactly that slot's flows."""
    num_tags = 1 if kind == BACK else 0
    ledger, step = ledger_stepper(np.array([incident_w]), num_tags, config)
    ledger.battery_j[0] = battery_j
    active, emitted = step()
    return active[0], emitted[0], ledger


def _backscatter_requirement(config):
    return config.sense_energy_j + config.digital_circuit_w * config.active_s


def _traditional_overhead(config):
    return (config.sense_energy_j
            + (config.digital_circuit_w + config.mixer_w + config.dac_w) * config.active_s)


def _traditional_requirement(config):
    return _traditional_overhead(config) + config.noise_w * config.active_s / config.pa_efficiency


def _harvest(incident_w, config):
    return _slot(0.0, incident_w, BACK, config)[2].harvested_j[0]


class TestHarvestedEnergy:
    def test_milliwatt_for_twenty_ms(self, config):
        assert _harvest(1e-3, config) == pytest.approx(1e-3 * 0.5 * 0.02, rel=1e-12)

    def test_linearity(self, config):
        assert _harvest(2e-3, config) == pytest.approx(2 * _harvest(1e-3, config))

    def test_bounded_by_incident_energy(self, config):
        lossless = replace(config, harvest_efficiency=1.0)
        assert _harvest(1e-3, lossless) <= 1e-3 * 0.02


class TestActivation:
    def test_backscatter_requirement(self, config):
        # sensing 0.1 uJ + digital 2.5 uW over 80 ms = 0.3 uJ
        assert _slot(3e-7 * (1 + 1e-9), 0.0, BACK, config)[0]
        assert not _slot(3e-7 * (1 - 1e-9), 0.0, BACK, config)[0]
        assert _slot(1.0, 0.0, BACK, config)[2].consumed_j[0] == pytest.approx(3e-7, rel=1e-12)

    @pytest.mark.parametrize("kind,expected", [
        (BACK, 1e-7 + 2.5e-6 * 0.08),
        # plus mixer and DAC, and the PA drain to radiate the 1 uW noise power
        (TRAD, 1e-7 + (2.5e-6 + 15e-6 + 1e-4) * 0.08 + 1e-6 * 0.08 / 0.5),
    ], ids=["backscatter", "traditional"])
    def test_closed_form_requirement(self, kind, expected):
        # -30 dBm noise makes the PA term 1.6% of the traditional
        # requirement; at the default -100 dBm it is below 1e-8 of it
        config = ScenarioConfig(noise_dbm=-30.0)
        assert _slot(expected * (1 + 1e-12), 0.0, kind, config)[0]
        assert not _slot(expected * (1 - 1e-12), 0.0, kind, config)[0]

    @pytest.mark.parametrize("field,value", [
        ("mixer_w", 1e-3), ("dac_w", 1e-2), ("pa_efficiency", 0.05)])
    def test_backscatter_ignores_radio_chain(self, config, field, value):
        changed = replace(config, **{field: value})
        # the traditional threshold moves: its old value no longer suffices
        assert _slot(_traditional_requirement(config), 0.0, TRAD, config)[0]
        assert not _slot(_traditional_requirement(config), 0.0, TRAD, changed)[0]
        incident = np.geomspace(1e-7, 1e-3, 9)  # silent, saving and active nodes
        base, step_base = ledger_stepper(incident, incident.size, config)
        other, step_other = ledger_stepper(incident, incident.size, changed)
        for _ in range(5):
            active, emitted = step_base()
            active_changed, emitted_changed = step_other()
            assert np.array_equal(active, active_changed)
            assert np.array_equal(emitted, emitted_changed)
        assert 0 < np.count_nonzero(base.slots_active) < base.slots_active.size
        for name, flows in vars(base).items():
            assert np.array_equal(flows, getattr(other, name))

    def test_boundary_is_inclusive(self, config):
        for kind, req in ((BACK, _backscatter_requirement(config)),
                          (TRAD, _traditional_requirement(config))):
            assert _slot(req, 0.0, kind, config)[0]
            assert not _slot(req * (1 - 1e-9), 0.0, kind, config)[0]

    def test_empty_battery_is_silent(self, config):
        assert not _slot(0.0, 0.0, BACK, config)[0]
        assert not _slot(0.0, 0.0, TRAD, config)[0]

    def test_abundance_is_active(self, config):
        assert _slot(1.0, 0.0, BACK, config)[0]
        assert _slot(1.0, 0.0, TRAD, config)[0]

    def test_traditional_requirement_larger(self, config):
        req = _backscatter_requirement(config)
        assert _traditional_requirement(config) > req
        assert _slot(req, 0.0, BACK, config)[0]
        assert not _slot(req, 0.0, TRAD, config)[0]

    def test_monotone_in_battery(self, config):
        grid = np.linspace(0.0, 2 * _traditional_requirement(config), 101)
        decisions = [bool(_slot(b, 0.0, TRAD, config)[0]) for b in grid]
        # once active, never flips back as battery grows
        assert decisions == sorted(decisions)
        assert 0 < sum(decisions) < len(decisions)


class TestTraditionalTxPower:
    def test_fifty_percent_amplifier(self, config):
        # battery holding overhead plus a 100 uW drain for the window
        battery = _traditional_overhead(config) + 100e-6 * config.active_s
        active, emitted, _ = _slot(battery, 0.0, TRAD, config)
        assert active
        assert emitted == pytest.approx(50e-6, rel=1e-12)

    def test_lossless_amplifier(self, config):
        lossless = replace(config, pa_efficiency=1.0)
        overhead = 1e-7 + (2.5e-6 + 15e-6 + 1e-4) * config.active_s
        battery = overhead + 100e-6 * config.active_s
        active, emitted, _ = _slot(battery, 0.0, TRAD, lossless)
        assert active
        assert emitted == pytest.approx(100e-6, rel=1e-12)

    def test_zero_residual_radiates_nothing(self, config):
        # a battery at exactly the overhead leaves the amplifier nothing,
        # which is below the noise floor, so the node stays silent
        active, emitted, slot = _slot(_traditional_overhead(config), 0.0, TRAD, config)
        assert not active and emitted == 0.0
        assert slot.consumed_j[0] == 0.0

    def test_threshold_radiates_noise_power(self):
        # an active traditional node radiates at least the noise power
        config = ScenarioConfig(noise_dbm=-30.0)
        active, emitted, _ = _slot(_traditional_requirement(config), 0.0, TRAD, config)
        assert active
        assert emitted == pytest.approx(config.noise_w, rel=1e-9)

    def test_emitted_power_is_exact_and_silence_is_positive_zero(self, config):
        # silent below, at and above the overhead, then active; the second
        # slot reverses the order, so the buffer's active entries turn silent.
        # An efficiency that is not a power of two pins the order of the
        # multiplication and the division.
        config = replace(config, pa_efficiency=0.37)
        overhead, required = _traditional_overhead(config), _traditional_requirement(config)
        battery = np.array([0.0, overhead / 2, overhead, (overhead + required) / 2,
                            required, 1.7 * required, 3 * required, 11.3 * required])
        ledger, step = ledger_stepper(np.zeros(battery.size), 0, config)
        for held in (battery, battery[::-1]):
            ledger.battery_j[:] = held
            active, emitted = step()
            np.testing.assert_array_equal(active, held >= required)
            assert active.sum() == 4
            assert (emitted[~active] == 0.0).all() and not np.signbit(emitted).any()
            for i in active.nonzero()[0]:
                assert emitted[i] == config.pa_efficiency * (held[i] - overhead) / config.active_s


class TestStepSlot:
    def test_bad_input_rejected(self, config):
        # a kind is whatever NodeKind's constructor takes: a member or its value
        assert turn_on_energy("traditional", config) == turn_on_energy(TRAD, config)
        with pytest.raises(ValueError, match="relay"):
            turn_on_energy("relay", config)

    def test_negative_incident_rejected_when_built(self, config):
        # the incident power is fixed for a stepper's life, so it is
        # checked once, before any slot runs
        ledger = EnergyLedger.empty(3)
        for bad in (-1e-12, math.nan):
            with pytest.raises(ValueError, match="^incident_w"):
                ledger_stepper(np.array([1e-3, bad, 0.0]), 0, config, ledger)
        assert ledger.harvested_j.tolist() == [0.0] * 3

    @pytest.mark.parametrize("battery", [-1.0, math.nan])
    def test_broken_battery_fails(self, config, battery):
        # no slot drives a battery below zero, so one that is there (or NaN)
        # can only come from broken accounting
        ledger, step = ledger_stepper(np.array([1e-3, 0.0]), 1, config)
        ledger.battery_j[1] = battery
        with pytest.raises(RuntimeError, match="battery went negative or NaN"):
            step()

    def test_dead_node_stays_silent(self, config):
        active, emitted, slot = _slot(0.0, 0.0, BACK, config)
        assert not active and emitted == 0.0
        assert slot.harvested_j[0] == 0.0 and slot.consumed_j[0] == 0.0
        assert slot.battery_j[0] == 0.0

    def test_backscatter_activation_chain(self, config):
        # 1 mW incident harvests 10 uJ in the 20 ms window, well over 0.3 uJ.
        active, emitted, slot = _slot(0.0, 1e-3, BACK, config)
        assert slot.harvested_j[0] == pytest.approx(1e-5, rel=1e-12)
        assert active
        assert emitted == 1e-3  # the full incident wave is reflected
        assert slot.consumed_j[0] == pytest.approx(3e-7, rel=1e-12)
        assert slot.battery_j[0] == pytest.approx(1e-5 - 3e-7, rel=1e-12)

    def test_traditional_full_drain(self, config):
        active, emitted, slot = _slot(0.0, 1e-3, TRAD, config)
        assert active
        assert slot.battery_j[0] == 0.0
        assert slot.consumed_j[0] == pytest.approx(1e-5, rel=1e-12)
        drain = 1e-5 - (1e-7 + (2.5e-6 + 15e-6 + 1e-4) * config.active_s)
        assert emitted == pytest.approx(0.5 * drain / config.active_s, rel=1e-9)

    def test_conservation_identity_every_slot(self, config):
        battery = 0.0
        rng = np.random.default_rng(11)
        for _ in range(500):
            _, _, slot = _slot(battery, float(rng.random() * 1e-5), BACK, config)
            harvested, consumed = slot.harvested_j[0], slot.consumed_j[0]
            assert slot.battery_j[0] == pytest.approx(battery + harvested - consumed, abs=1e-24)
            assert consumed <= battery + harvested + 1e-24
            battery = slot.battery_j[0]

    def test_cumulative_ledger_over_many_slots(self, config):
        ledger = EnergyLedger.empty(1)
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            # a new incident power each slot: one stepper per slot on one ledger
            ledger_stepper(np.array([rng.random() * 2e-6]), 0, config, ledger)[1]()
            assert ledger.battery_j[0] >= 0.0
        assert abs(ledger.drift_j()[0]) <= 1e-9 * ledger.harvested_j[0]


class TestActiveSetDominance:
    def test_backscatter_superset_of_traditional(self, config):
        # Identical topology and harvests: every node a traditional circuit
        # ever activates is also activated by the cheaper backscatter circuit,
        # and never less often.
        rng = np.random.default_rng(2)
        incidents = rng.random(40) * 3e-5
        for power_scale in (0.1, 1.0, 10.0):
            back, step_back = ledger_stepper(incidents * power_scale, incidents.size, config)
            trad, step_trad = ledger_stepper(incidents * power_scale, 0, config)
            for _ in range(100):
                step_back()
                step_trad()
            ever_back = set(np.flatnonzero(back.slots_active))
            ever_trad = set(np.flatnonzero(trad.slots_active))
            assert ever_trad <= ever_back
            assert np.all(back.slots_active >= trad.slots_active)


# A slot harvests incident x 0.01 s. A backscatter node (0.3 uJ) activates
# within one slot above 3e-5 W, a traditional node (about 9.5 uJ) above
# 9.5e-4 W or after saving over several slots; 1e-2 W is about what a node
# 1 m from a 50 dBm beacon receives.
_INCIDENT = st.one_of(st.just(0.0), st.floats(0.0, 1e-4), st.floats(0.0, 1e-2))


@st.composite
def _incident_slots(draw):
    """Incident powers of 1-6 nodes over 1-40 slots: up to six ``_INCIDENT``
    levels, and one integer per slot whose base-L digits pick each node's
    level among the L. Drawing up to 240 separate powers cost most of the
    test's time."""
    num_nodes = draw(st.integers(1, 6))
    levels = draw(st.lists(_INCIDENT, min_size=1, max_size=6))
    base = len(levels)
    picks = draw(st.lists(st.integers(0, base**num_nodes - 1), min_size=1, max_size=40))
    return [[levels[pick // base**node % base] for node in range(num_nodes)] for pick in picks]


def _assert_agrees_with_oracle(kind, slots, one_stepper):
    """Step a ledger through ``slots``, one incident list per slot, and
    require equality with the scalar oracle every slot and on the totals.

    ``one_stepper`` runs every slot on one stepper, reusing its buffers as
    the sweep does (the incident power must then be the same each slot);
    otherwise each slot builds its own stepper on the shared ledger.
    """
    config = ScenarioConfig()
    nodes = [ScalarNode() for _ in slots[0]]
    num_tags = len(nodes) if kind == BACK else 0
    ledger, step = ledger_stepper(np.array(slots[0]), num_tags, config)
    for incident in slots:
        if not one_stepper:
            step = ledger_stepper(np.array(incident), num_tags, config, ledger)[1]
        active, emitted = step()
        outcomes = [step_slot(node, inc, kind, config) for node, inc in zip(nodes, incident)]
        assert active.tolist() == [o.was_active for o in outcomes]
        assert emitted.tolist() == [emitted_power(o, inc) for o, inc in zip(outcomes, incident)]
        assert ledger.battery_j.tolist() == [nd.battery_j for nd in nodes]
    assert ledger.harvested_j.tolist() == [nd.harvested_total_j for nd in nodes]
    assert ledger.consumed_j.tolist() == [nd.consumed_total_j for nd in nodes]
    assert ledger.slots_active.tolist() == [nd.slots_active for nd in nodes]


class TestArrayStepMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(NodeKind)), slots=_incident_slots())
    def test_exact_agreement(self, kind, slots):
        _assert_agrees_with_oracle(kind, slots, one_stepper=False)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(list(NodeKind)),
           incident=st.lists(_INCIDENT, min_size=1, max_size=6),
           num_slots=st.integers(1, 40))
    def test_one_stepper_at_constant_incident(self, kind, incident, num_slots):
        # the sweep's path: one stepper for the whole run
        _assert_agrees_with_oracle(kind, [incident] * num_slots, one_stepper=True)


class TestDutyCycleTradeoff:
    def test_always_silent(self, config):
        assert duty_cycle_harvest(0.0, 1e-3, config) == pytest.approx(0.5 * 1e-3)

    def test_always_reflecting(self, config):
        assert duty_cycle_harvest(1.0, 1e-3, config) == 0.0

    def test_default_slot_split(self, config):
        # the 80/100 ms active share of the slotted experiment
        alpha = config.active_ms / (config.harvest_ms + config.active_ms)
        harvest = duty_cycle_harvest(alpha, 1e-3, config)
        assert alpha == pytest.approx(0.8)
        assert harvest == pytest.approx(0.5 * 1e-3 * 0.2, rel=1e-12)

    def test_monotone_frontier(self, config):
        harvests = [duty_cycle_harvest(a, 1e-3, config) for a in np.linspace(0.0, 1.0, 11)]
        assert all(h1 > h2 for h1, h2 in zip(harvests, harvests[1:]))
