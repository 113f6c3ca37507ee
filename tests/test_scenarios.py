from motifsim import load, sim
from motifsim.scenarios import (
    BUNDLED, PLATOON, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)
from motifsim.lang import parse, print_model


def _build(text):
    system, diags = load(text)
    assert system is not None, diags
    return system


def test_bundled_models_parse_and_build():
    for text in BUNDLED.values():
        system = _build(text)
        assert system.cfg.components
        assert system.scenario is not None


def test_bundled_models_are_canonical():
    for text in BUNDLED.values():
        assert print_model(_build(text).model) == text


def test_thermostat_band_short_sweep():
    for seed in (0, 1, 2):
        trace = sim.run(_build(THERMOSTAT), steps=500, seed=seed)
        assert all(c.ok for c in trace.checks), (seed, trace.summary())


def test_thermostat_deliberative_runs():
    model, diags = parse(THERMOSTAT_DELIBERATIVE)
    assert model is not None, diags
    system = model.build()
    assert "h1" in system.agent_defs
    trace = sim.run(system, steps=120, seed=0)
    assert all(c.ok for c in trace.checks), trace.summary()
    # the agent's beliefs are recorded alongside every event
    assert all("h1" in e["beliefs"] for e in trace.events)


def test_platoon_short_sweep():
    for seed in (0, 5):
        trace = sim.run(_build(PLATOON), steps=300, seed=seed)
        by_name = {c.name: c for c in trace.checks}
        for name, c in by_name.items():
            if name != "formed":
                assert c.ok, (seed, name, c.first_fail)


def test_platoon_forms_on_default_scenario():
    trace = sim.run(_build(PLATOON))
    assert all(c.ok for c in trace.checks), trace.summary()


def test_soccer_short_sweep():
    for seed in (0, 3):
        trace = sim.run(_build(SOCCER), steps=200, seed=seed)
        assert all(c.ok for c in trace.checks), (seed, trace.summary())


def test_shuttle_never_skips_a_node():
    system = _build(SHUTTLE)
    trace = sim.run(system)
    assert all(c.ok for c in trace.checks)
    assert trace.steps == 100
    # one ring step per event, never skipping a node
    assert all(e["rule"] == "go" for e in trace.events)
    final = sim.replay(_build(SHUTTLE), trace.text())
    assert final.components["bus"].state["laps"] == 100
    assert final.address("bus", "route") == 100 % 6
