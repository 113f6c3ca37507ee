"""No engine entry point leaves cyclic garbage.

Reference counting frees every configuration, context, binding and
planner memo as soon as it is dropped, so a long run never waits on
the cycle collector for its steps' garbage.  Each test builds its
inputs, then runs one entry point with the collector off and asserts
that a collection afterwards finds nothing to free.  A recorded step
also allocates as few containers as it can, since each one counts
towards the collector's next pass.
"""

import gc
import platform

import pytest

from motifsim import NoSafePlan, ground, load, plan_horizon, sim, solve_reach, solve_safety
from motifsim.errors import EvalError
from motifsim.scenarios import (
    BUNDLED, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)

from test_acceptance import SMALL_PLATOON
from test_model import PLATOON_DELIBERATIVE
from test_rules import RUNTIME


def _system(text):
    system, diags = load(text)
    assert system is not None, diags
    return system


def _cyclic_garbage(fn):
    """How many objects the cycle collector frees after `fn()` has run
    with the collector off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", BUNDLED)
def test_a_run_and_its_replay_leave_no_cycles(name):
    system = _system(BUNDLED[name])
    trace = sim.run(system)
    assert _cyclic_garbage(lambda: sim.run(_system(BUNDLED[name]))) == 0
    assert _cyclic_garbage(lambda: sim.replay(system, trace.text())) == 0


@pytest.mark.parametrize("text", [THERMOSTAT_DELIBERATIVE, PLATOON_DELIBERATIVE],
                         ids=["thermostat", "platoon"])
def test_a_deliberative_world_leaves_no_cycles(text):
    world = sim.World(_system(text), seed=0)

    def drive():
        for _ in range(50):
            world.advance()

    assert _cyclic_garbage(drive) == 0
    assert world.step_no == 50


SMALL_SHUTTLE = SHUTTLE.replace("int[0, 100000]", "int[0, 5]")


@pytest.mark.parametrize("text, ego, goal", [
    (THERMOSTAT, "h1", "band"), (SOCCER, "p1", None), (SMALL_SHUTTLE, "bus", None),
    (SMALL_PLATOON, "a1", None),
], ids=["thermostat", "soccer", "shuttle", "platoon"])
def test_grounding_and_solving_leave_no_cycles(text, ego, goal):
    system = _system(text)
    bad = system.goals[goal].holds if goal else None

    def synth():
        game = ground(system.cfg, ego, max_states=20000, bad=bad)
        solve_reach(game, within=solve_safety(game))

    assert _cyclic_garbage(synth) == 0


def test_plans_leave_no_cycles_whether_or_not_one_is_found():
    system = _system(THERMOSTAT + "\ngoal trap critical avoid (room.temp >= 17.0);\n")
    band, trap = system.goals["band"], system.goals["trap"]

    def trapped():
        try:
            plan_horizon(system.cfg, "h1", [trap], 2)
        except NoSafePlan:
            return
        raise AssertionError("a plan avoids the trap")

    assert _cyclic_garbage(lambda: plan_horizon(system.cfg, "h1", [band], 3).render()) == 0
    assert _cyclic_garbage(trapped) == 0


def test_a_failing_effect_leaves_no_cycles():
    system = _system(RUNTIME.format(rule="a: car if @(a) = 0 then { a.speed := 7; }"))
    events = []
    assert _cyclic_garbage(lambda: events.extend(sim.run(system, steps=1).events)) == 0
    assert [e["error"] for e in events] == ["7 outside int[0, 3]"]


def test_a_failing_guard_leaves_no_cycles():
    system = _system(RUNTIME.format(rule="a: car if distance(@(c3), 0) = 0;"))

    def step():
        try:
            sim.run(system, steps=1)
        except EvalError:
            return
        raise AssertionError("the guard evaluated")

    assert _cyclic_garbage(step) == 0


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="reads CPython's count of container allocations")
def test_a_recorded_step_allocates_one_container():
    # once every state's record is filled and every move has fired, an
    # agent-free step allocates only its event dict: its `beliefs` is
    # the shared `sim.NO_BELIEFS`, and its `binding` is its move's
    world = sim.World(_system(THERMOSTAT), seed=3)
    for _ in range(5000):
        world.advance()
    events = [None] * 1000
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for i in range(1000):
            events[i] = world.advance()
        grown = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    # the one more is the tuple the second `gc.get_count()` returns
    assert grown <= len(events) + 1
    assert all(e["beliefs"] is sim.NO_BELIEFS for e in events)
