"""The engine names the benchmark rebinds stay where it rebinds them.

`perfbench` traces and paces the engine from outside, by replacing a
function at the name its callers look it up by (README, Tests).  A
refactor that moves one of these names, or has a caller reach the
function another way, silently detaches the tracer or the paced clock.
"""

import re
from pathlib import Path

from motifsim import agents, games, model, rules, sim
from motifsim.lang import parse
from motifsim.scenarios import THERMOSTAT, THERMOSTAT_DELIBERATIVE

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

FUNCTIONS = [
    (sim, "run"), (sim, "step_candidates"),
    (games, "step_candidates"), (games, "ground"), (games, "solve_safety"),
    (games, "solve_reach"),
    (rules, "apply"), (rules, "enabled_bindings"),
    (agents, "plan_horizon"), (agents, "perceive"), (agents, "reflect"),
    (agents, "adapt"), (agents, "manage_goals"), (agents, "decide"),
]

METHODS = [
    (sim.World, "advance"), (sim.Trace, "text"), (agents.AgentRuntime, "step"),
    (rules.Rule, "guard_fn"), (model.Configuration, "state_hash"),
    (model.Configuration, "canonical_key"), (model.Configuration, "clone"),
]


def _system(text):
    m, diags = parse(text)
    assert m is not None, diags
    return m.build()


def test_readme_lists_exactly_the_rebound_names():
    block = README[README.index("- module functions"):].split("\n\n")[0]
    listed = []
    for name in re.findall(r"`([\w.]*\.\w+)`", block):
        # `.canonical_key` continues the class named before it
        listed.append(listed[-1].split(".")[0] + name if name[0] == "." else name)
    assert sorted(listed) == sorted(
        [f"{mod.__name__.split('.')[-1]}.{attr}" for mod, attr in FUNCTIONS]
        + [f"{cls.__name__}.{attr}" for cls, attr in METHODS])


def test_callers_look_each_name_up_where_it_is_rebound(monkeypatch):
    calls = {}

    def counting(owner, attr):
        fn = getattr(owner, attr)
        assert callable(fn), (owner, attr)
        calls[(owner, attr)] = 0

        def counted(*args, **kwargs):
            calls[(owner, attr)] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    for owner, attr in FUNCTIONS + METHODS:
        counting(owner, attr)
    # a deliberative run exercises the scheduler and every agent phase;
    # its agent lists each state the scheduler enters first, so the
    # scheduler's own listing is reached by a run without agents.  No
    # engine path calls `canonical_key`: `ground` confirms a revisited
    # state hash with `Configuration.same_key`, which builds no key.  The
    # benchmark still rebinds it, and calls it in its own replay check,
    # so it stays listed, but no call of it is required here.
    sim.run(_system(THERMOSTAT_DELIBERATIVE), steps=5).text()
    system = _system(THERMOSTAT)
    sim.run(system, steps=5)
    game = games.ground(system.cfg, "h1", bad=system.goals["band"].holds)
    games.solve_reach(game, within=games.solve_safety(game))
    optional = {(model.Configuration, "canonical_key")}
    assert not [name for name, n in calls.items() if not n and name not in optional]


def test_ground_and_plan_list_candidates_through_games(monkeypatch):
    listing = games.step_candidates
    calls = []

    def counting(cfg):
        calls.append(cfg.state_hash())
        return listing(cfg)

    monkeypatch.setattr(games, "step_candidates", counting)
    system = _system(THERMOSTAT)
    game = games.ground(system.cfg, "h1")
    # one listing per configuration reached
    assert sorted(calls) == sorted({s.world for s in game.states})
    calls.clear()
    games.plan_horizon(system.cfg, "h1", [system.goals["band"]], 2)
    assert calls and calls[0] == system.cfg.state_hash()
