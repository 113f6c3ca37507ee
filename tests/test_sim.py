import json
import operator
import random
from collections import Counter

import pytest

from motifsim import agents, games, model, sim
from motifsim.errors import EffectError, ReplayDivergence
from motifsim.expr import Ctx, Scope
from motifsim.games import IDLE, Controller, ground, solve_safety
from motifsim.lang import parse
from motifsim.rules import step_candidates
from motifsim.scenarios import (
    PLATOON, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE)
from test_model import PLATOON_DELIBERATIVE, TWO_AGENTS


def _system(text):
    model, diags = parse(text)
    assert model is not None, diags
    return model.build()


# -- determinism and traces --------------------------------------------------


def test_traces_are_byte_identical():
    a = sim.run(_system(SHUTTLE))
    b = sim.run(_system(SHUTTLE))
    assert a.text() == b.text()


def test_different_seeds_usually_differ():
    a = sim.run(_system(PLATOON), steps=50, seed=0)
    b = sim.run(_system(PLATOON), steps=50, seed=1)
    assert a.text() != b.text()


def test_trace_shape():
    trace = sim.run(_system(SHUTTLE), steps=5)
    lines = trace.text().splitlines()
    header = json.loads(lines[0])
    assert set(header) == {"model", "hash", "seed", "policy", "steps"}
    assert header["hash"] == model.HASH_VERSION
    assert len(lines) == 6
    for ln in lines[1:]:
        e = json.loads(ln)
        assert e["rule"] == "go"
        assert e["unc"] is True


def test_quiescence_stops_the_run():
    system = _system("""\
type rock object {
  var n: int[0, 1];
}

motif pile {
  map line(1);
}

component r1: rock in pile at 0;
""")
    trace = sim.run(system, steps=50)
    assert trace.steps == 0
    assert trace.final.state_hash() == system.cfg.state_hash()


def test_checks_always_and_finally():
    trace = sim.run(_system(SHUTTLE))
    by_name = {c.name: c for c in trace.checks}
    assert by_name["onroute"].ok
    failing = _system(SHUTTLE.replace(
        "check onroute always (placed(bus, route));",
        "check stuck always (@(bus, route) = 0);\n"
        "  check done finally (bus.laps = 0);"))
    trace = sim.run(failing)
    by_name = {c.name: c for c in trace.checks}
    assert not by_name["stuck"].ok and by_name["stuck"].first_fail == 0
    assert not by_name["done"].ok
    assert "FAIL" in trace.summary()


# -- replay ------------------------------------------------------------------


def test_replay_rebuilds_the_final_state():
    system = _system(PLATOON)
    trace = sim.run(system, steps=60)
    final = sim.replay(_system(PLATOON), trace.text())
    assert final.state_hash() == trace.final.state_hash()
    assert final.canonical_key() == trace.final.canonical_key()


def test_replay_detects_tampering():
    system = _system(SHUTTLE)
    trace = sim.run(system, steps=5)
    lines = trace.text().splitlines()
    e = json.loads(lines[3])
    e["post"] = "0" * 16
    lines[3] = json.dumps(e, sort_keys=True)
    with pytest.raises(ReplayDivergence) as exc:
        sim.replay(_system(SHUTTLE), "\n".join(lines))
    assert exc.value.step == 2


def test_replay_rejects_other_models():
    trace = sim.run(_system(SHUTTLE), steps=3)
    with pytest.raises(ReplayDivergence):
        sim.replay(_system(THERMOSTAT), trace.text())
    with pytest.raises(ReplayDivergence):
        sim.replay(_system(SHUTTLE), "")


def _forge(trace, i, **fields):
    """`trace`'s text with event `i` updated by `fields` (None deletes)."""
    lines = trace.text().splitlines()
    e = json.loads(lines[i + 1])
    e.update(fields)
    lines[i + 1] = json.dumps({k: v for k, v in e.items() if v is not None},
                              sort_keys=True)
    return "\n".join(lines)


def test_replay_checks_the_rule_of_an_error_event():
    # an error event keeps the state, so its post hash alone proves
    # nothing: the recorded rule instance must be enabled and must fail
    system = _system(SHUTTLE)
    trace = sim.run(system, steps=3)
    forged = _forge(trace, 0, motif="nowhere", rule="bogus", binding={},
                    error="x", post=system.cfg.state_hash())
    with pytest.raises(ReplayDivergence, match="not enabled") as exc:
        sim.replay(_system(SHUTTLE), forged)
    assert exc.value.step == 0


def test_replay_checks_the_recorded_error():
    system = _system(SHUTTLE)
    trace = sim.run(system, steps=3)
    # an enabled command that fires cannot be recorded as failed
    forged = _forge(trace, 1, error="x", post=trace.events[0]["post"])
    with pytest.raises(ReplayDivergence, match="differs") as exc:
        sim.replay(_system(SHUTTLE), forged)
    assert exc.value.step == 1
    loner = sim.run(_system(LONER), steps=3)
    # a failing command cannot be recorded as fired, nor with another error
    for error in (None, "x"):
        with pytest.raises(ReplayDivergence, match="differs") as exc:
            sim.replay(_system(LONER), _forge(loner, 2, error=error))
        assert exc.value.step == 2


def test_replay_rejects_a_trace_of_an_older_state_hash():
    # version 1 traces carry no `hash` field; their hashes cannot match
    trace = sim.run(_system(SHUTTLE), steps=3)
    lines = trace.text().splitlines()
    header = json.loads(lines[0])
    del header["hash"]
    lines[0] = json.dumps(header, sort_keys=True)
    with pytest.raises(ReplayDivergence, match="older state hash") as exc:
        sim.replay(_system(SHUTTLE), "\n".join(lines))
    assert exc.value.step == 0
    assert "mismatch" not in str(exc.value)


def _with_line(trace, i, text):
    """`trace`'s text with its line `i` (0 the header) replaced by `text`."""
    lines = trace.text().splitlines()
    lines[i] = text
    return "\n".join(lines)


@pytest.mark.parametrize("line", [
    pytest.param(lambda ln: ln[:len(ln) // 2], id="truncated"),
    pytest.param(lambda ln: '{"step": 2}', id="no-post"),
    pytest.param(lambda ln: "[1, 2]", id="not-an-object"),
])
def test_a_malformed_event_line_diverges_at_its_step(line):
    trace = sim.run(_system(SHUTTLE), steps=5)
    text = trace.text().splitlines()[3]
    forged = _with_line(trace, 3, line(text))
    with pytest.raises(ReplayDivergence, match="malformed event at step 2") as exc:
        sim.replay(_system(SHUTTLE), forged)
    assert exc.value.step == 2


@pytest.mark.parametrize("step", [99, "x", 2.0],
                         ids=["another-int", "a-string", "a-float"])
def test_an_event_line_whose_step_is_not_its_index_diverges(step):
    trace = sim.run(_system(SHUTTLE), steps=5)
    e = json.loads(trace.text().splitlines()[3])
    assert e["step"] == 2
    forged = _with_line(trace, 3, json.dumps({**e, "step": step}))
    with pytest.raises(ReplayDivergence, match="event 2 records step") as exc:
        sim.replay(_system(SHUTTLE), forged)
    assert exc.value.step == 2


@pytest.mark.parametrize("header", ['["model", "hash"]', '{"model": ', "7"],
                         ids=["list", "truncated", "number"])
def test_a_header_that_is_not_an_object_diverges_at_step_0(header):
    trace = sim.run(_system(SHUTTLE), steps=3)
    with pytest.raises(ReplayDivergence, match="header is not a JSON object") as exc:
        sim.replay(_system(SHUTTLE), _with_line(trace, 0, header))
    assert exc.value.step == 0


def test_replay_header_only_returns_initial():
    system = _system(SHUTTLE)
    trace = sim.run(system, steps=0)
    final = sim.replay(_system(SHUTTLE), trace.text())
    assert final.state_hash() == system.cfg.state_hash()


# -- events and their beliefs ------------------------------------------------


def _advanced(system, steps, seed=0, controllers=None):
    """The events of a `World` driven through `advance` alone."""
    world = sim.World(system, seed=seed, controllers=controllers)
    events = []
    for _ in range(steps):
        e = world.advance()
        if e is None:
            break
        events.append(e)
    return events


@pytest.mark.parametrize("steered", [False, True], ids=["free", "steered"])
def test_an_agent_free_event_holds_the_shared_empty_beliefs(steered):
    system = _system(THERMOSTAT)
    controllers = _band_controller(system) if steered else None
    trace = sim.run(system, steps=300, seed=1, controllers=controllers)
    events = _advanced(system, 300, seed=1, controllers=controllers)
    assert len(trace.events) == len(events) == 300
    assert all(e["beliefs"] is sim.NO_BELIEFS
               for e in (*trace.events, *events))
    assert sim.NO_BELIEFS == {}
    assert '"beliefs": {}' in trace.text()


@pytest.mark.parametrize("change", [
    pytest.param(lambda d: operator.setitem(d, "h1", "x"), id="setitem"),
    pytest.param(lambda d: operator.delitem(d, "h1"), id="delitem"),
    pytest.param(lambda d: d.update(h1="x"), id="update"),
    pytest.param(lambda d: d.setdefault("h1", "x"), id="setdefault"),
    pytest.param(lambda d: d.pop("h1", None), id="pop"),
    pytest.param(lambda d: d.popitem(), id="popitem"),
    pytest.param(lambda d: d.clear(), id="clear"),
    pytest.param(lambda d: operator.ior(d, {"h1": "x"}), id="ior"),
])
def test_the_shared_beliefs_refuse_every_change(change):
    with pytest.raises(TypeError, match="read-only"):
        change(sim.NO_BELIEFS)
    assert sim.NO_BELIEFS == {} and len(sim.NO_BELIEFS) == 0
    assert json.dumps(sim.NO_BELIEFS) == "{}"


@pytest.mark.parametrize("text", [THERMOSTAT_DELIBERATIVE, TWO_AGENTS],
                         ids=["thermostat", "two-agents"])
def test_a_deliberative_event_owns_its_beliefs(text):
    world = sim.World(_system(text), seed=0)
    seen = []
    for _ in range(30):
        e = world.advance()
        if e is None:
            break
        assert e["beliefs"] == {ego: rt.model.digest()
                                for ego, rt in world.runtimes.items()}
        seen.append(e["beliefs"])
    assert len(seen) > 1
    assert all(type(b) is dict for b in seen)
    assert len({id(b) for b in seen}) == len(seen)


@pytest.mark.parametrize("text, controlled", [
    (THERMOSTAT, False), (THERMOSTAT, True), (SHUTTLE, False),
    (THERMOSTAT_DELIBERATIVE, False), (TWO_AGENTS, False),
], ids=["thermostat", "thermostat-steered", "shuttle", "deliberative", "two-agents"])
def test_run_and_a_loop_of_advance_give_equal_events(text, controlled):
    for seed in range(2):
        system = _system(text)
        controllers = _band_controller(system) if controlled else None
        trace = sim.run(system, steps=200, seed=seed, controllers=controllers)
        assert trace.events == _advanced(system, 200, seed, controllers)


# -- controller tables -------------------------------------------------------


@pytest.mark.parametrize("kept, rule", [
    (("house/off_to_on_0[self=h1]", IDLE), "off_to_on_0"),
    ((IDLE, "house/off_to_on_0[self=h1]"), "cool"),
    ((), "cool"),
])
def test_table_driven_ego_plays_its_first_kept_action(kept, rule):
    # at 18.0 with the heater off, its switch and the room's cooling are
    # both enabled; a steered heater idles unless the table says switch
    system = _system(THERMOSTAT.replace("temp = 20.0", "temp = 18.0"))
    key = system.cfg.state_hash() + ":a"
    ctrl = Controller({key}, {key: kept})
    world = sim.World(system, seed=0, controllers={"h1": (frozenset(), ctrl)})
    assert world.advance()["rule"] == rule


def test_a_table_with_a_coverage_gap_leaves_the_ego_free():
    # a table that covers no state steers nothing: the heater's own moves
    # stay in the pools, as in a free run
    system = _system(THERMOSTAT)
    empty = {"h1": (frozenset({"band"}), Controller(set(), {}))}
    for seed in range(3):
        steered = sim.run(system, steps=200, seed=seed, controllers=empty)
        assert steered.text() == sim.run(system, steps=200, seed=seed).text()


def test_a_deliberative_ego_plays_its_library_controller(monkeypatch):
    # a controller given for a deliberative ego is its runtime's library
    # controller, not a table; the heater senses the truth exactly,
    # so the band controller covers every believed state and it never plans
    system = _system(THERMOSTAT_DELIBERATIVE)
    controllers = _band_controller(system)
    world = sim.World(system, seed=0, controllers=controllers)
    assert world.tables == {}
    assert world.runtimes["h1"].library == controllers["h1"]

    def no_plan(*args):
        raise AssertionError("planned")

    monkeypatch.setattr(agents, "plan_horizon", no_plan)
    trace = sim.run(system, steps=100, controllers=controllers)
    assert trace.steps == 100
    assert [c.ok for c in trace.checks] == [True]


def test_a_recovery_goal_is_pursued_first_in_a_world():
    # the room starts out of band: the heater's belief violates `band`,
    # which cannot then be kept, and it switches on to reach `reheat`
    system = _system(THERMOSTAT_DELIBERATIVE.replace(
        "temp = 20.0", "temp = 17.0").replace(
        "goal band", "goal reheat critical reach (room.temp >= 18.0);\n\ngoal band").replace(
        "  horizon 3;", "  horizon 3;\n  recovery reheat;"))
    world = sim.World(system, seed=0)
    repo = world.runtimes["h1"].repo
    assert world.runtimes["h1"].recovery is system.goals["reheat"]
    assert [world.advance()["rule"] for _ in range(3)] == [
        "off_to_on_0", "warm", "warm"]
    assert [(r.step, r.kind, r.detail) for r in repo.records[:2]] == [
        (0, "violation", "band"), (0, "dropped", "band")]


# -- policies ----------------------------------------------------------------


def test_round_robin_is_deterministic_and_rotates():
    a = sim.run(_system(PLATOON), steps=20, policy="round_robin")
    b = sim.run(_system(PLATOON), steps=20, policy="round_robin")
    assert a.text() == b.text()
    rules = {(e["rule"], tuple(sorted(e["binding"].items())))
             for e in a.events}
    assert len(rules) > 1  # the pointer visits different candidates


def _scripted(*script):
    """THERMOSTAT under a scenario that schedules `script`."""
    return _system(THERMOSTAT.replace(
        "policy random;", f"policy script({', '.join(script)});"))


def test_script_policy_follows_the_script():
    script = ["cool"] * 4 + ["off_to_on_0", "warm"]
    world = sim.World(_scripted(*script), policy="script")
    events = [world.advance() for _ in range(len(script))]
    assert [e["rule"] for e in events] == script
    assert world.cfg.components["h1"].state["mode"] == "on"


def test_script_policy_stutters_on_disabled_rule():
    system = _scripted("warm")  # mode is off
    world = sim.World(system, policy="script")
    e = world.advance()
    assert e["rule"] is None
    assert e["post"] == system.cfg.state_hash()
    assert world.advance() is None  # script exhausted


def test_script_accepts_qualified_names():
    world = sim.World(_scripted("house/cool"), policy="script")
    e = world.advance()
    assert e["rule"] == "cool"


# -- dynamism under the scheduler --------------------------------------------

SPAWNER = """\
type queen agent {
  var laid: int[0, 5];
}

type drone object {
  var age: int[0, 9];
}

motif hive {
  map line(6);
  config rule lay for q: queen if q.laid < 2 then { q.laid := q.laid + 1; create d: drone in hive at q.laid with { age = 0; }; }
  config rule cull for q: queen, d: drone if q.laid = 2 and d.age = 0 then { delete(d); }
}

component q1: queen { laid = 0; } in hive at 0;
"""


def test_ids_are_conserved_across_delete_and_create():
    system = _system(SPAWNER)
    world = sim.World(system, policy="round_robin")
    seen = set()
    for _ in range(30):
        e = world.advance()
        if e is None:
            break
        if e["rule"] == "lay":
            new = set(world.cfg.components) - seen
            assert all(i.startswith("drone#") for i in new if i != "q1")
        seen = set(world.cfg.components)
    created = {i for i in seen if i.startswith("drone#")}
    # ids increment monotonically even after deletions
    assert world.cfg.counters.get("drone", 0) >= len(created)


def test_soccer_migrations_are_atomic_per_event():
    system = _system(SOCCER)
    world = sim.World(system, seed=4)
    owner = world.cfg.components["ball1"].state["owner"]
    for _ in range(60):
        e = world.advance()
        if e is None:
            break
        now = world.cfg.components["ball1"].state["owner"]
        if now != owner:
            where = "attack" if now == "us" else "defense"
            assert "p1" in world.cfg.motif(where).members
            assert "p2" in world.cfg.motif(where).members
        owner = now


# the optional `c` finds no second car, so the effect reads an unbound
# parameter
LONER = """\
type car agent {
  var speed: int[0, 5];
}

motif lane {
  map line(3);
  interaction rule match for a: car, c?: car if a.speed < 5 then { a.speed := c.speed; }
}

component c1: car { speed = 2; } in lane at 0;
"""


def test_effect_on_unbound_optional_is_an_error_event():
    system = _system(LONER)
    trace = sim.run(system, steps=3, seed=0)
    assert [(e["rule"], e.get("error")) for e in trace.events] == [
        ("match", "effect on unbound parameter 'c'")] * 3
    # no deliberative participant: uncontrollable, failed or not
    assert all(e["unc"] is True for e in trace.events)
    assert trace.final.state_hash() == system.cfg.state_hash()
    final = sim.replay(_system(LONER), trace.text())
    assert final.state_hash() == system.cfg.state_hash()
    game = ground(system.cfg, "c1")
    assert [label for s in game.states for label, _ in s.actions] == ["idle", "pass"]


def test_error_events_are_observed_by_agents():
    system = _system(LONER.replace("type car agent", """type watcher agent {
  var on: bool;
}

type car agent""") + """
component w1: watcher in lane at 2;

goal stay critical avoid (c1.speed = 5);

agent w1 {
  sensor {
    radius inf;
    see car;
    identity on;
    detect 1.0;
  }
  goals stay;
  horizon 1;
}
""")
    world = sim.World(system, seed=0)
    window = world.runtimes["w1"].window
    for n in range(1, 4):
        assert "error" in world.advance()
        assert len(window) == n


# -- check evaluation ---------------------------------------------------------


@pytest.mark.parametrize("when", ["always", "finally"])
def test_engine_bugs_in_checks_propagate(when):
    system = _system(SHUTTLE)
    cd = system.scenario.checks[0]

    def broken(ctx):
        raise RuntimeError("engine bug")

    cd.holds, cd.when = broken, when
    with pytest.raises(RuntimeError):
        sim.run(system, steps=3)


DROPPER = """\
type rock object {
  var n: int[0, 3];
  dynamics {
    rule tick if self.n < 2 then { self.n := self.n + 1; }
  }
}

motif pile {
  map line(3);
  config rule drop for r: rock if r.n = 2 then { leave(r, pile); }
}

component r1: rock in pile at 0;

scenario {
  steps 10;
  seed 0;
  policy random;
  check near always (distance(@(r1, pile), 0, pile) >= 0);
  check ends finally (distance(@(r1, pile), 0, pile) >= 0);
}
"""


def test_undefined_arithmetic_in_checks_fails_at_its_step():
    trace = sim.run(_system(DROPPER))
    assert [e["rule"] for e in trace.events] == ["tick", "tick", "drop"]
    near, ends = trace.checks
    assert (near.ok, near.first_fail) == (False, 2)
    assert (ends.ok, ends.first_fail) == (False, 3)


def test_a_check_that_fails_to_evaluate_fails_at_its_step():
    # an evaluation error fails the check where it is evaluated, here at
    # the initial state: the room's node 1 has no successor
    system = _system(THERMOSTAT.replace(
        "check inband always (room.temp >= 17.5 and room.temp <= 22.5)",
        "check inband always (distance(succ(@(room, house), house), 0, house) = 0)"))
    trace = sim.run(system, steps=3)
    assert [(c.ok, c.first_fail) for c in trace.checks] == [(False, -1)]


# -- the random draw ----------------------------------------------------------


def _cells(n, top, rules):
    """`n` cells at one node, each with an own rule `up` while its `v` is
    below `top` and, given `rules` 2, `down` while it is above 0."""
    down = "    rule down if self.v > 0 then { self.v := self.v - 1; }\n" \
        if rules == 2 else ""
    return (f"type cell object {{\n  var v: int[0, {top}];\n  dynamics {{\n"
            f"    rule up if self.v < {top} then {{ self.v := self.v + 1; }}\n"
            f"{down}  }}\n}}\n\nmotif row {{\n  map line(1);\n}}\n\n"
            + "".join(f"component c{i:03}: cell {{ v = 0; }} in row at 0;\n\n"
                      for i in range(1, n + 1)))


@pytest.mark.parametrize("seed", range(3))
def test_the_draw_is_random_choice_on_every_pool_size(seed):
    # 300 cells fill up one at a time: the pool holds every empty cell,
    # so its size falls from 300 to 1, and each draw must pick the cell
    # `random.Random.choice` picks on a twin generator
    world = sim.World(_system(_cells(300, 1, rules=1)), seed=seed)
    twin = random.Random(f"run:{seed}")
    empty = [f"c{i:03}" for i in range(1, 301)]
    while empty:
        cell = twin.choice(empty)
        assert world.advance()["binding"] == {"self": cell}
        empty.remove(cell)
    assert world.advance() is None


@pytest.mark.parametrize("seed", range(3))
def test_the_draw_is_random_choice_on_revisited_pools(seed):
    # four cells move between 0 and 2: pools of 4 to 8 moves, on 81
    # states that the run keeps coming back to
    system = _system(_cells(4, 2, rules=2))
    world = sim.World(system, seed=seed)
    twin = random.Random(f"run:{seed}")
    sizes = Counter()
    for _ in range(1000):
        pool = step_candidates(world.cfg)
        sizes[len(pool)] += 1
        want = twin.choice(pool)
        e = world.advance()
        assert (e["motif"], e["rule"], e["binding"]) == (
            want.motif, want.rule.name, dict(want.binding))
    assert set(sizes) == {4, 5, 6, 7, 8}


# -- the per-state record -----------------------------------------------------


def _band_controller(system):
    game = ground(system.cfg, "h1", bad=system.goals["band"].holds)
    return {"h1": (frozenset({"band"}), solve_safety(game))}


def _bundled_runs():
    """(name, system, run keywords) for each bundled scenario; the
    thermostat runs free and steered by its `band` controller."""
    thermostat = _system(THERMOSTAT)
    return [
        ("thermostat", thermostat, {"steps": 1000}),
        ("thermostat_steered", thermostat,
         {"steps": 1000, "controllers": _band_controller(thermostat)}),
        ("thermostat_deliberative", _system(THERMOSTAT_DELIBERATIVE), {}),
        ("platoon", _system(PLATOON), {}),
        ("platoon_deliberative", _system(PLATOON_DELIBERATIVE), {}),
        ("soccer", _system(SOCCER), {}),
        ("shuttle", _system(SHUTTLE), {}),
    ]


@pytest.mark.parametrize("policy", ["roundrobin", "Random", "scripted"])
def test_an_unknown_policy_is_rejected(policy):
    system = _system(THERMOSTAT)
    for make in (sim.run, sim.World):
        with pytest.raises(ValueError, match="random, round_robin, script"):
            make(system, policy=policy)


def test_an_unknown_controller_ego_is_rejected():
    # a table keyed by a name that is no component would leave the heater's
    # own moves free while its commands still play
    system = _system(THERMOSTAT)
    (steering,) = _band_controller(system).values()
    for make in (sim.run, sim.World):
        with pytest.raises(ValueError, match="'h9'"):
            make(system, controllers={"h9": steering})


def _outcome(trace):
    return trace.text(), [(c.name, c.ok, c.first_fail) for c in trace.checks]


@pytest.mark.parametrize("bound", [1, 2], ids=["records-1", "records-2"])
def test_eviction_leaves_runs_unchanged(monkeypatch, bound):
    runs = _bundled_runs()
    expected = {(name, s): _outcome(sim.run(system, seed=s, **kw))
                for name, system, kw in runs for s in range(2)}
    monkeypatch.setattr(model, "RECORDS", bound)
    advance = sim.World.advance

    def bounded(world):
        event = advance(world)
        assert len(world._records) <= bound
        return event

    monkeypatch.setattr(sim.World, "advance", bounded)
    for name, system, kw in runs:
        for s in range(2):
            assert _outcome(sim.run(system, seed=s, **kw)) == expected[name, s], name


def test_per_state_record_is_bounded():
    world = sim.World(_system(SHUTTLE), seed=0)
    posts = set()
    for _ in range(3 * model.RECORDS):
        posts.add(world.advance()["post"])
        assert len(world._records) <= model.RECORDS
    assert len(posts) == 3 * model.RECORDS  # every step a new state
    assert len(world._records) == model.RECORDS


def test_deliberative_records_are_bounded(monkeypatch):
    # the scheduler and the plans share one records dict, the runtime's
    # is its World's, and every step leaves it within the bound
    monkeypatch.setattr(model, "RECORDS", 4)
    world = sim.World(_system(PLATOON_DELIBERATIVE), seed=0)
    rt = world.runtimes["v1"]
    assert rt.records is world._records
    planned = 0
    for _ in range(100):
        if world.advance() is None:
            break
        assert len(world._records) <= model.RECORDS
        planned = max(planned, sum(
            len(rec.plans) for rec in world._records.values()))
    assert len(world._records) == model.RECORDS
    assert planned


def test_a_decision_outlives_the_listings_of_its_plan(monkeypatch):
    # the plan lists more states than a record bound of 2 keeps, and none
    # is evicted before the step ends: deciding again on the same belief
    # and goals lists nothing
    monkeypatch.setattr(model, "RECORDS", 2)
    world = sim.World(_system(PLATOON_DELIBERATIVE), seed=0)
    world.advance()
    rt = world.runtimes["v1"]
    world._records.clear()
    listed = _count_listings(monkeypatch)
    cfg, goals = rt.model.cfg, list(rt.active)

    def decide():
        return agents.decide(cfg, goals, rt.library, rt.ego, rt.horizon, rt.records)

    first = decide()
    assert sum(listed.values()) > model.RECORDS
    listed.clear()
    assert decide() == first
    assert not listed


def _count_listings(monkeypatch):
    """Count the state hashes listed through either name the engine
    lists candidates by: the scheduler's and the planner's."""
    listed = Counter()
    for module in (sim, games):
        def counting(cfg, listing=module.step_candidates):
            listed[cfg.state_hash()] += 1
            return listing(cfg)
        monkeypatch.setattr(module, "step_candidates", counting)
    return listed


def test_world_lists_each_state_once(monkeypatch):
    # the scheduler and the agent's plans share one listing per state
    # hash; the heater's states stay under the bound, so none is evicted
    listed = _count_listings(monkeypatch)
    world = sim.World(_system(THERMOSTAT_DELIBERATIVE), seed=0)
    for _ in range(300):
        world.advance()
    assert len(listed) < model.RECORDS
    assert max(listed.values()) == 1


@pytest.mark.parametrize("steered", [False, True], ids=["free", "steered"])
def test_a_revisited_state_costs_nothing_new(monkeypatch, steered):
    # once a run has entered every state it reaches, it makes no record,
    # and once it has taken each of their moves, it digests nothing
    system = _system(THERMOSTAT)
    controllers = _band_controller(system) if steered else None
    listed = _count_listings(monkeypatch)
    costs = Counter()
    digest, make = model._digest, model.Record.__init__

    def digesting(text):
        costs["digest"] += 1
        return digest(text)

    def making(rec):
        costs["record"] += 1
        make(rec)

    monkeypatch.setattr(model, "_digest", digesting)
    monkeypatch.setattr(model.Record, "__init__", making)
    advance = sim.World.advance
    per_step = []

    def counted(world):
        before = Counter(costs)
        event = advance(world)
        per_step.append(costs - before)
        return event

    monkeypatch.setattr(sim.World, "advance", counted)
    trace = sim.run(system, steps=10_000, seed=0, controllers=controllers)
    assert trace.steps == 10_000
    assert max(listed.values()) == 1
    states, moves = {system.cfg.state_hash()}, set()
    last_state = last_move = -1
    pre = system.cfg.state_hash()
    for e in trace.events:
        move = (pre, e["motif"], e["rule"], tuple(sorted(e["binding"].items())))
        if move not in moves:
            moves.add(move)
            last_move = e["step"]
        if e["post"] not in states:
            states.add(e["post"])
            last_state = e["step"]
        pre = e["post"]
    assert len(states) == len(listed) < model.RECORDS
    assert last_move < 1000
    assert not any(step["record"] for step in per_step[last_state + 1:])
    assert not any(per_step[last_move + 1:])


def test_worlds_share_no_listing(monkeypatch):
    system = _system(THERMOSTAT_DELIBERATIVE)
    listed = _count_listings(monkeypatch)
    sim.World(system, seed=0).advance()
    first = Counter(listed)
    listed.clear()
    sim.World(system, seed=0).advance()
    assert first[system.cfg.state_hash()] == 1
    assert listed == first


# a declared motif named like the platoon that `platoon_chain` believes
# in, and with a rule of its own: v1 senses the truth exactly at step 0
RULED_PLATOON = """\
type vehicle agent {
  var speed: int[0, 3];
}

motif road {
  map line(10);
  config rule advance for a: vehicle if empty(succ(@(a))) then { @(a) := succ(@(a)); }
}

motif platoon_v2 {
  map line(10);
  config rule slow for a: vehicle if a.speed > 0 then { a.speed := 0; }
}

component v1: vehicle { speed = 1; } in road at 0 in platoon_v2 at 0;

component v2: vehicle { speed = 1; } in road at 1 in platoon_v2 at 1;

goal fast best_effort utility (v1.speed) priority 0;

agent v1 {
  sensor {
    motif road;
    see vehicle;
    identity on;
  }
  goals fast;
  horizon 1;
  pattern platoon_chain;
}
"""


@pytest.mark.parametrize("text", [
    THERMOSTAT_DELIBERATIVE, PLATOON_DELIBERATIVE, RULED_PLATOON],
    ids=["thermostat", "platoon", "ruled-platoon"])
def test_shared_listings_leave_runs_unchanged(text):
    # the scheduler may use a listing an agent's plan made, and the
    # reverse: the events are those of agents that plan on their own
    system = _system(text)
    for seed in range(3):
        runs = []
        for shared in (True, False):
            world = sim.World(system, seed=seed)
            if not shared:
                for rt in world.runtimes.values():
                    rt.records = {}
            runs.append([world.advance() for _ in range(30)])
        assert runs[0] == runs[1]


WARMISH = THERMOSTAT.replace(
    "check inband always (room.temp >= 17.5 and room.temp <= 22.5);",
    "check warmish always (room.temp > 18.0);")


def _failing_steps(system, trace):
    """The steps at which each `always` check fails, found by replaying
    `trace` and evaluating every check at every step, with no memo."""
    checks = [(cd.name, cd.expr.compile(Scope()))
              for cd in system.scenario.checks if cd.when == "always"]
    failed = {name: [] for name, _ in checks}

    def evaluate(cfg, step):
        for name, fn in checks:
            if not fn(Ctx(cfg)):
                failed[name].append(step)

    cfg = system.cfg
    evaluate(cfg, -1)
    for e in trace.events:
        cand = next(c for c in step_candidates(cfg)
                    if (c.motif, c.rule.name, dict(c.binding))
                    == (e["motif"], e["rule"], e["binding"]))
        try:
            cfg = cand.fire()
        except EffectError:
            pass
        assert cfg.state_hash() == e["post"]
        evaluate(cfg, e["step"])
    return failed


def test_always_verdicts_match_a_memo_free_evaluation(monkeypatch):
    # warmish fails at 18.0, where the heater switches on, a state the
    # thermostat keeps coming back to: a remembered verdict must fail the
    # check at every later visit too
    system = _system(WARMISH)
    called = []
    fail = sim.CheckResult.fail

    def recording(res, step):
        called.append((res.name, step))
        fail(res, step)

    monkeypatch.setattr(sim.CheckResult, "fail", recording)
    revisited = 0
    for seed in range(4):
        called.clear()
        trace = sim.run(system, steps=1000, seed=seed)
        failed = _failing_steps(system, trace)
        (warmish,) = trace.checks
        steps = failed["warmish"]
        assert (warmish.ok, warmish.first_fail) == (not steps, min(steps, default=None))
        assert called == [("warmish", step) for step in steps]
        revisited += len(steps) > 1
    assert revisited
