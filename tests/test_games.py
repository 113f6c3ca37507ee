import hashlib
import re
from collections import Counter
from fractions import Fraction

import pytest

from motifsim import games, load, model, sim
from motifsim.errors import (
    InvariantViolation, NoSafePlan, StateBudgetExceeded,
)
from motifsim.expr import TRUE, AddrRef, Binary, Empty, Lit, VarRef
from motifsim.games import (
    AGENT_TURN, ENV_TURN, Controller, GameModel, IDLE, PASS,
    export_controller, ground, import_controller, plan_horizon, solve_reach,
    solve_safety,
)
from motifsim.goals import AVOID, CRITICAL, REACH, UTILITY, Goal
from motifsim.lang import parse
from motifsim.scenarios import BUNDLED, THERMOSTAT, THERMOSTAT_DELIBERATIVE

from game_oracle import (
    oracle_reach, oracle_safety, random_game, reference_reach, reference_safety,
)
from test_acceptance import _scenario_games
from test_model import PLATOON_DELIBERATIVE, _well_formed


def _thermostat_system():
    model, diags = parse(THERMOSTAT)
    assert model is not None, diags
    return model.build()


def _hand_game():
    # a0 -(good)-> e0 -> a0 ; a0 -(risky)-> e1 -> a_bad
    g = GameModel()
    g.add_state("a0", AGENT_TURN)
    g.add_state("e0", ENV_TURN)
    g.add_state("e1", ENV_TURN)
    g.add_state("abad", AGENT_TURN, bad=True)
    g.add_action(0, "good", 1)
    g.add_action(0, "risky", 2)
    g.add_action(1, PASS, 0)
    g.add_action(2, "spoil", 3)
    return g


def test_safety_prunes_exactly_the_losing_action():
    ctrl = solve_safety(_hand_game())
    assert ctrl.winning == {"a0", "e0"}
    assert ctrl.kept_actions("a0") == ("good",)


def test_safety_env_deadend_is_safe():
    g = GameModel()
    g.add_state("a", AGENT_TURN)
    g.add_state("e", ENV_TURN)
    g.add_action(0, IDLE, 1)
    ctrl = solve_safety(g)
    assert ctrl.winning == {"a", "e"}


def test_safety_agent_deadend_loses():
    g = GameModel()
    g.add_state("a", AGENT_TURN)
    ctrl = solve_safety(g)
    assert ctrl.winning == set()


def test_reach_ranks_decrease():
    g = GameModel()
    g.add_state("a0", AGENT_TURN)
    g.add_state("e0", ENV_TURN)
    g.add_state("a1", AGENT_TURN, target=True)
    g.add_action(0, "step", 1)
    g.add_action(0, "loop", 1)
    g.add_action(1, "env", 2)
    ctrl = solve_reach(g)
    assert ctrl.winning == {"a0", "e0", "a1"}
    assert ctrl.rank["a1"] == 0
    assert ctrl.rank["e0"] == 1
    assert ctrl.rank["a0"] == 2
    ctrl.validate(g)


def test_reach_env_can_stall():
    # env may loop away from the target forever: not winning
    g = GameModel()
    g.add_state("a0", AGENT_TURN)
    g.add_state("e0", ENV_TURN)
    g.add_state("t", AGENT_TURN, target=True)
    g.add_action(0, "step", 1)
    g.add_action(1, "to_t", 2)
    g.add_action(1, "stall", 0)
    ctrl = solve_reach(g)
    assert "a0" not in ctrl.winning and "e0" not in ctrl.winning


def test_reach_within_safety_is_restricted():
    g = _hand_game()
    g.states[3].target = True  # target only past the unsafe branch
    safe = solve_safety(g)
    ctrl = solve_reach(g, within=safe)
    assert ctrl.winning <= safe.winning | set()
    assert "a0" not in ctrl.winning


def test_oracle_equivalence_sample():
    for seed in range(60):
        game = random_game(seed)
        assert solve_safety(game).winning == oracle_safety(game), seed
        assert solve_reach(game).winning == oracle_reach(game), seed


def _assert_matches_reference(game):
    """The engine's solvers equal the round-by-round references in
    `winning`, `kept` and `rank`, with and without `within`."""
    safe, ref_safe = solve_safety(game), reference_safety(game)
    pairs = ((safe, ref_safe), (solve_reach(game), reference_reach(game)),
             (solve_reach(game, within=safe), reference_reach(game, within=ref_safe)))
    for got, want in pairs:
        assert got.winning == want.winning
        assert got.kept == want.kept
        assert got.rank == want.rank


def test_solvers_match_reference_on_random_games():
    for seed in range(1000):
        game = random_game(seed, max_states=30, max_actions=4)
        try:
            _assert_matches_reference(game)
        except AssertionError:
            pytest.fail(f"solver differs from reference on random_game({seed})")


def test_solvers_match_reference_on_scenario_games():
    games = _scenario_games()
    assert [len(game) for game in games] == [52, 4, 12, 18]
    for game in games:
        _assert_matches_reference(game)
        # the scenario games carry no targets; rank a third of the states
        for i, s in enumerate(game.states):
            s.target = i % 3 == 0
        _assert_matches_reference(game)


def _chain(n, bad=False):
    """s0 -> s1 -> ... -> s(n-1), alternating agent/env turns from s0.

    Agent turns go forward (`go`); those in the first half may also step
    back (`back`) to the env turn before them, which returns them.  The
    last state is the single target (or, with `bad`, the single bad
    state)."""
    g = GameModel()
    for i in range(n):
        last = i == n - 1
        g.add_state(f"s{i}", AGENT_TURN if i % 2 == 0 else ENV_TURN,
                    bad=bad and last, target=not bad and last)
    for i in range(n - 1):
        if i % 2 == 0:
            g.add_action(i, "go", i + 1)
            if 0 < i < n // 2:
                g.add_action(i, "back", i - 1)
        else:
            g.add_action(i, PASS, i + 1)
    return g


def test_long_chain_solves_in_one_pass():
    # the round-by-round solvers settle one state per round here, so
    # they would rescan all 2*10^4 states at least 10^4 times
    n = 20000
    ctrl = solve_reach(_chain(n))
    assert ctrl.rank == {f"s{i}": n - 1 - i for i in range(n)}
    assert all(ctrl.kept[f"s{i}"] == ("go",) for i in range(0, n - 1, 2))
    # the agent escapes the bad end only by stepping back, which the
    # agent turns below n/2 can; from env turn n/2 - 1 on, every play is
    # forced into the bad state
    assert (n // 2) % 2 == 0
    ctrl = solve_safety(_chain(n, bad=True))
    assert ctrl.winning == {f"s{i}" for i in range(n // 2 - 1)}
    assert ctrl.kept[f"s{n // 2 - 2}"] == ("back",)
    assert ctrl.kept["s0"] == ("go",)


def test_validate_rejects_nonsense():
    g = _hand_game()
    ctrl = solve_safety(g)
    bad = type(ctrl)(ctrl.winning | {"abad"}, ctrl.kept)
    with pytest.raises(InvariantViolation):
        bad.validate(g)
    bad2 = type(ctrl)(ctrl.winning, {"a0": ("risky",)})
    with pytest.raises(InvariantViolation):
        bad2.validate(g)


def _dead_end_game():
    # a -(go)-> e, an env state with no move
    g = GameModel()
    g.add_state("a", AGENT_TURN)
    g.add_state("e", ENV_TURN)
    g.add_action(0, "go", 1)
    return g


@pytest.mark.parametrize("game, winning, kept, rank, message", [
    (_hand_game, {"a0", "e0", "zz"}, {"a0": ("good",)}, None, "unknown state 'zz'"),
    (_hand_game, {"a0", "e0"}, {"a0": ("good",), "e1": ("spoil",)}, None,
     "kept actions at non-winning state 'e1'"),
    (_hand_game, {"a0", "e0", "abad"}, {"a0": ("good",)}, None,
     "bad state 'abad' marked winning"),
    (_hand_game, {"a0", "e0", "e1"}, {"a0": ("good",)}, None,
     "uncontrollable exit from winning state 'e1'"),
    (_dead_end_game, {"a", "e"}, {"a": ("go",)}, {"a": 2, "e": 1},
     "deadlocked ranked env state 'e'"),
    (_hand_game, {"a0", "e0"}, {"a0": ("good",)}, {"a0": 2, "e0": 1},
     "non-decreasing env branch at 'e0'"),
    (_hand_game, {"a0", "e0"}, {"a0": ("fly",)}, None,
     "unknown kept action 'fly' at 'a0'"),
    (_hand_game, {"a0", "e0"}, {"a0": ("risky",)}, None,
     "kept action 'risky' at 'a0' leaves the winning set"),
    (_hand_game, {"a0", "e0"}, {"a0": ("good",)}, {"a0": 1, "e0": 2},
     "kept action 'good' at 'a0' does not decrease rank"),
    (_hand_game, {"a0", "e0"}, {}, None, "winning agent state 'a0' has no kept action"),
], ids=["unknown-state", "kept-off-winning", "bad-winning", "env-exit",
        "env-deadlock", "env-rank", "unknown-kept", "kept-exit", "kept-rank",
        "no-kept"])
def test_validate_names_each_broken_invariant(game, winning, kept, rank, message):
    # each controller breaks exactly one invariant, so the message does
    # not depend on the order `validate` visits states in
    with pytest.raises(InvariantViolation) as exc:
        Controller(winning, kept, rank).validate(game())
    assert str(exc.value) == message


# -- grounding ---------------------------------------------------------------


def test_ground_thermostat_shape():
    system = _thermostat_system()
    band = system.goals["band"]
    game = ground(system.cfg, "h1", bad=band.holds)
    # 13 temperatures x 2 modes = 26 worlds, 2 turn states each
    assert len(game) == 52
    assert game.states[game.initial].turn == AGENT_TURN
    # every agent state carries an explicit idle
    for s in game.states:
        if s.turn == AGENT_TURN:
            assert any(label == IDLE for label, _ in s.actions)
    ctrl = solve_safety(game)
    assert ctrl.covers(game.states[game.initial].key)
    ctrl.validate(game)


def test_ground_quiescent_world():
    model, _ = parse("""
type rock object { var n: int[0, 1]; }
motif pile { map line(1); }
component r1: rock in pile at 0;
""")
    system = model.build()
    game = ground(system.cfg, "r1")
    assert len(game) == 2
    e = [s for s in game.states if s.turn == ENV_TURN][0]
    assert [label for label, _ in e.actions] == [PASS]


def test_ground_budget():
    system = _thermostat_system()
    with pytest.raises(StateBudgetExceeded):
        ground(system.cfg, "h1", max_states=1)


def test_ground_unknown_ego():
    system = _thermostat_system()
    with pytest.raises(KeyError):
        ground(system.cfg, "nobody")


def _unshared(cfg):
    """An equal configuration that shares no component, motif or map."""
    c = cfg.clone()
    c.components = {k: v.copy() for k, v in cfg.components.items()}
    c.motifs = {}
    for k, m in cfg.motifs.items():
        c.motifs[k] = u = m.copy()
        u.map = model.Map(m.map.nodes, m.map.edge_list())
    return c


def test_same_key_is_canonical_key_equality(monkeypatch):
    reached, compared = [], []
    listing, same_key = games.step_candidates, model.Configuration.same_key

    def listed(cfg):
        reached.append(cfg)
        return listing(cfg)

    def recorded(self, other):
        got = same_key(self, other)
        compared.append((self, other, got))
        return got

    monkeypatch.setattr(games, "step_candidates", listed)
    monkeypatch.setattr(model.Configuration, "same_key", recorded)
    _scenario_games()
    monkeypatch.undo()
    # every revisit `ground` confirmed, each a distinct object
    assert compared and all(got for _, _, got in compared)
    for a, b, got in compared:
        assert a is not b and a.canonical_key() == b.canonical_key()
    # pairs of reached states, which share fragments, and of a reached
    # state against unshared copies of every reached state
    copies = [_unshared(c) for c in reached]
    grown = [c.clone() for c in reached]  # one more component, unaddressed
    for g in grown:
        extra = next(iter(g.components.values())).copy()
        extra.id = "zz"
        g.components["zz"] = extra
    for a in reached:
        for b in reached + copies + grown:
            assert a.same_key(b) == (a.canonical_key() == b.canonical_key())
    assert sum(a.same_key(b) for a in reached for b in copies) == len(reached)


def test_every_state_ground_reaches_is_well_formed(monkeypatch):
    reached = []
    listing = games.step_candidates

    def listed(cfg):
        reached.append(cfg)
        return listing(cfg)

    monkeypatch.setattr(games, "step_candidates", listed)
    grounded = _scenario_games()
    assert len(reached) == sum(len(g.states) // 2 for g in grounded)
    assert all(_well_formed(c) for c in reached)


def test_ground_lists_candidates_as_the_eager_reference(eager_reference):
    grounded = _scenario_games()
    assert eager_reference["listings"] == sum(len(g.states) // 2 for g in grounded)
    assert eager_reference["owned"]  # the platoon's `form` binds vehicles


def test_a_state_hash_collision_is_an_invariant_violation(monkeypatch):
    system = _thermostat_system()
    monkeypatch.setattr(model.Configuration, "state_hash",
                        lambda self: "0123456789abcdef")
    with pytest.raises(InvariantViolation,
                       match="state hash collision at '0123456789abcdef'"):
        ground(system.cfg, "h1")


# -- moves ---------------------------------------------------------------------


def test_moves_split_one_listing_by_turn():
    # at 18.0 with the heater off, the heater may switch on and the room
    # cools; at 17.0 nothing but the heater moves
    model, diags = parse(THERMOSTAT.replace("temp = 20.0", "temp = 18.0"))
    assert model is not None, diags
    cfg = model.build().cfg
    cands = games.step_candidates(cfg)
    agent = games.moves(cfg, cands, "h1", AGENT_TURN)
    env = games.moves(cfg, cands, "h1", ENV_TURN)
    assert [lab for lab, _ in agent] == ["house/off_to_on_0[self=h1]", IDLE]
    assert [lab for lab, _ in env] == ["house/cool[self=room,h=h1]"]
    assert agent[-1][1] is cfg
    assert [nxt for _, nxt in agent[:1] + env] == [c.fire() for c in cands]
    cool = env[0][1]
    cold = games.moves(cool, games.step_candidates(cool), "h1", ENV_TURN)[0][1]
    assert games.moves(cold, games.step_candidates(cold), "h1", ENV_TURN) == [
        (PASS, cold)]


def test_controller_command():
    system = _thermostat_system()
    game = ground(system.cfg, "h1", bad=system.goals["band"].holds)
    ctrl = solve_safety(game)
    kept = ctrl.kept_actions(game.states[game.initial].key)
    assert kept[-1] == IDLE
    assert ctrl.command(system.cfg) == kept[0]
    assert Controller(set(), {}).command(system.cfg) is None


# -- simulator against the game ----------------------------------------------
#
# Every transition the simulator commits must be an edge of the game that
# `ground` builds from the same initial configuration: a move of its
# pre-state, at the ego's turn or the environment's (`games.moves`), which
# needs no full game.  Shuttle is left out because it has no agent to take
# the ego's turn.

EDGE_MODELS = dict(BUNDLED)
EDGE_MODELS.update(thermostat_deliberative=THERMOSTAT_DELIBERATIVE,
                   platoon_deliberative=PLATOON_DELIBERATIVE)


@pytest.mark.parametrize("name, ego", [
    ("thermostat", "h1"), ("soccer", "p1"), ("platoon", "v1"),
    ("thermostat_deliberative", "h1"), ("platoon_deliberative", "v1")])
def test_committed_transitions_are_game_edges(name, ego):
    edges = {}  # pre-state hash -> its moves at either turn, (label, post)
    committed = set()
    for seed in range(3):
        system = load(EDGE_MODELS[name])[0]
        world = sim.World(system, seed=seed, policy=system.scenario.policy)
        for _ in range(system.scenario.steps):
            pre = world.cfg
            e = world.advance()
            if e is None:
                break
            if "error" in e:
                continue
            h = pre.state_hash()
            if h not in edges:
                cands = games.step_candidates(pre)
                edges[h] = {(label, nxt.state_hash())
                            for turn in (AGENT_TURN, ENV_TURN)
                            for label, nxt in games.moves(pre, cands, ego, turn)}
            bind = ",".join(f"{p}={c}" for p, c in e["binding"].items())
            label = f"{e['motif']}/{e['rule']}[{bind}]"
            assert (label, e["post"]) in edges[h], (seed, e)
            committed.add((h, label, e["post"]))
    assert len(committed) > 1


# -- finite-horizon planning -------------------------------------------------


def test_plan_thermostat_at_tmin_turns_on():
    system = _thermostat_system()
    cfg = system.cfg.clone()
    cfg.set_var("room", "temp", Fraction(18))
    goals = [system.goals["band"]]
    plan = plan_horizon(cfg, "h1", goals, 2)
    assert plan.first_action is not None
    assert "off_to_on" in plan.first_action
    assert "agent:" in plan.render()


#: SHA-256 over the rendered plan, first action and value (or
#: `NoSafePlan`) of every agent of the bundled scenarios and of
#: `THERMOSTAT_DELIBERATIVE`, under all its model's goals, at horizons
#: 1-5: a change to the planner that alters any plan fails it
RENDERED_PLANS = (
    "b54436f7e08f9ca20ac1c97261d37551c1184306c537b5c75be7fe595e85c881")


def test_rendered_plans_are_pinned():
    digest = hashlib.sha256()
    for text in [*BUNDLED.values(), THERMOSTAT_DELIBERATIVE]:
        system, diags = load(text)
        assert system is not None, diags
        goals = sorted(system.goals.values(), key=lambda g: g.sort_key())
        for cid in sorted(system.cfg.components):
            if system.cfg.components[cid].type.kind != model.AGENT:
                continue
            for horizon in range(1, 6):
                try:
                    plan = plan_horizon(system.cfg, cid, goals, horizon)
                    out = f"{plan.render()}\n{plan.first_action}\n{plan.value}\n"
                except NoSafePlan:
                    out = "NoSafePlan\n"
                digest.update(f"{cid} {horizon}\n{out}".encode())
    assert digest.hexdigest() == RENDERED_PLANS


def test_plan_idle_when_safe():
    system = _thermostat_system()
    plan = plan_horizon(system.cfg, "h1", [system.goals["band"]], 1)
    assert plan.first_action is not None  # some safe first action exists


def _thermostat_goal(decl):
    """Parse the thermostat model with one extra goal declaration."""
    model, diags = parse(THERMOSTAT + "\n" + decl + "\n")
    assert model is not None, diags
    return model.build().goals["g"]


def test_plan_no_safe_plan():
    system = _thermostat_system()
    trap = _thermostat_goal("goal g critical avoid (room.temp >= 17.0);")
    with pytest.raises(NoSafePlan):
        plan_horizon(system.cfg, "h1", [trap], 2)


@pytest.mark.parametrize("decl, message", [
    ("goal g critical avoid (room.temp);", "goal 'g': room.temp is a real, not a bool"),
    ("goal g best_effort utility (room.temp + h1.mode);",
     "goal 'g': h1.mode is an enum, not an int or a real"),
], ids=["predicate", "utility"])
def test_an_ill_typed_goal_is_a_build_error(decl, message):
    # a goal predicate is a bool like a guard, and a utility an int, a real
    # or a node: both are checked once, as the model builds
    system, diags = load(THERMOSTAT + "\n" + decl + "\n")
    assert system is None
    assert [d.message for d in diags] == [message]


# r1 starts unplaced on a map of named nodes: `hop` places it at `a`,
# and `step` moves it along `succ`
YARD = """\
type bot agent {
  var x: int[0, 1];
}

motif yard {
  map { nodes a, b, c; edges a -> b, b -> c; };
  config rule hop for r: bot if not placed(r) then { @(r) := a; }
  config rule step for r: bot if placed(r) and empty(succ(@(r))) then { @(r) := succ(@(r)); }
}

component r1: bot in yard;

goal far best_effort utility (@(r1, yard)) priority 0;
"""


def test_a_utility_on_a_named_node_scores_0():
    # only a number scores: an unplaced branch and a placed one both
    # score 0, so the planner compares no int with a str
    system, diags = load(YARD)
    assert system is not None, diags
    far = system.goals["far"]
    placed = next(iter(games.step_candidates(system.cfg))).fire()
    assert placed.address("r1", "yard") == "a"
    assert far.score(system.cfg) == far.score(placed) == 0
    plan = plan_horizon(system.cfg, "r1", [far], 3)
    assert plan.first_action == "yard/hop[r=r1]"


def test_a_utility_that_fails_to_evaluate_scores_0():
    # the room's node 1 has no successor, so the distance is undefined
    lost = _thermostat_goal(
        "goal g best_effort utility (distance(succ(@(room, house), house), 0, house));")
    assert lost.score(_thermostat_system().cfg) == 0


def test_a_utility_on_a_node_the_map_lacks_scores_0():
    # `distance` raises `UnknownNode`, an engine error but no `EvalError`
    far = _thermostat_goal("goal g best_effort utility (distance(@(h1, house), 9, house));")
    assert far.score(_thermostat_system().cfg) == 0


@pytest.mark.parametrize("kwargs, message", [
    (dict(kind="maybe", predicate=TRUE), "bad goal kind 'maybe'"),
    (dict(kind=AVOID, predicate=TRUE, criticality="urgent"),
     "bad criticality 'urgent'"),
    (dict(kind=UTILITY, utility=Lit(1), criticality=CRITICAL),
     "critical goals must be avoid or reach"),
    (dict(kind=UTILITY), "utility goal needs an expression"),
    (dict(kind=REACH), "reach goal needs a predicate"),
])
def test_a_goal_needs_a_kind_a_criticality_and_its_expression(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Goal("g", cfg=_thermostat_system().cfg, **kwargs)


@pytest.mark.parametrize("predicate, message", [
    (Empty(Lit(1)), "map lookup empty(1) names no motif"),
    (Binary("=", AddrRef("h1"), Lit(0)), "map lookup @(h1) names no motif"),
    (Binary("=", VarRef("h1", "temp"), Lit(0)), "type 'heater' has no var 'temp'"),
], ids=["empty", "address", "var"])
def test_a_goal_made_by_hand_checks_its_names_as_it_is_made(predicate, message):
    # a `Goal` compiles against its configuration, so it rejects what
    # `Model.build` rejects in model text, with the same message
    model, diags = parse(THERMOSTAT + f"\ngoal g critical avoid ({predicate.unparse()});\n")
    assert model is None and [d.message for d in diags] == [f"goal 'g': {message}"]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Goal("g", AVOID, _thermostat_system().cfg, predicate=predicate)


def test_no_safe_plan_names_a_missed_reach_goal():
    # no avoid goal at all: 17.0 is out of reach within two agent turns
    system = _thermostat_system()
    far = _thermostat_goal("goal g critical reach (room.temp <= 17.0);")
    with pytest.raises(NoSafePlan, match="misses a critical reach goal"):
        plan_horizon(system.cfg, "h1", [far], 2)


LAMP = """\
type lamp agent {
  var on: int[0, 1];
}

motif room {
  map line(1);
  interaction rule flip for l: lamp if l.on >= 0 then { l.on := 1 - l.on; }
}

component l1: lamp in room at 0;
"""


@pytest.mark.parametrize("horizon, listed", [(1, 2), (2, 2)])
def test_plan_lists_each_configuration_once(monkeypatch, horizon, listed):
    # the lamp has two states, and a plan lists each state hash once,
    # however many turns and depths it is reached at
    model, diags = parse(LAMP)
    assert model is not None, diags
    listing = games.step_candidates
    calls = []

    def counting(cfg):
        calls.append(cfg)
        return listing(cfg)

    monkeypatch.setattr(games, "step_candidates", counting)
    plan = plan_horizon(model.build().cfg, "l1", [], horizon)
    assert plan.first_action == "room/flip[l=l1]"
    assert len(calls) == listed


def _lamp_goals(*decls):
    model, diags = parse(LAMP + "\n" + "\n".join(decls) + "\n")
    assert model is not None, diags
    system = model.build()
    return system.cfg, system.goals


def test_plan_meets_a_critical_reach_goal_within_the_horizon():
    # only flipping the lamp on meets `lit` within one agent turn
    cfg, goals = _lamp_goals("goal lit critical reach (l1.on = 1);")
    plan = plan_horizon(cfg, "l1", [goals["lit"]], 1)
    assert (plan.first_action, plan.value) == ("room/flip[l=l1]", ())


@pytest.mark.parametrize("order, action, value", [
    (("lit", "dark"), "room/flip[l=l1]", (1, 0)),
    (("dark", "lit"), IDLE, (1, 0)),
])
def test_plan_scores_best_effort_reach_and_avoid(order, action, value):
    # flipping reaches `lit` and breaks `dark`; idling does the reverse,
    # and the goal listed first decides
    cfg, goals = _lamp_goals("goal lit best_effort reach (l1.on = 1);",
                             "goal dark best_effort avoid (l1.on = 1);")
    plan = plan_horizon(cfg, "l1", [goals[n] for n in order], 1)
    assert (plan.first_action, plan.value) == (action, value)


def test_plan_horizon_validation():
    system = _thermostat_system()
    with pytest.raises(ValueError):
        plan_horizon(system.cfg, "h1", [], 0)


def test_plan_best_effort_scores():
    system = _thermostat_system()
    warm = _thermostat_goal("goal g best_effort utility (room.temp);")
    plan = plan_horizon(system.cfg, "h1", [system.goals["band"], warm], 2)
    assert plan.value is not None
    # the pessimistic value is a temperature the plan can actually keep
    assert plan.value[0] >= Fraction(35, 2)


def test_each_horizon_leaf_is_valued_once(monkeypatch):
    # a leaf is a state and its goal flags at the horizon; the thermostat
    # reaches each by one path, so a plan values each once, and a second
    # plan through the same records none: the root's value is recorded
    valued = Counter()
    leaf_value = games._Search.leaf_value

    def counted(self, c, reached, clean):
        valued[c.state_hash(), reached, clean] += 1
        return leaf_value(self, c, reached, clean)

    monkeypatch.setattr(games._Search, "leaf_value", counted)
    system = _thermostat_system()
    goals = [system.goals["band"],
             _thermostat_goal("goal g best_effort utility (room.temp);")]
    records = {}
    first = plan_horizon(system.cfg, "h1", goals, 2, records)
    assert valued and max(valued.values()) == 1
    valued.clear()
    again = plan_horizon(system.cfg, "h1", goals, 2, records)
    assert not valued
    assert (again.first_action, again.value) == (first.first_action, first.value)


def test_a_plan_records_only_the_states_it_expands(monkeypatch):
    # a state reached only after the last agent turn is a leaf, valued
    # from its configuration: the plan neither lists it nor records it
    listed, valued = set(), set()
    listing, leaf_value = games.step_candidates, games._Search.leaf_value

    def counting(cfg):
        listed.add(cfg.state_hash())
        return listing(cfg)

    def counted(self, c, reached, clean):
        valued.add(c.state_hash())
        return leaf_value(self, c, reached, clean)

    monkeypatch.setattr(games, "step_candidates", counting)
    monkeypatch.setattr(games._Search, "leaf_value", counted)
    system = _thermostat_system()
    records = {}
    plan_horizon(system.cfg, "h1", [system.goals["band"]], 2, records)
    assert valued - listed
    assert set(records) == listed


def test_a_plan_without_records_lists_each_state_once(monkeypatch):
    # a plan given no records plans in a dict of its own that nothing
    # trims, however many more states than `model.RECORDS` it reaches
    system = load(PLATOON_DELIBERATIVE)[0]
    goals = [system.goals[n] for n in system.agent_defs["v1"].goals]
    listed = Counter()
    listing = games.step_candidates

    def counting(cfg):
        listed[cfg.state_hash()] += 1
        return listing(cfg)

    monkeypatch.setattr(games, "step_candidates", counting)
    plan_horizon(system.cfg, "v1", goals, 6)
    assert len(listed) > model.RECORDS
    assert max(listed.values()) == 1


ROCKS = """\
type rock object {
  var n: int[0, 3];
  dynamics {
    rule tick if self.n < 2 then { self.n := self.n + 1; }
  }
}

type eye agent {
}

motif pile {
  map line(3);
  config rule drop for r: rock if r.n = 2 then { leave(r, pile); }
}

component r1: rock { n = 2; } in pile at 0;

component r2: rock in pile at 1;

component e: eye in pile at 2;

goal keep best_effort utility (@(r1, pile));

agent e {
  sensor { motif pile; see rock; }
  goals keep;
}
"""


def test_undefined_utility_scores_zero():
    # once r1 has left the pile, `keep` is an undefined address on that
    # branch: it scores 0, as an unbound parameter or an evaluation error
    # does, for the planner and for a deliberative agent in a run
    model, diags = parse(ROCKS)
    assert model is not None, diags
    system = model.build()
    plan = plan_horizon(system.cfg, "e", [system.goals["keep"]], 1)
    assert (plan.value, plan.first_action) == ((0,), "idle")
    trace = sim.run(system, steps=5)
    assert [e["rule"] for e in trace.events] == ["drop", "tick", "tick", "drop"]


# -- controller tables -------------------------------------------------------


def test_export_import_round_trip():
    system = _thermostat_system()
    band = system.goals["band"]
    game = ground(system.cfg, "h1", bad=band.holds)
    ctrl = solve_safety(game)
    text = export_controller(ctrl)
    back = import_controller(text, game)
    assert back.winning == ctrl.winning
    assert back.kept == ctrl.kept
    assert export_controller(back) == text


def test_import_rejects_a_table_of_an_older_state_hash():
    # a v1 table keys its states by version-1 state hashes, which no state
    # hashes to any more: a table's version is its state hash's
    system = _thermostat_system()
    game = ground(system.cfg, "h1", bad=system.goals["band"].holds)
    text = export_controller(solve_safety(game))
    assert text.startswith("# controller-table v2\n")
    assert model.HASH_VERSION == 2
    old = text.replace("v2", "v1", 1)
    with pytest.raises(InvariantViolation, match="controller table v1 .* older state hash"):
        import_controller(old)


def test_import_rejects_tampering():
    system = _thermostat_system()
    band = system.goals["band"]
    game = ground(system.cfg, "h1", bad=band.holds)
    ctrl = solve_safety(game)
    lines = export_controller(ctrl).splitlines()
    for i, ln in enumerate(lines):
        if "\t" in ln and not ln.endswith("\t-"):
            lines[i] = ln + "-tampered"
            break
    with pytest.raises(InvariantViolation):
        import_controller("\n".join(lines), game)
    with pytest.raises(InvariantViolation):
        import_controller("no header\n", game)
    with pytest.raises(InvariantViolation, match="non-integer rank"):
        import_controller("# controller-table v2\na0\tx\tgo\n")
    # a rank on one winning state of a safety table leaves the rest unranked
    ranked = export_controller(ctrl).splitlines()
    key, _, lab = ranked[1].split("\t")
    ranked[1] = f"{key}\t0\t{lab}"
    with pytest.raises(InvariantViolation, match="unranked state"):
        import_controller("\n".join(ranked), game)
    # a state has one rank, >= 0, which the table repeats per kept action
    header = "# controller-table v2\n"
    twice = import_controller(header + "a0\t1\tgo\na0\t1\tstop\n")
    assert twice.rank == {"a0": 1} and twice.kept == {"a0": ("go", "stop")}
    for second in ("2", "-"):
        with pytest.raises(InvariantViolation, match="second rank"):
            import_controller(header + f"a0\t1\tgo\na0\t{second}\tstop\n")
    with pytest.raises(InvariantViolation, match="negative rank"):
        import_controller(header + "a0\t-1\tgo\n")
    with pytest.raises(InvariantViolation, match="malformed line"):
        import_controller(header + "a0\t1\n")


def test_reach_rank_export():
    g = GameModel()
    g.add_state("a0", AGENT_TURN)
    g.add_state("e0", ENV_TURN)
    g.add_state("a1", AGENT_TURN, target=True)
    g.add_action(0, "step", 1)
    g.add_action(1, "env", 2)
    ctrl = solve_reach(g)
    back = import_controller(export_controller(ctrl), g)
    assert back.rank == ctrl.rank
    assert back.rank
