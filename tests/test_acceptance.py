"""End-to-end acceptance gate.

One test per criterion; each prints a single pass line with its
measurements.  Budgeted criteria assert their wall-clock limits.
"""

import itertools
import time
from fractions import Fraction

from motifsim import sim
from motifsim.expr import Ctx
from motifsim.games import (
    AGENT_TURN, ENV_TURN, ground, solve_reach, solve_safety,
)
from motifsim.lang import parse, print_model
from motifsim.rules import apply, enabled_bindings, step_candidates
from motifsim.agents import EnvModel, SensorSpec, perceive, reflect
from motifsim.scenarios import (
    BUNDLED, PLATOON, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)

from game_oracle import oracle_reach, oracle_safety, random_game
from test_agents import restrict

N_GAMES = 200


def _system(text):
    model, diags = parse(text)
    assert model is not None, diags
    return model.build()


def _corpus():
    return [random_game(seed) for seed in range(N_GAMES)]


SMALL_PLATOON = """\
type car agent {
  var speed: int[0, 3];
}

motif strip {
  map line(5);
  config rule advance for a: car if empty(succ(@(a))) then { @(a) := succ(@(a)); }
}

component a1: car { speed = 1; } in strip at 0;

component a2: car { speed = 2; } in strip at 2;
"""


def test_criterion_01_solver_oracle_equivalence():
    t0 = time.monotonic()
    for seed in range(N_GAMES):
        game = random_game(seed)
        assert solve_safety(game).winning == oracle_safety(game), seed
        assert solve_reach(game).winning == oracle_reach(game), seed
    dt = time.monotonic() - t0
    assert dt < 10.0
    print(f"criterion 1: PASS - solver/oracle equivalence on {N_GAMES} "
          f"games in {dt:.2f} s")


def test_criterion_02_maximal_permissiveness():
    checked = 0
    for game in _corpus():
        ctrl = solve_safety(game)
        for s in game.states:
            if s.turn != AGENT_TURN or s.key not in ctrl.winning:
                continue
            kept = set(ctrl.kept_actions(s.key))
            for label, dst in s.actions:
                dst_wins = game.states[dst].key in ctrl.winning
                if label in kept:
                    assert dst_wins, (s.key, label)
                else:
                    assert not dst_wins, (s.key, label)
                checked += 1
    print(f"criterion 2: PASS - {checked} kept/pruned actions verified "
          "maximally permissive")


def _scenario_games():
    # the bundled shuttle counts laps to 10^5, far past any state budget;
    # ground it with a small lap counter instead
    small_shuttle = SHUTTLE.replace("int[0, 100000]", "int[0, 5]")
    games = []
    for text, ego, goal in ((THERMOSTAT, "h1", "band"), (SOCCER, "p1", None),
                            (small_shuttle, "bus", None),
                            (SMALL_PLATOON, "a1", None)):
        system = _system(text)
        bad = system.goals[goal].holds if goal else None
        games.append(ground(system.cfg, ego, max_states=20000, bad=bad))
    return games


def test_criterion_03_uncontrollable_closure():
    games = _corpus() + _scenario_games()
    checked = 0
    for game in games:
        ctrl = solve_safety(game)
        for s in game.states:
            if s.key not in ctrl.winning or s.turn != ENV_TURN:
                continue
            for label, dst in s.actions:
                assert game.states[dst].key in ctrl.winning, (s.key, label)
                checked += 1
    print(f"criterion 3: PASS - no uncontrollable edge exits any winning set "
          f"({len(games)} games, {checked} env edges)")


def test_criterion_04_reach_progress():
    verified = 0
    for game in _corpus():
        if len(game) > 64:
            continue
        ctrl = solve_reach(game)
        if not ctrl.winning:
            continue
        memo = {}

        def forced(i, budget):
            s = game.states[i]
            if s.target:
                return True
            key = (i, budget)
            if key in memo:
                return memo[key]
            memo[key] = False
            if s.turn == AGENT_TURN:
                if budget == 0:
                    return False
                kept = set(ctrl.kept_actions(s.key))
                dsts = [dst for label, dst in s.actions if label in kept]
                r = bool(dsts) and all(forced(dst, budget - 1) for dst in dsts)
            else:
                r = bool(s.actions) and all(
                    forced(dst, budget) for _, dst in s.actions)
            memo[key] = r
            return r

        for s in game.states:
            if s.key in ctrl.winning:
                assert forced(game.index[s.key], ctrl.rank[s.key]), s.key
                verified += 1
    print(f"criterion 4: PASS - every kept action reaches target within "
          f"rank ({verified} winning states walked)")


def test_criterion_05_thermostat_band():
    t0 = time.monotonic()
    system = _system(THERMOSTAT)
    for seed in range(20):
        trace = sim.run(system, steps=10000, seed=seed)
        assert all(c.ok for c in trace.checks), (seed, trace.summary())

    band = system.goals["band"]
    game = ground(system.cfg, "h1", bad=band.holds)
    ctrl = solve_safety(game)
    assert ctrl.covers(game.states[game.initial].key)
    for seed in range(20):
        trace = sim.run(system, steps=10000, seed=seed,
                        controllers={"h1": (frozenset({"band"}), ctrl)})
        assert all(c.ok for c in trace.checks), (seed, trace.summary())
    dt = time.monotonic() - t0
    assert dt < 5.0
    print(f"criterion 5: PASS - band held for 10^4 steps x 20 seeds under "
          f"both controllers in {dt:.2f} s")


def test_criterion_06_rule_semantics():
    # exchange double application is the identity
    swap_model = _system("""\
type car agent {
  var speed: int[0, 5];
}

motif lane {
  map line(3);
  interaction rule swap for a: car, b: car then { exchange(a.speed, b.speed); }
}

component c1: car { speed = 2; } in lane at 0;

component c2: car { speed = 4; } in lane at 1;
""")
    cfg = swap_model.cfg
    rule = cfg.motif("lane").rules[0]
    once = apply(cfg, "lane", rule, {"a": "c1", "b": "c2"})
    twice = apply(once, "lane", rule, {"a": "c1", "b": "c2"})
    assert twice.state_hash() == cfg.state_hash()

    # mobility never doubles up a node over a 10^3-step run
    world = sim.World(_system(PLATOON), seed=0)
    for _ in range(1000):
        if world.advance() is None:
            break
        nodes = [n for (cid, mid), n in world.cfg.addresses.items()
                 if mid == "road"]
        assert len(nodes) == len(set(nodes))

    # binding enumeration equals brute-force tuple filtering
    model5 = _system("""\
type car agent {
  var speed: int[0, 5];
}

motif lane {
  map line(9);
  interaction rule pair for a: car, b: car if distance(@(a), @(b)) <= 2 and a.speed < b.speed then { a.speed := b.speed; }
}

component c1: car { speed = 0; } in lane at 0;

component c2: car { speed = 3; } in lane at 1;

component c3: car { speed = 2; } in lane at 2;

component c4: car { speed = 5; } in lane at 5;

component c5: car { speed = 1; } in lane at 6;
""")
    cfg = model5.cfg
    rule = cfg.motif("lane").rules[0]
    got = enabled_bindings(cfg, "lane", rule)
    guard = rule.guard_fn()
    members = sorted(cfg.motif("lane").members)
    want = []
    for a, b in itertools.product(members, members):
        if a == b:
            continue
        if guard(Ctx(cfg, cfg.motif("lane"), {"a": a, "b": b})):
            want.append({"a": a, "b": b})
    assert got == want and want
    print(f"criterion 6: PASS - exchange involution, occupancy over 10^3 "
          f"steps, {len(want)} brute-forced bindings")


def test_criterion_07_soccer_migration():
    for seed in range(20):
        world = sim.World(_system(SOCCER), seed=seed)
        owner = world.cfg.components["ball1"].state["owner"]
        steps = 0
        for _ in range(500):
            e = world.advance()
            if e is None:
                break
            steps += 1
            cfg = world.cfg
            for p in ("p1", "p2"):
                in_a = p in cfg.motif("attack").members
                in_d = p in cfg.motif("defense").members
                assert in_a != in_d, (seed, steps, p)
            now = cfg.components["ball1"].state["owner"]
            if now != owner:
                where = "attack" if now == "us" else "defense"
                assert {"p1", "p2"} <= cfg.motif(where).members, (seed, steps)
            owner = now
    print("criterion 7: PASS - one-of-attack/defense every step and "
          "migration atomic with possession change (20 seeds x 500 steps)")


def test_criterion_08_platoon():
    joined_at = {}
    for seed in range(20):
        world = sim.World(_system(PLATOON), seed=seed)
        members_before = set(world.cfg.motif("platoon").members)
        for step in range(1000):
            e = world.advance()
            if e is None:
                break
            cfg = world.cfg
            nodes = [n for (cid, mid), n in cfg.addresses.items()
                     if mid == "road"]
            assert len(nodes) == len(set(nodes)), (seed, step)
            members = set(cfg.motif("platoon").members)
            for cid in members - members_before:
                joined_at[(seed, cid)] = step
            # joins are atomic, so speeds match from the joining step on,
            # well inside the 10-step allowance
            leader = cfg.components["v4"].state["speed"]
            for cid in members:
                assert cfg.components[cid].state["speed"] == leader, \
                    (seed, step, cid, joined_at.get((seed, cid)))
            members_before = members
    print("criterion 8: PASS - pairwise gaps kept and follower speeds "
          "synced at join (20 seeds x 10^3 steps)")


def test_criterion_09_reflection_fidelity():
    cases = [(THERMOSTAT, "h1", "house", 2000),
             (PLATOON, "v1", "road", 1000),
             (SOCCER, "p1", "field", 500),
             (SHUTTLE, "bus", "route", 100)]
    total = 0
    for text, ego, motif, steps in cases:
        system = _system(text)
        spec = SensorSpec(motif, visible={t: None for t in system.cfg.types})
        world = sim.World(system, seed=0)
        model = EnvModel.blank(world.cfg, motif)
        for step in range(steps + 1):
            model = reflect(model, perceive(world.cfg, ego, spec))
            assert restrict(model.cfg, spec) == restrict(world.cfg, spec), \
                (ego, step)
            total += 1
            if step < steps and world.advance() is None:
                break
    print(f"criterion 9: PASS - faithful-sensor beliefs equal restricted "
          f"truth at {total} steps across all bundled scenarios")


def test_criterion_10_reproducibility():
    corpus = [*BUNDLED.values(), THERMOSTAT_DELIBERATIVE]
    for text in corpus:
        parsed, diags = parse(text)
        assert parsed is not None, diags
        printed = print_model(parsed)
        reparsed, _ = parse(printed)
        assert print_model(reparsed) == printed

    for text in (SHUTTLE, PLATOON, SOCCER):
        a = sim.run(_system(text), steps=120, seed=9)
        b = sim.run(_system(text), steps=120, seed=9)
        assert a.text() == b.text()
        final = sim.replay(_system(text), a.text())
        assert final.canonical_key() == a.final.canonical_key()
    print("criterion 10: PASS - byte-identical traces, exact replay, "
          "print/parse fixpoint on the whole corpus")
