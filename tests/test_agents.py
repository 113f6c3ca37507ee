import math
import random
from fractions import Fraction

import pytest

from motifsim import agents, sim
from motifsim.agents import (
    AgentRuntime, DEFAULT_THRESHOLDS, EnvModel,
    KnowledgeRepository, SensorSpec, adapt,
    decide, manage_goals, perceive, reflect,
)
from motifsim.errors import EgoUnplaced, NoSafePlan
from motifsim.expr import TRUE
from motifsim.games import Controller
from motifsim.goals import Goal
from motifsim.lang import parse
from motifsim.model import (
    AGENT, ComponentInstance, ComponentType, Configuration, Map, Motif,
    grid_map, line_map, ring_map,
)
from motifsim.rules import CONFIG, Delete, Param, Rule, apply, step_candidates
from motifsim.scenarios import PLATOON, THERMOSTAT, THERMOSTAT_DELIBERATIVE

from test_model import _well_formed


def _system(text):
    model, diags = parse(text)
    assert model is not None, diags
    return model.build()


def restrict(truth, spec):
    """Canonical view of the truth a faithful sensor should reproduce:
    addressed members of the sensed motif whose types are visible, with
    their visible attrs and addresses."""
    mid = spec.motif
    out = []
    for cid in sorted(truth.motif(mid).members):
        comp = truth.components[cid]
        node = truth.address(cid, mid)
        if comp.type.name not in spec.visible or node is None:
            continue
        attrs = spec.visible[comp.type.name]
        names = sorted(comp.state) if attrs is None else sorted(
            a for a in attrs if a in comp.state)
        out.append((cid, comp.type.name, node,
                    tuple((a, comp.state[a]) for a in names)))
    return tuple(out)


def _road_spec(**kw):
    return SensorSpec("road", visible={"vehicle": None}, **kw)


def _house_spec(**kw):
    kw.setdefault("visible", {"heater": None, "space": ("temp",)})
    return SensorSpec("house", **kw)


# -- perception --------------------------------------------------------------


def test_faithful_percept_matches_truth():
    cfg = _system(PLATOON).cfg
    spec = _road_spec()
    p = perceive(cfg, "v1", spec)
    got = tuple((d.id, d.type, d.node, tuple(sorted(d.state.items())))
                for d in p.detections)
    assert got == restrict(cfg, spec)
    assert {d.id for d in p.detections} == {"v1", "v2", "v3", "v4"}


def test_radius_limits_the_view():
    cfg = _system(PLATOON).cfg
    p = perceive(cfg, "v1", _road_spec(radius=2))
    assert {d.id for d in p.detections} == {"v1", "v2"}
    p0 = perceive(cfg, "v1", _road_spec(radius=0))
    assert {d.id for d in p0.detections} == {"v1"}


def test_detect_zero_sees_nothing():
    cfg = _system(PLATOON).cfg
    p = perceive(cfg, "v1", _road_spec(detect=0), rng=random.Random(1))
    assert p.detections == []


def test_unplaced_ego_raises():
    cfg = _system(PLATOON).cfg
    cfg2 = cfg.clone()
    cfg2.leave("v1", "road")
    cfg2.join("v1", "road")  # a member with no address
    with pytest.raises(EgoUnplaced):
        perceive(cfg2, "v1", _road_spec())


@pytest.mark.parametrize("make", [
    lambda: line_map(7), lambda: ring_map(6), lambda: grid_map(4, 3),
    # one-way edges, a weighted edge and an isolated node
    lambda: Map(range(7), [(0, 1), (1, 2), (3, 2), (4, 3, 5), (5, 0)]),
], ids=["line", "ring", "grid", "one_way"])
def test_visible_nodes_match_per_node_hop_distance(make):
    m = make()
    # unit-weight, both directions: an independent reference via Dijkstra
    undirected = Map(m.nodes, [e for a, d in m.out.items() for b in d
                               for e in ((a, b), (b, a))])
    t = ComponentType("probe", AGENT)
    for here in sorted(m.nodes):
        cfg = Configuration([ComponentInstance("p", t)],
                            [Motif("area", m, members={"p"})], {"probe": t})
        cfg.place("p", "area", here)
        for radius in range(5):
            got = perceive(cfg, "p", SensorSpec("area", radius=radius)).visible_nodes
            assert got == {n for n in m.nodes
                           if m.hop_distance(here, n) <= radius}
            assert got == {n for n in m.nodes
                           if undirected.distance(here, n) <= radius}


def test_noise_is_seeded_and_snapped():
    cfg = _system(THERMOSTAT).cfg
    spec = _house_spec(noise={("space", "temp"): Fraction(1, 2)})
    a = perceive(cfg, "h1", spec, rng=random.Random(42))
    b = perceive(cfg, "h1", spec, rng=random.Random(42))
    assert [(d.type, d.id, d.node, d.state) for d in a.detections] == \
        [(d.type, d.id, d.node, d.state) for d in b.detections]
    assert a.visible_nodes == b.visible_nodes
    room = next(d for d in a.detections if d.type == "space")
    temp = room.state["temp"]
    # snapped back onto the declared 0.5 grid and clamped to the range
    assert Fraction(17) <= temp <= Fraction(23)
    assert (temp * 2).denominator == 1


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 3), Fraction(3, 10),
                               Fraction(9, 10), Fraction(0), Fraction(1)], ids=str)
def test_the_detection_cutoff_gives_the_exact_verdict(p):
    # the smallest double >= p: for 1/3 and 3/10 the nearest double lies
    # below p, so `float(p)` would detect on a draw of exactly that double
    cut = SensorSpec("road", detect=p).cutoff
    assert type(cut) is float and cut >= p > math.nextafter(cut, -math.inf)
    near = float(p)
    rng = random.Random(0)
    draws = [near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf)]
    draws += [rng.random() for _ in range(10_000)]
    assert [x < cut for x in draws] == [x < p for x in draws]


def test_invisible_types_are_not_sensed():
    cfg = _system(THERMOSTAT).cfg
    p = perceive(cfg, "h1", SensorSpec("house", visible={"heater": None}))
    assert {d.type for d in p.detections} == {"heater"}


# -- reflection --------------------------------------------------------------


def test_reflect_reaches_fidelity_in_one_step():
    cfg = _system(PLATOON).cfg
    spec = _road_spec()
    model = EnvModel.blank(cfg, "road")
    model = reflect(model, perceive(cfg, "v1", spec))
    assert restrict(model.cfg, spec) == restrict(cfg, spec)


def _kept(new, old):
    """The component and motif ids whose object `new` shares with `old`."""
    return ({cid for cid, c in new.components.items() if old.components.get(cid) is c},
            {mid for mid, m in new.motifs.items() if old.motifs.get(mid) is m})


def test_reflect_copies_only_what_its_percept_changed():
    cfg = _system(PLATOON).cfg
    spec = _road_spec(radius=2)
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec))
    old = model.cfg
    assert set(old.components) == {"v1", "v2"}

    # nothing changed: every fragment is shared, so is the hash
    same = reflect(model, perceive(cfg, "v1", spec)).cfg
    assert _kept(same, old) == ({"v1", "v2"}, {"road", "platoon"})
    assert same.state_hash() == old.state_hash()

    # v1 moved: only its address entry is new
    moved = next(c for c in step_candidates(cfg) if c.label == "road/advance[a=v1]").fire()
    belief = reflect(model, perceive(moved, "v1", spec)).cfg
    assert _kept(belief, old) == ({"v1", "v2"}, {"road", "platoon"})
    assert belief.address("v1", "road") == 1
    assert belief.state_hash() != old.state_hash()

    # v2 slowed: only v2 is copied
    slowed = cfg.clone()
    slowed.set_var("v2", "speed", 0)
    belief = reflect(model, perceive(slowed, "v1", spec)).cfg
    assert _kept(belief, old) == ({"v1"}, {"road", "platoon"})
    assert belief.components["v2"].state["speed"] == 0

    # v3 comes into view: the sensed motif is copied
    belief = reflect(model, perceive(cfg, "v1", _road_spec(radius=4))).cfg
    assert _kept(belief, old) == ({"v1", "v2"}, {"platoon"})
    assert belief.motif("road").members == {"v1", "v2", "v3"}

    # the truth's map changed: so is the sensed motif's
    grown = cfg.clone()
    grown.set_map("road", grown.motif("road").map.add_node(99))
    belief = reflect(model, perceive(grown, "v1", spec)).cfg
    assert _kept(belief, old) == ({"v1", "v2"}, {"platoon"})
    assert belief.motif("road").map is grown.motif("road").map


def test_reflect_tells_equal_values_of_another_class_apart():
    # `1` and `Fraction(1)` are equal but hash apart, so the belief takes
    # the detected value
    cfg = _system(PLATOON).cfg
    spec = _road_spec(radius=2)
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec))
    assert model.cfg.components["v2"].state["speed"] == 1
    p = perceive(cfg, "v1", spec)
    for det in p.detections:
        det.state = {k: Fraction(v) for k, v in det.state.items()}
    belief = reflect(model, p).cfg
    assert _kept(belief, model.cfg)[0] == set()
    assert type(belief.components["v2"].state["speed"]) is Fraction
    assert belief.state_hash() != model.cfg.state_hash()


def test_reflect_tracks_movement():
    system = _system(PLATOON)
    cfg = system.cfg
    spec = _road_spec()
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec))
    cand = next(c for c in step_candidates(cfg) if "advance[a=v4]" in c.label)
    cfg2 = cand.fire()
    model = reflect(model, perceive(cfg2, "v1", spec))
    assert model.cfg.address("v4", "road") == 7


def test_staleness_drops_vanished_components():
    cfg = _system(PLATOON).cfg
    spec = _road_spec()
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec))
    assert "v2" in model.cfg.components
    drop = Rule("drop", CONFIG, [Param("a", "vehicle")], TRUE, [Delete("a")])
    drop.compile(cfg)
    gone = apply(cfg, "road", drop, {"a": "v2"})
    k = DEFAULT_THRESHOLDS["k_stale"]
    for i in range(k):
        assert "v2" in model.cfg.components  # still believed
        model = reflect(model, perceive(gone, "v1", spec))
    assert "v2" not in model.cfg.components
    assert "v2" not in model.cfg.motif("road").members


def test_out_of_range_components_are_kept():
    cfg = _system(PLATOON).cfg
    spec = _road_spec(radius=2)
    model = reflect(EnvModel.blank(cfg, "road"),
                    perceive(cfg, "v1", _road_spec()))
    # v4 leaves the radius-2 view: unseen but not inside the visible
    # region, so it must not accrue staleness
    for i in range(10):
        model = reflect(model, perceive(cfg, "v1", spec))
    assert "v4" in model.cfg.components


def test_anonymous_association():
    cfg = _system(PLATOON).cfg
    spec = _road_spec(identity=False)
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec))
    hypos = sorted(model.cfg.components)
    assert hypos == ["vehicle?0", "vehicle?1", "vehicle?2", "vehicle?3"]
    cand = next(c for c in step_candidates(cfg) if "advance[a=v4]" in c.label)
    cfg2 = cand.fire()
    model2 = reflect(model, perceive(cfg2, "v1", spec))
    # the moved detection associates to the nearest tracked hypothesis
    assert sorted(model2.cfg.components) == hypos
    assert model2.cfg.address("vehicle?3", "road") == 7


# a bot that senses bots and crates without their identities
DEPOT = """\
type bot agent {
}

type crate object {
  var w: int[0, 3];
  dynamics {
    rule push for b: bot if self.w < 3 then { self.w := self.w + 1; }
  }
}

motif depot {
  map line(4);
}

component b1: bot in depot at 0;

component k1: crate in depot at 1;

component k2: crate in depot at 2;

agent b1 {
  sensor {
    see bot;
    see crate;
    identity off;
  }
}
"""


def test_anonymous_detections_associate_within_their_type():
    world = sim.World(_system(DEPOT))
    beliefs = []
    while world.advance() is not None:
        belief = world.runtimes["b1"].model.cfg
        beliefs.append({cid: (c.type.name, belief.address(cid, "depot"))
                        for cid, c in belief.components.items()})
    assert len(beliefs) == 6  # each crate pushed to 3
    assert beliefs == [{"bot?0": ("bot", 0), "crate?1": ("crate", 1),
                        "crate?2": ("crate", 2)}] * 6


# a rover that grows the yard's map, moves onto the new node, and back,
# removing it, watched by an agent that sees rovers
ROVER = """\
type rover object {{
  var moved: bool;
}}

type watcher agent {{
}}

motif yard {{
  map line(3);
  config rule grow for r: rover if not r.moved and @(r) = 1 then {{ r.moved := true; addnode(7); addedge(1, 7); @(r) := 7; }}
  config rule back for r: rover if @(r) = 7 then {{ @(r) := 1; removeedge(1, 7); removenode(7); }}
  config rule again for r: rover if r.moved and @(r) = 1 then {{ r.moved := false; }}
}}

component w: watcher in yard at 0;

component r1: rover in yard at 1;

agent w {{
  sensor {{
    see rover;
    identity {identity};
    detect {detect};
  }}
  horizon 1;
}}
"""


@pytest.mark.parametrize("identity, detect", [("on", "1.0"), ("off", "0.5")])
def test_the_belief_follows_the_truths_map_edits(identity, detect):
    # the believed map was the design-time one, so a detection on the
    # added node raised `UnknownNode`; a belief on the removed node is
    # dropped, as the truth removes only unoccupied nodes
    system = _system(ROVER.format(identity=identity, detect=detect))
    for seed in range(3):
        world = sim.World(system, seed=seed)
        rules = set()
        for _ in range(20):
            sensed = world.cfg.motif("yard").map  # before the step's event
            rules.add(world.advance()["rule"])
            belief = world.runtimes["w"].model.cfg
            believed = belief.motif("yard").map
            assert believed.canonical() == sensed.canonical()
            assert all(n in believed.nodes for n in belief.addresses.values())
        assert rules == {"grow", "back", "again"}


def test_an_agent_without_a_sensor_block_senses_its_home_motif():
    system = _system(THERMOSTAT.replace(
        "scenario {", "agent h1 {\n  goals band;\n}\n\nscenario {"))
    assert system.sensors["h1"].motif == "house"
    # it sees no type, so it believes in no component and never acts,
    # while the room cools to its floor
    trace = sim.run(system, steps=20)
    assert [e["rule"] for e in trace.events] == ["cool"] * 6
    assert {e["beliefs"]["h1"] for e in trace.events} == {
        EnvModel.blank(system.cfg, "house").digest()}


def _swapped(text, a, b):
    """`text` with the component lines of `a` and `b` traded but for
    their ids: each takes the other's state and addresses."""
    lines = text.splitlines(keepends=True)
    i, j = (next(k for k, s in enumerate(lines) if s.startswith(f"component {c}:"))
            for c in (a, b))
    lines[i], lines[j] = (lines[j].replace(f"component {b}:", f"component {a}:"),
                          lines[i].replace(f"component {a}:", f"component {b}:"))
    return "".join(lines)


def test_an_anonymous_belief_does_not_follow_the_hidden_ids():
    # trading v2's and v3's addresses and speeds changes no anonymous
    # detection, so neither the percept's order nor the belief may change
    spec = _road_spec(identity=False)
    percepts, beliefs = [], []
    for text in (PLATOON, _swapped(PLATOON, "v2", "v3")):
        cfg = _system(text).cfg
        p = perceive(cfg, "v1", spec)
        percepts.append([(d.type, d.id, d.node, d.state) for d in p.detections])
        beliefs.append(reflect(EnvModel.blank(cfg, "road"), p).digest())
    assert percepts[0] == percepts[1]
    assert [node for _, _, node, _ in percepts[0]] == [0, 2, 4, 6]
    assert beliefs[0] == beliefs[1]


def test_platoon_chain_pattern():
    cfg = _system(PLATOON).cfg
    spec = _road_spec()
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec),
                    ["platoon_chain"])
    # 0, 2, 4, 6 is one chain with gaps of 2; the leader is frontmost
    assert "platoon_v4" in model.cfg.motifs
    assert model.cfg.motif("platoon_v4").members == {"v1", "v2", "v3", "v4"}
    assert model.cfg.address("v4", "platoon_v4") == 6


def test_platoon_chain_pattern_splits_on_gap():
    system = _system(PLATOON)
    cfg = system.cfg.clone()
    cfg.place("v1", "road", 20)  # far from the others
    spec = _road_spec()
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v1", spec),
                    ["platoon_chain"])
    assert model.cfg.motif("platoon_v4").members == {"v2", "v3", "v4"}
    assert "platoon_v1" not in model.cfg.motifs  # singletons are not platoons


def test_platoon_chain_pattern_unplaces_members_that_left():
    system = _system(PLATOON)
    cfg = system.cfg.clone()
    spec = _road_spec()
    patterns = ["platoon_chain"]
    model = reflect(EnvModel.blank(cfg, "road"), perceive(cfg, "v2", spec), patterns)
    assert model.cfg.motif("platoon_v4").members == {"v1", "v2", "v3", "v4"}
    cfg.place("v1", "road", 20)  # v1 drives away from the chain
    model = reflect(model, perceive(cfg, "v2", spec), patterns)
    pm = model.cfg.motif("platoon_v4")
    assert pm.members == {"v2", "v3", "v4"}
    assert {cid for cid, mid in model.cfg.addresses if mid == "platoon_v4"} <= pm.members
    assert _well_formed(model.cfg)


# a declared motif with no rules and a name the pattern makes, which a
# goal of v1's reads
PLATOON_X = PLATOON.replace("scenario {", """\
motif platoon_x {
  map line(30);
}

goal inx best_effort reach (member(v1, platoon_x)) priority 0;

agent v1 {
  sensor {
    motif road;
    see vehicle;
  }
  goals inx;
  pattern platoon_chain;
}

scenario {""")


@pytest.mark.parametrize("seed", range(3))
def test_platoon_chain_pattern_keeps_the_declared_motifs(seed):
    world = sim.World(_system(PLATOON_X), seed=seed)
    built = set()
    for _ in range(30):
        assert world.advance() is not None
        built |= set(world.runtimes["v1"].model.cfg.motifs)
        assert "platoon_x" in world.runtimes["v1"].model.cfg.motifs
    assert "platoon_v4" in built  # the pattern ran


# v1 senses no var of any vehicle, while its goal and the `match` rule's
# effect read one
PLATOON_BLIND = PLATOON.replace("  config rule form", """\
  config rule match for a: vehicle, b: vehicle if distance(@(b), @(a)) <= 2 then { b.speed := a.speed; }
  config rule form""").replace("scenario {", """\
goal fast best_effort utility (v2.speed) priority 0;

agent v1 {
  sensor {
    motif road;
    see vehicle [];
  }
  goals fast;
}

scenario {""")


def test_a_belief_holds_the_vars_its_sensor_hides(monkeypatch):
    """A believed component starts from its type's defaults
    (`ComponentInstance`), so a goal or a planned effect that reads a var
    the sensor hides reads the default: `VarRef` never misses a var."""
    system = _system(PLATOON_BLIND)
    vehicle = system.cfg.types["vehicle"]
    belief = reflect(EnvModel.blank(system.cfg, "road"),
                     perceive(system.cfg, "v1", SensorSpec("road", visible={"vehicle": ()})))
    assert set(belief.cfg.components) == {"v1", "v2", "v3", "v4"}
    assert all(c.state == vehicle.default_state() for c in belief.cfg.components.values())
    assert system.cfg.components["v2"].state["speed"] == 1
    assert system.goals["fast"].score(belief.cfg) == 0

    scored = []
    score = Goal.score
    monkeypatch.setattr(Goal, "score", lambda g, cfg: scored.append(g) or score(g, cfg))
    for seed in range(3):
        world = sim.World(_system(PLATOON_BLIND), seed=seed)
        for _ in range(30):
            assert world.advance() is not None
    assert scored  # the planner scored the goal on beliefs


# -- adaptation --------------------------------------------------------------


def _band_goal():
    return _system(THERMOSTAT).goals["band"]


def test_adapt_quiescent():
    system = _system(THERMOSTAT)
    model = EnvModel(system.cfg, "house")
    repo = KnowledgeRepository()
    assert adapt(repo, model, [], [system.goals["band"]], 3,
                 DEFAULT_THRESHOLDS) == (3, False)
    assert repo.records == []


def test_adapt_detects_violation_and_recovers():
    system = _system(THERMOSTAT)
    cfg = system.cfg.clone()
    cfg.set_var("room", "temp", Fraction(17))
    repo = KnowledgeRepository()
    assert adapt(repo, EnvModel(cfg, "house"), [], [system.goals["band"]], 3,
                 DEFAULT_THRESHOLDS, step=9) == (3, True)
    recs = [r for r in repo.records if r.kind == "violation"]
    assert len(recs) == 1 and recs[0].step == 9


def test_adapt_ewma_shrinks_and_grows_horizon():
    system = _system(THERMOSTAT)
    model = EnvModel(system.cfg, "house")
    repo = KnowledgeRepository()
    rising = [Fraction(1, 10)] * 10 + [Fraction(1, 2)]
    assert adapt(repo, model, rising, [], 3, DEFAULT_THRESHOLDS) == (2, False)
    assert adapt(repo, model, rising, [], 1, DEFAULT_THRESHOLDS) == (1, False)
    falling = [Fraction(1, 2)] * 10 + [Fraction(1, 10)]
    assert adapt(repo, model, falling, [], 3, DEFAULT_THRESHOLDS) == (4, False)
    # the cap stops growth
    cap = DEFAULT_THRESHOLDS["horizon_cap"]
    assert adapt(repo, model, falling, [], cap, DEFAULT_THRESHOLDS) == (cap, False)


# -- goal management ---------------------------------------------------------


def test_manage_goals_drops_infeasible_goals():
    system = _system(THERMOSTAT)
    repo = KnowledgeRepository()
    g1 = system.goals["band"]
    g2 = Goal("impossible", "avoid", system.cfg, predicate=g1.predicate,
              criticality="best_effort", priority=5)
    feasible = lambda gs, h: all(g.name != "impossible" for g in gs)
    kept = manage_goals(repo, [g2, g1], 3, feasible)
    assert [g.name for g in kept] == ["band"]
    assert [r.detail for r in repo.records if r.kind == "dropped"] == ["impossible"]


def test_manage_goals_orders_critical_first():
    system = _system(THERMOSTAT)
    repo = KnowledgeRepository()
    g1 = system.goals["band"]
    g2 = Goal("nicety", "avoid", system.cfg, predicate=g1.predicate,
              criticality="best_effort")
    kept = manage_goals(repo, [g2, g1], 3, lambda gs, h: True)
    assert [g.name for g in kept] == ["band", "nicety"]


def test_manage_goals_recovery_goes_on_top():
    system = _system(THERMOSTAT)
    g1 = system.goals["band"]
    rec = Goal("reheat", "reach", system.cfg, predicate=g1.predicate,
               criticality="critical")
    for active in ([g1], [g1, rec]):  # once, also when it is active
        kept = manage_goals(KnowledgeRepository(), active, 3,
                            lambda gs, h: True, recovery=rec)
        assert [g.name for g in kept] == ["reheat", "band"]


# -- decision ----------------------------------------------------------------


def test_decide_without_goals_is_idle():
    system = _system(THERMOSTAT)
    assert decide(system.cfg, [], None, "h1", 3) is None


def test_decide_plays_a_library_controller():
    system = _system(THERMOSTAT)
    key = system.cfg.state_hash() + ":a"
    ctrl = Controller({key}, {key: ("house/go[self=h1]",)})
    lab = decide(system.cfg, [system.goals["band"]], (frozenset({"band"}), ctrl),
                 "h1", 3)
    assert lab == "house/go[self=h1]"


def test_decide_falls_back_to_planning_on_state_miss():
    system = _system(THERMOSTAT)
    cfg = system.cfg.clone()
    cfg.set_var("room", "temp", Fraction(18))
    ctrl = Controller({"deadbeef:a"}, {"deadbeef:a": ("nope",)})
    lab = decide(cfg, [system.goals["band"]], (frozenset({"band"}), ctrl), "h1", 2)
    assert lab is not None and "nope" not in lab


def test_decide_raises_no_safe_plan():
    # an unavoidable critical goal: every first action loses
    imp = _system(THERMOSTAT + "\ngoal low critical avoid (room.temp >= 17.0);\n")
    with pytest.raises(NoSafePlan):
        decide(imp.cfg, [imp.goals["low"]], None, "h1", 2)


# -- the composed loop -------------------------------------------------------


def test_runtime_is_deterministic():
    system = _system(THERMOSTAT_DELIBERATIVE)
    ad = system.agent_defs["h1"]
    spec = SensorSpec.from_def(ad.sensor, "house")
    goals = [system.goals[n] for n in ad.goals]

    def one_run():
        rt = AgentRuntime("h1", spec, goals, horizon=ad.horizon,
                          truth=system.cfg, records={})
        return [rt.step(system.cfg, i, seed=3) for i in range(5)]

    assert one_run() == one_run()


def test_runtime_keeps_band_on_believed_model():
    system = _system(THERMOSTAT_DELIBERATIVE)
    ad = system.agent_defs["h1"]
    spec = SensorSpec.from_def(ad.sensor, "house")
    goals = [system.goals[n] for n in ad.goals]
    rt = AgentRuntime("h1", spec, goals, horizon=ad.horizon, truth=system.cfg,
                      records={})
    lab = rt.step(system.cfg, 0, seed=0)
    # at 20.0 with the heater off, idling is safe at horizon 3
    assert lab is None or "h1" in lab
    assert rt.model.digest()  # beliefs materialized


def test_observe_event_ewma():
    system = _system(THERMOSTAT_DELIBERATIVE)
    ad = system.agent_defs["h1"]
    spec = SensorSpec.from_def(ad.sensor, "house")
    rt = AgentRuntime("h1", spec, [], truth=system.cfg, records={})
    rt.observe_event(True)
    assert rt.ewma == pytest.approx(0.2, rel=1e-12)
    rt.observe_event(False)
    assert rt.ewma == pytest.approx(0.16, rel=1e-12)
    assert len(rt.window) == 2


def test_adaptation_state_stays_fixed_size():
    # an exact EWMA would gain bits of denominator every step, and a
    # window of every value would grow with the run; the float EWMA
    # follows the exact one, and the window keeps what `adapt` reads
    system = _system(THERMOSTAT_DELIBERATIVE)
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    rt = AgentRuntime("h1", spec, [], truth=system.cfg, records={})
    alpha = DEFAULT_THRESHOLDS["alpha"]
    rng = random.Random(0)
    exact = Fraction(0)
    fallback = 0.0  # a Fraction alpha on a float EWMA: the same bits
    for _ in range(10_000):
        unc = rng.random() < 0.3
        rt.observe_event(unc)
        exact = alpha * unc + (1 - alpha) * exact
        fallback = alpha * (1 if unc else 0) + (1 - alpha) * fallback
        assert rt.ewma == fallback
    assert type(rt.ewma) is float
    assert rt.ewma == pytest.approx(exact, rel=1e-9)
    assert len(rt.window) == 11
    assert all(type(v) is float for v in rt.window)
    assert rt.window[-1] == rt.ewma


def test_thresholds_are_range_checked():
    system = _system(THERMOSTAT_DELIBERATIVE)
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    with pytest.raises(ValueError, match="alpha outside"):
        AgentRuntime("h1", spec, [], truth=system.cfg, records={},
                     thresholds={"alpha": 3})


def test_adapt_range_checks_its_thresholds():
    # once, at construction: `adapt` reads the runtime's checked dict
    system = _system(THERMOSTAT_DELIBERATIVE)
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    with pytest.raises(ValueError, match="theta_hi"):
        AgentRuntime("h1", spec, [], truth=system.cfg, records={},
                     thresholds={"theta_hi": -1})


def test_a_runtime_rejects_a_horizon_below_one():
    # at construction, not at the first step's plan
    system = _system(THERMOSTAT_DELIBERATIVE)
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        AgentRuntime("h1", spec, [], truth=system.cfg, records={}, horizon=0)


def test_a_recovery_goal_need_not_be_among_the_goals():
    # the room starts out of band: the heater's belief violates `band`,
    # which cannot then be kept, and it switches on to reach `reheat`,
    # which it is given as its recovery goal only
    system = _system(THERMOSTAT_DELIBERATIVE.replace(
        "temp = 20.0", "temp = 17.0") +
        "\ngoal reheat critical reach (room.temp >= 18.0);\n")
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    rt = AgentRuntime("h1", spec, [system.goals["band"]], truth=system.cfg,
                      records={}, recovery=system.goals["reheat"])
    assert rt.step(system.cfg, 0, seed=0) == "house/off_to_on_0[self=h1]"
    assert [(r.kind, r.detail) for r in rt.repo.records] == [
        ("violation", "band"), ("dropped", "band")]


def test_library_controller_covers_the_believed_state():
    # `low` is lost at every first action, so only a library controller
    # covering the state the agent plans on, its believed model, can
    # keep it
    system = _system(THERMOSTAT_DELIBERATIVE +
                     "\ngoal low critical avoid (room.temp >= 17.0);\n")
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    low = system.goals["low"]

    def runtime(library=None):
        return AgentRuntime("h1", spec, [low], horizon=2, truth=system.cfg,
                            records={}, library=library)

    probe = runtime()
    assert probe.step(system.cfg, 0, seed=0) is None
    assert any(r.kind == "dropped" for r in probe.repo.records)
    key = probe.model.digest() + ":a"
    ctrl = Controller({key}, {key: ("house/go[self=h1]",)})
    rt = runtime((frozenset({"low"}), ctrl))
    assert rt.step(system.cfg, 0, seed=0) == "house/go[self=h1]"
    assert not any(r.kind == "dropped" for r in rt.repo.records)


def _count_plans(monkeypatch):
    """Wrap `agents.plan_horizon`; returns the horizons planned at."""
    horizons = []
    original = agents.plan_horizon

    def counted(cfg, ego, goals, horizon, *rest):
        horizons.append(horizon)
        return original(cfg, ego, goals, horizon, *rest)

    monkeypatch.setattr(agents, "plan_horizon", counted)
    return horizons


def test_feasibility_is_judged_at_the_adapted_horizon(monkeypatch):
    # `cooled` is reachable within two agent turns from 20.0 but not one;
    # a rising uncontrollable-event rate shrinks the horizon from 2 to 1
    system = _system(THERMOSTAT_DELIBERATIVE +
                     "\ngoal cooled critical reach (room.temp <= 19.0);\n")
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    rt = AgentRuntime("h1", spec, [system.goals["cooled"]], horizon=2,
                      truth=system.cfg, records={})
    rt.window = [Fraction(1, 10)] * 10 + [Fraction(1, 2)]
    horizons = _count_plans(monkeypatch)
    assert rt.step(system.cfg, 0, seed=0) is None
    assert rt.horizon == 1
    assert horizons == [1]
    assert [(r.kind, r.detail) for r in rt.repo.records] == [
        ("dropped", "cooled")]


def test_a_step_plans_each_goal_list_once(monkeypatch):
    # the kept list is the last one found feasible, and the step plays
    # the command its plan found: three lists tried, three plans
    system = _system(THERMOSTAT_DELIBERATIVE + """
goal cooled critical reach (room.temp <= 19.0);
goal warm best_effort utility (room.temp) priority 1;
""")
    spec = SensorSpec.from_def(system.agent_defs["h1"].sensor, "house")
    band, cooled, warm = (system.goals[n] for n in ("band", "cooled", "warm"))
    rt = AgentRuntime("h1", spec, [warm, cooled, band], horizon=1,
                      truth=system.cfg, records={})
    horizons = _count_plans(monkeypatch)
    command = rt.step(system.cfg, 0, seed=0)
    assert horizons == [1, 1, 1]
    assert [(r.kind, r.detail) for r in rt.repo.records] == [
        ("dropped", "cooled")]
    assert command == decide(rt.model.cfg, [band, warm], None, "h1", 1, {})
