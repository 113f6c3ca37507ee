import math
from collections import Counter
from fractions import Fraction
from hashlib import blake2b

import pytest

from motifsim import agents, sim
from motifsim.errors import DomainError, EffectError, UnknownEdge, UnknownNode
from motifsim.expr import TRUE, Lit
from motifsim.games import ground
from motifsim.lang import parse
from motifsim.model import (
    AGENT, OBJECT, BoolDomain, ComponentInstance, ComponentType,
    Configuration, ControllerSpec, EnumDomain, IntRange, Map, Motif,
    RealRange, UNREACHABLE, VarDecl, grid_map, line_map, node_sort_key,
    ring_map,
)
from motifsim.rules import CONFIG, MapEdit, Move, Param, Rule, apply
from motifsim.scenarios import PLATOON, THERMOSTAT_DELIBERATIVE, bundled


def test_line_map_distances():
    m = line_map(5)
    assert m.distance(0, 4) == 4
    assert m.distance(4, 0) == UNREACHABLE
    assert m.succ(2) == 3
    assert m.succ(4) is None


def test_ring_map_wraps():
    m = ring_map(4)
    assert m.distance(3, 1) == 2
    assert m.succ(3) == 0


def test_grid_map_structure():
    m = grid_map(3, 2)
    # node 0 connects right and down, both directions
    assert m.has_edge(0, 1) and m.has_edge(1, 0)
    assert m.has_edge(0, 3) and m.has_edge(3, 0)
    assert m.distance(0, 5) == 3
    assert m.hop_distance(0, 5) == 3


def test_weighted_distance():
    m = Map(["a", "b", "c"], [("a", "b", 5), ("a", "c", 1), ("c", "b", 1)])
    assert m.distance("a", "b") == 2


def test_map_edit_errors():
    m = line_map(3)
    with pytest.raises(UnknownNode):
        m.add_edge(0, 9)
    with pytest.raises(UnknownEdge):
        m.remove_edge(2, 0)
    with pytest.raises(UnknownNode):
        m.remove_node(7)
    m.remove_node(1)
    assert m.distance(0, 2) == UNREACHABLE


def test_hop_distance_ignores_direction():
    m = line_map(3)
    assert m.hop_distance(2, 0) == 2
    assert m.distance(2, 0) == UNREACHABLE


def test_int_range():
    d = IntRange(0, 5)
    assert d.contains(5) and not d.contains(6)
    assert not d.contains(True)
    assert d.canon(Fraction(4)) == 4
    with pytest.raises(DomainError):
        d.canon(Fraction(1, 2))


def test_real_range_grid():
    d = RealRange(Fraction(17), Fraction(23), Fraction(1, 2))
    assert d.contains(Fraction(35, 2))
    assert not d.contains(Fraction(1, 3))
    assert d.snap(18.26) == Fraction(73, 4) or d.snap(18.26) == Fraction(37, 2)
    assert d.snap(99) == Fraction(23)
    assert d.snap(-99) == Fraction(17)


def test_enum_domain():
    d = EnumDomain(["on", "off"])
    assert d.canon("on") == "on"
    with pytest.raises(DomainError):
        d.canon("broken")
    with pytest.raises(ValueError):
        EnumDomain(["x", "x"])


def _world():
    t_obj = ComponentType("crate", OBJECT, [VarDecl("full", BoolDomain())])
    t_agt = ComponentType(
        "bot", AGENT, [],
        controller=ControllerSpec(["idle", "busy"], "idle"))
    c1 = ComponentInstance("c1", t_obj)
    b1 = ComponentInstance("b1", t_agt)
    motif = Motif("depot", line_map(4), members={"c1", "b1"})
    cfg = Configuration([c1, b1], [motif], {"crate": t_obj, "bot": t_agt})
    return cfg


def test_controller_reserves_mode():
    cfg = _world()
    assert cfg.components["b1"].state["mode"] == "idle"
    with pytest.raises(ValueError):
        ComponentType("bad", AGENT, [VarDecl("mode", BoolDomain())],
                      controller=ControllerSpec(["a"], "a"))


def test_kind_restrictions():
    with pytest.raises(ValueError):
        ComponentType("x", OBJECT, [], controller=ControllerSpec(["a"], "a"))
    with pytest.raises(ValueError):
        ComponentType("x", AGENT, [], dynamics=[object()])


def _edit(cfg, *effects, who="c1"):
    """`cfg` after a depot configuration rule carrying `effects` fires
    with its crate parameter bound to `who`."""
    rule = Rule("edit", CONFIG, [Param("a", "crate")], TRUE, list(effects))
    return apply(cfg, "depot", rule, {"a": who})


def _placed(n):
    return _edit(_world(), Move("a", Lit(n)))


def test_place_and_occupancy():
    cfg = _world()
    cfg2 = _edit(cfg, Move("a", Lit(2)))
    assert cfg.address("c1", "depot") is None
    assert cfg2.address("c1", "depot") == 2
    assert cfg2.occupied("depot", 2) == {"c1"}
    with pytest.raises(EffectError, match="'nobody' is not a member of 'depot'"):
        _edit(cfg, Move("a", Lit(0)), who="nobody")
    with pytest.raises(EffectError, match="no node 99 in motif 'depot'"):
        _edit(cfg, Move("a", Lit(99)))


def test_remove_node_occupied():
    cfg = _placed(2)
    with pytest.raises(EffectError, match="node 2 of 'depot' is occupied"):
        _edit(cfg, MapEdit("removenode", [Lit(2)]))
    cfg2 = _edit(cfg, MapEdit("removenode", [Lit(3)]))
    assert 3 not in cfg2.motifs["depot"].map.nodes
    assert 3 in cfg.motifs["depot"].map.nodes  # value semantics


def test_add_remove_edge_ops():
    cfg = _world()
    cfg2 = _edit(cfg, MapEdit("addedge", [Lit(3), Lit(0)]))
    assert cfg2.motifs["depot"].map.has_edge(3, 0)
    assert not cfg.motifs["depot"].map.has_edge(3, 0)  # value semantics
    cfg3 = _edit(cfg2, MapEdit("removeedge", [Lit(3), Lit(0)]))
    assert not cfg3.motifs["depot"].map.has_edge(3, 0)
    with pytest.raises(EffectError, match="no edge 3 -> 0"):
        _edit(cfg3, MapEdit("removeedge", [Lit(3), Lit(0)]))
    cfg4 = _edit(cfg, MapEdit("addnode", [Lit(9)]))
    assert 9 in cfg4.motifs["depot"].map.nodes


def test_state_hash_is_canonical():
    a = _placed(1)
    b = _placed(1)
    assert a.state_hash() == b.state_hash()
    c = _placed(2)
    assert a.state_hash() != c.state_hash()


def test_clone_is_copy_on_write():
    cfg = _placed(1)
    c2 = cfg.clone()
    comp = c2._touch_component("c1")
    comp.state["full"] = True
    assert cfg.components["c1"].state["full"] is False
    assert c2.components["c1"].state["full"] is True


def test_fresh_ids_never_repeat():
    cfg = _world().clone()
    ids = {cfg.fresh_id("crate") for _ in range(5)}
    assert len(ids) == 5
    # counters participate in the canonical key, so replays agree
    assert cfg.state_hash() != _world().state_hash()


def test_default_state():
    t = ComponentType("t", OBJECT, [
        VarDecl("b", BoolDomain()), VarDecl("i", IntRange(3, 9)),
        VarDecl("r", RealRange(0, 1)), VarDecl("e", EnumDomain(["x", "y"]))])
    assert t.default_state() == {
        "b": False, "i": 3, "r": Fraction(0), "e": "x"}


def test_unreachable_comparisons():
    assert not (UNREACHABLE < 5)
    assert UNREACHABLE > 10**9
    assert math.isinf(UNREACHABLE)


# -- state hash against a cache-free reference -------------------------------
#
# Components, motifs and maps cache their canonical fragments, and
# `ground`'s collision check compares keys built from the same caches, so
# a fragment left stale by an in-place mutation shows only here.


def _ref_map(m):
    nodes = tuple(sorted(m.nodes, key=node_sort_key))
    edges = tuple(sorted(
        ((a, b, w) for a, d in m.out.items() for b, w in d.items()),
        key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1]))))
    return (nodes, edges)


def _ref_key(cfg):
    """The canonical key rebuilt from raw fields, without any cache."""
    comps = tuple(
        (c.id, c.type.name, tuple(sorted(c.state.items())))
        for c in (cfg.components[cid] for cid in sorted(cfg.components)))
    motifs = tuple(
        (mid, _ref_map(m.map), tuple(sorted(m.members)))
        for mid, m in sorted(cfg.motifs.items()))
    return (comps, motifs, tuple(sorted(cfg.addresses.items())),
            tuple(sorted(cfg.counters.items())))


def _ref_hash(cfg):
    return blake2b(repr(_ref_key(cfg)).encode(), digest_size=8).hexdigest()


@pytest.fixture
def hashed(monkeypatch):
    """Checks every `state_hash` taken, and the canonical key beside it,
    against the reference; collects the hashes."""
    original = Configuration.state_hash
    seen = []

    def state_hash(self):
        h = original(self)
        assert h == _ref_hash(self)
        assert self.canonical_key() == _ref_key(self)
        seen.append(h)
        return h

    monkeypatch.setattr(Configuration, "state_hash", state_hash)
    return seen


def _build(text):
    model, diags = parse(text)
    assert model is not None, diags
    return model.build()


# v1 deliberates on a believed model from a finite, lossy sensor, so its
# beliefs gain and drop components and the platoon_chain pattern rebuilds
# believed motifs
PLATOON_DELIBERATIVE = PLATOON.replace("scenario {", """\
goal ahead best_effort utility (@(v1, road)) priority 0;

agent v1 {
  sensor {
    motif road;
    radius 4;
    see vehicle;
    identity on;
    detect 0.8;
  }
  goals ahead;
  horizon 2;
  pattern platoon_chain;
}

scenario {""")

DYNAMIC = """\
type bot object {
  var x: int[0, 3];
  var y: int[0, 3];
}

motif yard {
  map line(4);
  interaction rule swap for a: bot, b: bot if a.x != b.y then { exchange(a.x, b.y); }
  config rule bump for a: bot if a.x < 3 then { a.x := a.x + 1; }
  config rule spawn for a: bot if a.y < 3 then { a.y := a.y + 1; create n: bot in yard at 0 with { x = 0; }; }
  config rule cull for a: bot, b: bot if a.x = 3 then { a.x := 0; delete(b); }
  config rule grow for a: bot then { addnode(4); addedge(3, 4); }
  config rule shrink for a: bot then { removeedge(3, 4); removenode(4); }
  config rule link for a: bot then { addedge(0, 3, 2); }
  config rule away for a: bot then { migrate(a, yard, shed, 1); }
  config rule visit for a: bot if not member(a, shed) then { join(a, shed); }
  config rule quit for a: bot if member(a, shed) then { leave(a, shed); }
}

motif shed {
  map ring(3);
  config rule back for a: bot then { migrate(a, shed, yard, 2); }
}

component b1: bot in yard at 1;

component b2: bot { y = 2; } in yard at 2 in shed at 0;
"""


@pytest.mark.parametrize("text", [sc.text for sc in bundled()] + [
    THERMOSTAT_DELIBERATIVE, PLATOON_DELIBERATIVE],
    ids=[sc.name for sc in bundled()] + [
        "thermostat_deliberative", "platoon_deliberative"])
def test_state_hash_matches_reference_on_scenarios(hashed, text):
    for seed in range(3):
        system = _build(text)
        world = sim.World(system, seed=seed)
        for _ in range(150):
            if world.advance() is None:
                break
            for rt in world.runtimes.values():
                rt.model.digest()
    assert hashed


def test_state_hash_matches_reference_on_grounding(hashed):
    system = _build(THERMOSTAT_DELIBERATIVE)
    game = ground(system.cfg, "h1")
    assert len(set(hashed)) == len(game.states) // 2


def test_state_hash_matches_reference_under_dynamism(hashed):
    fired = set()
    for seed in range(5):
        trace = sim.run(_build(DYNAMIC), steps=300, seed=seed)
        fired |= {e["rule"] for e in trace.events if "error" not in e}
        trace.final.state_hash()
    assert fired == {"swap", "bump", "spawn", "cull", "grow", "shrink",
                     "link", "away", "visit", "quit", "back"}


def test_map_edits_reset_the_cached_fragment():
    m = line_map(3)
    edits = [lambda: m.add_node(7), lambda: m.add_edge(2, 7, 3),
             lambda: m.remove_edge(0, 1), lambda: m.remove_node(7)]
    for edit in edits:
        before = m.canonical_repr()
        edit()
        assert m.canonical_repr() != before
        assert m.canonical_repr() == repr(_ref_map(m))


# recorded with the canonical-key hash that earlier traces and exported
# controller tables carry: (initial, after 50 steps with seed 0)
PINNED = {
    "thermostat": ("33c797e1f5e06e0e", "04e2847d51ed8ad2"),
    "platoon": ("a8c90c719229c304", "e87b2cc3527eee4f"),
    "soccer": ("eae90a607018106c", "eae90a607018106c"),
    "shuttle": ("6d6b12ee7df4a42b", "4aeddcd8adeb0bcf"),
}


@pytest.mark.parametrize("sc", bundled(), ids=lambda sc: sc.name)
def test_pinned_state_hashes(sc):
    initial, after = PINNED[sc.name]
    assert sc.build().cfg.state_hash() == initial
    assert sim.run(sc.build(), steps=50, seed=0).final.state_hash() == after


# blake2b-64 of `Trace.text()` (bundled scenarios at default steps, DYNAMIC
# at 300 steps): traces stay byte for byte, including the error text that a
# failed effect writes into them
TRACE_PINS = {
    "thermostat": ("bdd40cf03838b168", "df4bc79f9870245f", "24999511c61c78e9"),
    "platoon": ("e486b7203043be77", "f31d1646baee6618", "67280957b925c134"),
    "soccer": ("77422b27a7e5362e", "63446402759786fb", "3b694f6907181d83"),
    "shuttle": ("937cdc240ec13eac", "81a6f9da3925d36b", "ed20e66a508a7d70"),
}
DYNAMIC_TRACE_PINS = ("097c5769b6afc617", "274bf220b2f0d608", "c98f04c73dbab62b",
                      "03c3fa44dfc081f1", "c859189aa199f4bb")
# the deliberative thermostat and platoon, default steps, seeds 0-4
DELIBERATIVE_TRACE_PINS = {
    "thermostat_deliberative": (
        "6ac7ecaf1a766e8c", "231d14f8fbda63b6", "4aa201fca8df6ec6",
        "32ba8c2e10e982b0", "bc9d33260bf2ce31"),
    "platoon_deliberative": (
        "eb623d391c0b7b5d", "07162abf964f3ad3", "9755e57a198172d0",
        "31b2c63376184a59", "c03d988b3d353f4b"),
}
DELIBERATIVE = {"thermostat_deliberative": THERMOSTAT_DELIBERATIVE,
                "platoon_deliberative": PLATOON_DELIBERATIVE}


def _trace_digest(trace):
    return blake2b(trace.text().encode(), digest_size=8).hexdigest()


@pytest.mark.parametrize("sc", bundled(), ids=lambda sc: sc.name)
def test_pinned_scenario_traces(sc):
    got = tuple(_trace_digest(sim.run(sc.build(), seed=s)) for s in range(3))
    assert got == TRACE_PINS[sc.name]


def test_pinned_dynamic_traces():
    traces = [sim.run(_build(DYNAMIC), steps=300, seed=s) for s in range(5)]
    assert tuple(map(_trace_digest, traces)) == DYNAMIC_TRACE_PINS
    errors = {e["error"] for t in traces for e in t.events if "error" in e}
    assert "no edge 3 -> 4" in errors


@pytest.mark.parametrize("name", sorted(DELIBERATIVE))
def test_pinned_deliberative_traces(name):
    got = tuple(_trace_digest(sim.run(_build(DELIBERATIVE[name]), seed=s))
                for s in range(5))
    assert got == DELIBERATIVE_TRACE_PINS[name]


@pytest.mark.parametrize("name", sorted(DELIBERATIVE))
def test_each_belief_is_planned_once(monkeypatch, name):
    # goal feasibility and the chosen command share one memoized plan per
    # (agent, planning state, goal names, horizon)
    planned = Counter()
    original = agents.plan_horizon

    def counted(cfg, ego, goals, horizon):
        planned[ego, cfg.state_hash(), tuple(g.name for g in goals),
                horizon] += 1
        return original(cfg, ego, goals, horizon)

    monkeypatch.setattr(agents, "plan_horizon", counted)
    for seed in range(3):
        planned.clear()
        world = sim.World(_build(DELIBERATIVE[name]), seed=seed)
        for _ in range(100):
            if world.advance() is None:
                break
        assert planned and max(planned.values()) == 1
