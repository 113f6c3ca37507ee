import ast
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from hashlib import blake2b

import pytest

import motifsim
from motifsim import agents, games, sim
from motifsim.errors import (
    DomainError, EffectError, UnknownComponent, UnknownEdge, UnknownNode,
)
from motifsim.expr import TRUE, Lit
from motifsim.games import ground, solve_safety
from motifsim.lang import parse
from motifsim.model import (
    AGENT, OBJECT, BoolDomain, ComponentInstance, ComponentType,
    Configuration, ControllerSpec, EnumDomain, IntRange, Map, Motif,
    RECORDS, RealRange, Record, UNREACHABLE, VarDecl, grid_map, line_map,
    node_sort_key, ring_map, trim,
)
from motifsim.rules import CONFIG, MapEdit, Move, Param, Rule, apply
from motifsim.scenarios import (
    BUNDLED, PLATOON, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)


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
    with pytest.raises(UnknownNode):
        m.add_edge(9, 0)
    with pytest.raises(UnknownEdge):
        m.remove_edge(2, 0)
    with pytest.raises(UnknownNode):
        m.remove_node(7)
    assert m.remove_node(1).distance(0, 2) == UNREACHABLE
    assert m.distance(0, 2) == 2 and m.canonical() == _ref_map(line_map(3))


def test_hop_distance_ignores_direction():
    m = line_map(3)
    assert m.hop_distance(2, 0) == 2
    assert m.distance(2, 0) == UNREACHABLE


def test_hop_queries_reject_a_node_the_map_lacks():
    # as `distance` does, rather than a bare `KeyError` or an unreachable node
    m = line_map(5)
    for query in (lambda: m.succ(9), lambda: m.hops_from(9), lambda: m.hops_from(9, 2),
                  lambda: m.hop_distance(9, 1), lambda: m.hop_distance(1, 9),
                  lambda: m.distance(1, 9)):
        with pytest.raises(UnknownNode, match="no node 9"):
            query()
    assert m.hops_from(4, 1) == {4: 0, 3: 1}


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
    rule.compile(cfg)
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
    c2.set_var("c1", "full", True)
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
    """The state hash rebuilt from raw fields, without any cache: the XOR
    of the blake2b-64 of each fragment of the canonical key, tagged with
    its kind."""
    comps, motifs, addresses, counters = _ref_key(cfg)
    h = 0
    for tag, fragments in (("c", comps), ("m", motifs), ("a", addresses),
                           ("n", counters)):
        for f in fragments:
            d = blake2b((tag + repr(f)).encode(), digest_size=8).digest()
            h ^= int.from_bytes(d, "big")
    return "%016x" % h


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


def _well_formed(cfg):
    """The configuration invariant, which the engine keeps by
    construction and does not check at run time: every member of a motif
    exists, and every address belongs to a member of its motif and lies
    on its map.  Members and map nodes are frozen values."""
    for m in cfg.motifs.values():
        assert isinstance(m.members, frozenset) and isinstance(m.map.nodes, frozenset)
        for cid in m.members:
            assert cid in cfg.components, f"motif {m.id!r} references missing {cid!r}"
    for (cid, mid), n in cfg.addresses.items():
        m = cfg.motifs.get(mid)
        assert m is not None, f"address entry for missing motif {mid!r}"
        assert cid in m.members, f"{cid!r} addressed in {mid!r} but not a member"
        assert n in m.map.nodes, f"address of {cid!r} in {mid!r} is off-map: {n!r}"
    return True


@pytest.fixture
def well_formed(monkeypatch):
    """Checks `_well_formed` on every configuration a `World` commits and
    on every belief `reflect` returns; counts both."""
    advance, reflect = sim.World.advance, agents.reflect
    seen = Counter()

    def committed(self):
        event = advance(self)
        seen["committed"] += _well_formed(self.cfg)
        return event

    def believed(*args, **kw):
        out = reflect(*args, **kw)
        seen["believed"] += _well_formed(out.cfg)
        return out

    monkeypatch.setattr(sim.World, "advance", committed)
    monkeypatch.setattr(agents, "reflect", believed)
    return seen


def test_a_motif_member_must_be_a_component():
    with pytest.raises(UnknownComponent,
                       match="motif 'm' references missing component 'ghost'"):
        Configuration([], [Motif("m", line_map(1), members=["ghost"])])


def _two_motifs():
    """`_world` with `c1` at node 1 of the depot, and a shed holding `b1`
    at node 0."""
    cfg = _placed(1)
    cfg.put_motif(Motif("shed", line_map(2), members={"b1"}))
    cfg.place("b1", "shed", 0)
    return cfg


#: One call of each `Configuration` edit method.
EDITS = {
    "fresh_id": lambda cfg: cfg.fresh_id("crate"),
    "set_var": lambda cfg: cfg.set_var("c1", "full", True),
    "add_component": lambda cfg: cfg.add_component(ComponentInstance("c2", cfg.types["crate"])),
    "remove_component": lambda cfg: cfg.remove_component("b1"),
    "join": lambda cfg: cfg.join("c1", "shed"),
    "leave": lambda cfg: cfg.leave("c1", "depot"),
    "place": lambda cfg: cfg.place("c1", "depot", 3),
    "set_map": lambda cfg: cfg.set_map("depot", cfg.motif("depot").map.add_node(9)),
    "put_motif": lambda cfg: cfg.put_motif(Motif("shed", line_map(3), members={"c1"})),
    "drop_motif": lambda cfg: cfg.drop_motif("shed"),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_an_edit_on_a_hashed_clone_rehashes_it(edit):
    # the clone's hash is read first, so a stale cached one would show
    base = _two_motifs()
    before = _ref_hash(base)
    cfg = base.clone()
    assert cfg.state_hash() == before
    edit(cfg)
    assert _well_formed(cfg)
    assert cfg.state_hash() == _ref_hash(cfg) != before
    assert base.state_hash() == _ref_hash(base) == before  # nothing shared changed


def test_a_component_is_added_once():
    cfg = _world().clone()
    with pytest.raises(ValueError, match="^component 'c1' already exists$"):
        cfg.add_component(ComponentInstance("c1", cfg.types["crate"]))


#: What only `model.py` may do to a configuration outside an edit method:
#: call a private edit helper, set a motif's members, or set or delete an
#: item of a configuration's dicts.
RAW_CALL = re.compile(r"_touch_\w*|_place|_unplace|_dirty")
RAW_DICTS = {"components", "motifs", "addresses", "counters"}


def _raw_edits(source):
    """The line numbers at which `source` edits a configuration raw."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if RAW_CALL.fullmatch(name):
                lines.append(node.lineno)
            continue
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        while targets:
            t = targets.pop()
            if isinstance(t, (ast.Tuple, ast.List)):
                targets.extend(t.elts)
            elif (isinstance(t, ast.Attribute) and t.attr == "members"
                  or isinstance(t, ast.Subscript) and isinstance(t.value, ast.Attribute)
                  and t.value.attr in RAW_DICTS):
                lines.append(t.lineno)
    return sorted(lines)


def test_the_raw_edit_finder_finds_each_kind():
    assert _raw_edits("""\
cfg._touch_motif(m).members |= {c}
cfg._place(c, m, 0)
_unplace(c, m)
cfg._dirty()
m.members = frozenset()
a, m.members = 1, x
cfg.components[c] = comp
del cfg.addresses[k]
cfg.counters[t] += 1
cfg.motifs[m]: object = None
cfg.place(c, m, 0)
x = cfg.components[c]
m.members | {c}
""") == [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_only_the_model_edits_a_configuration_raw():
    package = pathlib.Path(motifsim.__file__).parent
    found = {}
    for path in sorted(package.rglob("*.py")):
        if path != package / "model.py":
            lines = _raw_edits(path.read_text())
            if lines:
                found[str(path.relative_to(package))] = lines
    assert found == {}


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


@pytest.mark.parametrize("text", [*BUNDLED.values(), THERMOSTAT_DELIBERATIVE,
                                  PLATOON_DELIBERATIVE],
                         ids=[*BUNDLED, "thermostat_deliberative", "platoon_deliberative"])
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


def test_entry_digests_stay_bounded(hashed, monkeypatch):
    # the memo is cleared when full, and gives the reference hashes
    memo = {}
    monkeypatch.setattr("motifsim.model._ENTRY_DIGESTS", memo)
    monkeypatch.setattr("motifsim.model.ENTRY_DIGESTS", 4)
    world = sim.World(_build(PLATOON), seed=0)
    placed = set()
    while world.advance() is not None and len(placed) <= 8:
        placed |= set(world.cfg.addresses.items())
        assert 0 < len(memo) <= 4
    assert len(placed) > 8 and hashed


def test_map_edits_reset_the_cached_fragment():
    # each edit returns a new map, with its own cache, and keeps the original
    m = line_map(3)
    edits = [lambda m: m.add_node(7), lambda m: m.add_edge(2, 7, 3),
             lambda m: m.remove_edge(0, 1), lambda m: m.remove_node(7)]
    for edit in edits:
        before = m.canonical_repr()
        m.hops_from(0)
        edited = edit(m)
        assert edited is not m and isinstance(edited.nodes, frozenset)
        assert m.canonical_repr() == before == repr(_ref_map(m))
        assert edited.canonical_repr() != before
        assert edited.canonical() == _ref_map(edited)
        # nor does it share the original's adjacency
        undirected = Map(edited.nodes, [e for a, b, _ in edited.edge_list()
                                        for e in ((a, b), (b, a))])
        assert edited.hops_from(0) == {
            n: undirected.distance(0, n) for n in edited.nodes
            if undirected.distance(0, n) != UNREACHABLE}
        m = edited


# state hash version 2 (`model.HASH_VERSION`), which traces and exported
# controller tables record: (initial, after 50 steps with seed 0)
PINNED = {
    "thermostat": ("b5e31b7d860601ec", "358cd995dffa9d46"),
    "platoon": ("ed718e847dc1ee23", "afce6f50a7978b4b"),
    "soccer": ("f00cba0a3f25adb7", "f00cba0a3f25adb7"),
    "shuttle": ("8326015eef15297f", "9f0b4c1e9019dbf0"),
}


@pytest.mark.parametrize("name", BUNDLED)
def test_pinned_state_hashes(name):
    initial, after = PINNED[name]
    assert _build(BUNDLED[name]).cfg.state_hash() == initial
    assert sim.run(_build(BUNDLED[name]), steps=50, seed=0).final.state_hash() == after


HASHES = """\
from motifsim import load, sim
from motifsim.scenarios import BUNDLED
for name, text in BUNDLED.items():
    trace = sim.run(load(text)[0], steps=50, seed=0)
    print(name, load(text)[0].cfg.state_hash(), *(e["post"] for e in trace.events))
"""


def test_state_hashes_do_not_depend_on_the_string_hash_seed():
    # sets and dicts iterate in an order that `PYTHONHASHSEED` changes
    src = str(pathlib.Path(motifsim.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", HASHES], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1]
    assert [ln.split()[:2] for ln in outs[0].splitlines()] == [
        [name, initial] for name, (initial, _) in PINNED.items()]


# blake2b-64 of `Trace.text()` (bundled scenarios at default steps, DYNAMIC
# at 300 steps): traces stay byte for byte, including the error text that a
# failed effect writes into them
TRACE_PINS = {
    "thermostat": ("ad1a68f15d86ab52", "2d0f7e436a88edf4", "d3d38ccfe1ec5dbc"),
    "platoon": ("fa9e00ec4383095d", "224712ca1c748093", "1fae0ae5bb592f44"),
    "soccer": ("a9de62eecbd891ba", "b0a965094739b066", "9c4520bd07dfe218"),
    "shuttle": ("0b443370ef834a3f", "79323aeda0e8df33", "25562c8fc41e735b"),
}
DYNAMIC_TRACE_PINS = ("713c5fcbb88b0af0", "7f2300045c1a1391", "b643ebc0a2579631",
                      "ace121dfed559adc", "e88b8c0b5d82624c")
# the deliberative thermostat and platoon, default steps, seeds 0-4; and
# two sensors of theirs: the thermostat's without identities and with
# noise, so anonymous detections associate and temperatures are snapped
# `Fraction`s, and the platoon's with `detect 0.3`, whose nearest double
# lies below it
DELIBERATIVE_TRACE_PINS = {
    "thermostat_deliberative": (
        "57aa19c5c3e5caad", "31dde4b84200c6ba", "d9b7784ae8e73365",
        "78bb39e9b06953e1", "662f8b43959ddd86"),
    "platoon_deliberative": (
        "29629b6116376150", "5922fa6be63fd695", "b91139c464dc96b9",
        "210327c8aa7057a1", "dfb41a4cb162672a"),
    "thermostat_anonymous": (
        "3422a2608ed71bd3", "fddaa70bf8764ee7", "e12ba38cbe9090e5",
        "9e87ac704b98a6ae", "31a5d9164a1046fa"),
    "platoon_detect_03": (
        "5e30d81628d97a04", "111056a283877ab6", "769492cebb8bfaef",
        "d6cc8328b3caaa14", "5acb44bb671783fe"),
}
DELIBERATIVE = {"thermostat_deliberative": THERMOSTAT_DELIBERATIVE,
                "platoon_deliberative": PLATOON_DELIBERATIVE}
SENSOR_VARIANTS = {
    "thermostat_anonymous": THERMOSTAT_DELIBERATIVE.replace(
        "identity on;", "identity off;\n    noise space.temp 0.5;"),
    "platoon_detect_03": PLATOON_DELIBERATIVE.replace("detect 0.8;", "detect 0.3;"),
}

# The same runs' behaviour without the state hash: `_free_digest` drops
# every hash value from the trace (each event's `post` and `beliefs`, the
# header's `hash` version), so these pins hold across a change of the
# hash definition and show that such a change moves no event.
TRACE_FREE_PINS = {
    "thermostat": ("b56bd63628066bd4", "0c82436ceab4da8d", "8b1d3503fc9ee6aa"),
    "platoon": ("161d12b3e38a76dd", "3efaf3a16ebc1642", "fbaeb6f4465c51fd"),
    "soccer": ("3c70960c32df879a", "a76d1477d819bf54", "02b645a0c9525d67"),
    "shuttle": ("1a52b164777c85a6", "9abf9d22fc447fab", "a4e1e39914b6f8c3"),
}
DYNAMIC_FREE_PINS = ("1349dd4ed56c26fa", "ead2411ee5661099", "82622fdeeef5e042",
                     "74591e7311025d24", "9939b55e5fda5771")
DELIBERATIVE_FREE_PINS = {
    "thermostat_deliberative": (
        "248546f7a33f51ea", "02908af77308975d", "11dc5c3f41377a43",
        "a7fcb1bfcc861693", "f86d23521e6ecdd7"),
    "platoon_deliberative": (
        "15525f82337286f8", "83e67b828d8f3213", "e0f4bd8fe84e3c91",
        "7fcf2475feb03944", "3f6f1930e828c5d6"),
    "thermostat_anonymous": (
        "3f9a58be5779f22a", "3113ac85fbe5400b", "f921d8ca3d693c39",
        "aa578ec5e797bc05", "a0c4ab5b1b7939db"),
    "platoon_detect_03": (
        "6d15d5ad2883fcf5", "394fae6160c941c0", "fb80f69135d5e6ff",
        "e7aa7cf8de716944", "b61d41572e091892"),
}


def _trace_digest(trace):
    return blake2b(trace.text().encode(), digest_size=8).hexdigest()


def _free_digest(trace):
    encode = json.JSONEncoder(sort_keys=True).encode
    header, *events = map(json.loads, trace.text().splitlines())
    header.pop("hash", None)
    for e in events:
        del e["post"], e["beliefs"]
    text = "\n".join(map(encode, [header] + events)) + "\n"
    return blake2b(text.encode(), digest_size=8).hexdigest()


def _check_pins(traces, free_pins, pins):
    assert tuple(map(_free_digest, traces)) == free_pins
    assert tuple(map(_trace_digest, traces)) == pins


@pytest.mark.parametrize("name", BUNDLED)
def test_pinned_scenario_traces(name, well_formed, eager_reference):
    traces = [sim.run(_build(BUNDLED[name]), seed=s) for s in range(3)]
    _check_pins(traces, TRACE_FREE_PINS[name], TRACE_PINS[name])
    assert well_formed["committed"] and eager_reference["candidates"]


def test_pinned_dynamic_traces(well_formed, eager_reference):
    traces = [sim.run(_build(DYNAMIC), steps=300, seed=s) for s in range(5)]
    _check_pins(traces, DYNAMIC_FREE_PINS, DYNAMIC_TRACE_PINS)
    errors = {e["error"] for t in traces for e in t.events if "error" in e}
    assert "no edge 3 -> 4" in errors
    assert well_formed["committed"] and eager_reference["candidates"]


@pytest.mark.parametrize("name", sorted(DELIBERATIVE_TRACE_PINS))
def test_pinned_deliberative_traces(name, well_formed, eager_reference):
    text = {**DELIBERATIVE, **SENSOR_VARIANTS}[name]
    traces = [sim.run(_build(text), seed=s) for s in range(5)]
    _check_pins(traces, DELIBERATIVE_FREE_PINS[name], DELIBERATIVE_TRACE_PINS[name])
    assert well_formed["committed"] and well_formed["believed"] and eager_reference["candidates"]


# The deliberative thermostat over 6,000 steps at seed 0, pinned with an
# exact `Fraction` EWMA: the default 300 steps are too few for a change
# in the EWMA's arithmetic to show in a trace.
LONG_DELIBERATIVE_TRACE_PINS = ("ba00aa5f1284b72e",)
LONG_DELIBERATIVE_FREE_PINS = ("e4c1f4114878f01c",)


def test_pinned_long_deliberative_trace(eager_reference):
    traces = [sim.run(_build(THERMOSTAT_DELIBERATIVE), steps=6000, seed=0)]
    _check_pins(traces, LONG_DELIBERATIVE_FREE_PINS, LONG_DELIBERATIVE_TRACE_PINS)
    assert eager_reference["candidates"]


# Two deliberative agents in one `World`: the benchmark's platoon (the
# `agent_platoon` workload's v1: goal `ahead`, radius 6, detect 0.90,
# horizon 3) and v2 with a utility goal of its own, default steps, seeds
# 0-2, each run to quiescence.  Pinned without the state hash.
_BENCHMARK_SENSOR = """\
  sensor {
    motif road;
    radius 6;
    see vehicle;
    identity on;
    detect 0.90;
  }
"""
BENCHMARK_PLATOON = PLATOON.replace("scenario {", f"""\
goal ahead best_effort utility (@(v1, road)) priority 0;

agent v1 {{
{_BENCHMARK_SENSOR}  goals ahead;
  horizon 3;
}}

scenario {{""")
TWO_AGENTS = PLATOON.replace("scenario {", f"""\
goal ahead best_effort utility (@(v1, road)) priority 0;

goal chase best_effort utility (@(v2, road)) priority 0;

agent v1 {{
{_BENCHMARK_SENSOR}  goals ahead;
  horizon 3;
}}

agent v2 {{
{_BENCHMARK_SENSOR}  goals chase;
  horizon 3;
}}

scenario {{""")
TWO_AGENTS_FREE_PINS = ("9df412e2f8c64a13", "2c1238e153a9acc4", "e92939d56fafe2ad")


def test_pinned_two_agent_traces(well_formed, eager_reference):
    traces = [sim.run(_build(TWO_AGENTS), seed=s) for s in range(3)]
    assert tuple(map(_free_digest, traces)) == TWO_AGENTS_FREE_PINS
    assert {e["rule"] for t in traces for e in t.events} == {"advance", "form"}
    assert well_formed["committed"] and well_formed["believed"]
    assert eager_reference["owned"]


def test_two_agents_share_records_and_keep_their_plans_apart(monkeypatch):
    # every plan value is written under the key of the ego that planned it,
    # into the records the `World` and both runtimes share
    planning = []
    owners = set()

    class Plans(dict):
        def __setitem__(self, key, value):
            assert key[0] == planning[-1]
            owners.add(key[0])
            super().__setitem__(key, value)

    make, plan = games.record, agents.plan_horizon

    def record(records, h):
        rec = make(records, h)
        if type(rec.plans) is dict:
            rec.plans = Plans(rec.plans)
        return rec

    def planned(cfg, ego, goals, horizon, records=None):
        planning.append(ego)
        return plan(cfg, ego, goals, horizon, records)

    monkeypatch.setattr(games, "record", record)
    monkeypatch.setattr(agents, "plan_horizon", planned)
    for seed in range(3):
        world = sim.World(_build(TWO_AGENTS), seed=seed)
        assert list(world.runtimes) == ["v1", "v2"]
        assert all(rt.records is world._records for rt in world.runtimes.values())
        shared = 0
        while world.advance() is not None:
            shared += sum(len({key[0] for key in rec.plans}) == 2
                          for rec in world._records.values())
        assert shared  # a record holds plans of both egos
    assert owners == {"v1", "v2"}


# Scheduler branches the runs above do not take: the `round_robin` policy
# on the platoon (101 steps to quiescence); a scripted thermostat whose
# script names two rules that are not enabled (stutter steps) and runs
# out before `steps`; and the thermostat steered by the table controller
# synthesized for `band`, as the benchmark's `sim_revisit` runs it, at
# seeds 0-2.  That controller commands the heater's transitions exactly
# when its automaton would take them, so the steered traces equal the
# free ones of `TRACE_PINS`.
SCRIPTED = THERMOSTAT.replace("steps 10000;", "steps 10;").replace(
    "policy random;",
    "policy script(cool, warm, cool, cool, cool, off_to_on_0, house/warm, cool);")
SCHEDULER_TRACE_PINS = {
    "platoon_round_robin": ("94bcaf73da686732",),
    "thermostat_script": ("674673b991b41a2c",),
    "thermostat_steered": ("ad1a68f15d86ab52", "2d0f7e436a88edf4", "d3d38ccfe1ec5dbc"),
}
SCHEDULER_FREE_PINS = {
    "platoon_round_robin": ("bad7acd48f713255",),
    "thermostat_script": ("594243a06a81817a",),
    "thermostat_steered": ("b56bd63628066bd4", "0c82436ceab4da8d", "8b1d3503fc9ee6aa"),
}


def _steered_thermostat():
    system = _build(THERMOSTAT)
    ctrl = solve_safety(ground(system.cfg, "h1", bad=system.goals["band"].holds))
    return system, {"h1": (frozenset({"band"}), ctrl)}


def _scheduler_traces(name):
    if name == "platoon_round_robin":
        return [sim.run(_build(PLATOON), policy="round_robin")]
    if name == "thermostat_script":
        return [sim.run(_build(SCRIPTED))]
    system, controllers = _steered_thermostat()
    return [sim.run(system, seed=s, controllers=controllers) for s in range(3)]


@pytest.mark.parametrize("name", sorted(SCHEDULER_TRACE_PINS))
def test_pinned_scheduler_traces(name, well_formed, eager_reference):
    traces = _scheduler_traces(name)
    _check_pins(traces, SCHEDULER_FREE_PINS[name], SCHEDULER_TRACE_PINS[name])
    assert well_formed["committed"] and eager_reference["candidates"]


def test_a_step_hashes_its_state_once(monkeypatch):
    # the step that enters a state hashes it once, for its record and its
    # event's `post`; besides, a run hashes its initial state, and a table
    # controller each state it is asked about (the thermostat has 18)
    system, controllers = _steered_thermostat()
    calls = Counter()
    original = Configuration.state_hash

    def counted(self):
        calls["state_hash"] += 1
        return original(self)

    monkeypatch.setattr(Configuration, "state_hash", counted)
    for ctrls in (None, controllers):
        calls.clear()
        trace = sim.run(system, steps=10_000, seed=0, controllers=ctrls)
        assert trace.steps == 10_000
        assert calls["state_hash"] <= trace.steps + 20


@pytest.mark.parametrize("excess", [0, 1, 5000])
def test_trim_keeps_the_newest_records_in_order(excess):
    records = {h: Record() for h in range(RECORDS + excess)}
    newest = list(records)[excess:]
    trim(records)
    assert list(records) == newest


def test_beliefs_without_the_platoon_chain_pattern_are_well_formed(well_formed):
    text = PLATOON_DELIBERATIVE.replace("  pattern platoon_chain;\n", "")
    assert text != PLATOON_DELIBERATIVE
    for seed in range(5):
        sim.run(_build(text), seed=seed)
    assert well_formed["committed"] and well_formed["believed"]


@pytest.mark.parametrize("name", sorted(DELIBERATIVE))
def test_each_belief_is_planned_once(monkeypatch, name):
    # goal feasibility and the chosen command share one plan per (agent,
    # planning state, goal names, horizon) in a run: a repeated plan, in
    # the same step or a later one, reads its value from the belief's
    # record and lists no state
    planned, repeats, listed = {}, [], [0]
    listing, original = games.step_candidates, agents.plan_horizon

    def counting(cfg):
        listed[0] += 1
        return listing(cfg)

    def counted(cfg, ego, goals, horizon, *rest):
        key = (ego, cfg.state_hash(), tuple(g.name for g in goals), horizon)
        before = listed[0]
        try:
            return original(cfg, ego, goals, horizon, *rest)
        finally:
            if key in planned:
                repeats.append((planned[key] < step, listed[0] - before))
            planned.setdefault(key, step)

    monkeypatch.setattr(games, "step_candidates", counting)
    monkeypatch.setattr(agents, "plan_horizon", counted)
    for seed in range(3):
        planned.clear()
        world = sim.World(_build(DELIBERATIVE[name]), seed=seed)
        for step in range(100):
            if world.advance() is None:
                break
    assert any(later for later, _ in repeats)
    assert not any(lists for _, lists in repeats)
