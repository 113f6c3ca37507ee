import itertools
from fractions import Fraction

import pytest

from motifsim import load, run
from motifsim.errors import EffectError, EngineError, UnknownMotif
from motifsim.expr import TRUE, Ctx, Lit, UNDEF, UnboundParam
from motifsim.lang import parse, print_model
from motifsim import rules
from motifsim.rules import (
    CONFIG, INTERACTION, Candidate, Create, Param, Rule, apply,
    enabled_bindings, step_candidates,
)

CONVOY = """\
type car agent {
  var speed: int[0, 5];
}

motif lane {
  map line(6);
  config rule advance for a: car if empty(succ(@(a))) then { @(a) := succ(@(a)); }
  interaction rule swap for a: car, b: car if distance(@(a), @(b)) = 1 then { exchange(a.speed, b.speed); }
  interaction rule match for a: car, b: car, c?: car if a.speed < b.speed then { a.speed := b.speed; }
}

component c1: car { speed = 2; } in lane at 0;

component c2: car { speed = 4; } in lane at 1;

component c3: car { speed = 1; } in lane at 3;
"""


def _system(text=CONVOY):
    model, diags = parse(text)
    assert model is not None, diags
    return model.build()


def _rule(cfg, motif, name):
    m = cfg.motif(motif)
    for r in m.rules:
        if r.name == name:
            return r
    raise AssertionError(name)


# -- expression semantics ----------------------------------------------------


def test_undef_comparison_is_false():
    system = _system()
    model, _ = parse(CONVOY + "\ncomponent c4: car in lane;\n")
    cfg = model.build().cfg
    holds = _goal_pred("@(c4, lane) = 0")
    assert holds(Ctx(cfg)) is False
    holds = _goal_pred("@(c4, lane) != 0")
    assert holds(Ctx(cfg)) is False
    del system


def _goal_pred(text):
    model, diags = parse(
        CONVOY + "\ncomponent c4: car in lane;\n"
        f"goal g critical avoid ({text});\n")
    assert model is not None, diags
    goal = model.build().goals["g"]
    return lambda ctx: goal.holds(ctx.cfg)


@pytest.mark.parametrize("text", [
    "c1.speed * 3 = 6",
    "-c1.speed = -2",
    "-(c1.speed + 1) * 2 = -6",
    "c2.speed - -c1.speed = 6",
    "--c1.speed = 2",
    "-c1.speed * -c2.speed = 8",
    "c2.speed * (c1.speed - 1) = 4",
])
def test_multiplication_and_negation(text):
    # each text is printed as written and holds at c1.speed 2, c2.speed 4
    model, diags = parse(CONVOY + f"\ngoal g critical avoid ({text});\n")
    assert model is not None, diags
    assert f"goal g critical avoid ({text}) priority 0;" in print_model(model)
    assert _goal_pred(text)(Ctx(_system().cfg)) is True


def test_placed_and_member_are_total():
    cfg = _system().cfg
    assert _goal_pred("placed(c1, lane)")(Ctx(cfg)) is True
    assert _goal_pred("member(c1, lane)")(Ctx(cfg)) is True
    assert _goal_pred("empty(2, lane)")(Ctx(cfg)) is True
    assert _goal_pred("empty(0, lane)")(Ctx(cfg)) is False


def test_unbound_param_makes_atom_false():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "match")
    guard = rule.guard_fn()
    ctx = Ctx(cfg, cfg.motif("lane"), {"a": "c1", "b": "c2"})
    assert guard(ctx) is True  # c is optional, guard ignores it
    # a direct reference to the unbound optional is false, not an error
    from motifsim.expr import VarRef, Binary, Lit, Scope
    e = Binary("=", VarRef("c", "speed"), Lit(1)).compile(Scope({"c": "car"}, cfg))
    assert e(Ctx(cfg, binding={})) is False


def test_unparse_round_trip_effects():
    cfg = _system().cfg
    for name in ("advance", "swap", "match"):
        rule = _rule(cfg, "lane", name)
        for e in rule.effects:
            assert e.unparse()
        assert rule.guard.unparse()


# -- binding enumeration -----------------------------------------------------


def test_enabled_bindings_vs_brute_force():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "swap")
    got = enabled_bindings(cfg, "lane", rule)
    guard = rule.guard_fn()
    members = sorted(cfg.motif("lane").members)
    want = []
    for a, b in itertools.product(members, members):
        if a == b:
            continue
        ctx = Ctx(cfg, cfg.motif("lane"), {"a": a, "b": b})
        if guard(ctx):
            want.append({"a": a, "b": b})
    assert got == want
    assert got  # c1 and c2 are adjacent


def test_bindings_are_pairwise_distinct():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "match")
    for binding in enabled_bindings(cfg, "lane", rule):
        vals = list(binding.values())
        assert len(vals) == len(set(vals))


def test_optional_greedy_extension():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "match")
    got = enabled_bindings(cfg, "lane", rule)
    # c1 < c2: guard holds; the optional c grabs the first distinct car
    assert {"a": "c1", "b": "c2", "c": "c3"} in got
    # c3 < c2 leaves c1 free for the optional
    assert {"a": "c3", "b": "c2", "c": "c1"} in got


def test_enumeration_is_deterministic():
    a = [c.label for c in step_candidates(_system().cfg)]
    b = [c.label for c in step_candidates(_system().cfg)]
    assert a == b
    assert a == sorted(set(a), key=a.index)  # no duplicates


# -- atomic application ------------------------------------------------------


def test_exchange_is_an_involution():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "swap")
    binding = {"a": "c1", "b": "c2"}
    once = apply(cfg, "lane", rule, binding)
    assert once.components["c1"].state["speed"] == 4
    twice = apply(once, "lane", rule, binding)
    assert twice.state_hash() == cfg.state_hash()


def test_apply_is_atomic_on_failure():
    text = CONVOY.replace(
        "interaction rule swap",
        "interaction rule burst for x: car then "
        "{ x.speed := 0; x.speed := 99; }\n  interaction rule swap")
    cfg = _system(text).cfg
    rule = _rule(cfg, "lane", "burst")
    before = cfg.state_hash()
    with pytest.raises(EffectError):
        apply(cfg, "lane", rule, {"x": "c1"})
    assert cfg.state_hash() == before
    assert cfg.components["c1"].state["speed"] == 2


def test_fire_is_computed_once(monkeypatch):
    cfg = _system().cfg
    cand = next(c for c in step_candidates(cfg) if "advance[a=c2]" in c.label)
    calls = []

    def counting(*args):
        calls.append(args)
        return apply(*args)

    monkeypatch.setattr(rules, "apply", counting)
    first = cand.fire()
    assert cand.fire() is first
    assert len(calls) == 1


def test_failing_fire_raises_every_time():
    cfg = _system().cfg
    cand = Candidate(cfg, "lane", _rule(cfg, "lane", "swap"), {"a": "c1"},
                     frozenset(["c1"]))
    for _ in range(2):
        with pytest.raises(EffectError, match="unbound parameter 'b'"):
            cand.fire()


def test_move_respects_occupancy_guard():
    cfg = _system().cfg
    labels = [c.label for c in step_candidates(cfg)]
    # c1 sits behind c2: its advance is not enabled, c2's and c3's are
    assert not any("advance[a=c1]" in lab for lab in labels)
    assert any("advance[a=c2]" in lab for lab in labels)
    assert any("advance[a=c3]" in lab for lab in labels)


def test_candidate_apply_and_event():
    cfg = _system().cfg
    cand = next(c for c in step_candidates(cfg) if "advance[a=c2]" in c.label)
    nxt = cand.fire()
    assert nxt.address("c2", "lane") == 2
    assert cfg.address("c2", "lane") == 1


# one component whose two vars an interaction rule and its dynamics swap
SWAP = """\
type pair object {
  var a: int[0, 3];
  var b: int[0, 3];
  dynamics {
    rule turn then { exchange(self.a, self.b); }
  }
}

motif box {
  map line(1);
  interaction rule flip for p: pair then { exchange(p.a, p.b); }
}

component p1: pair { a = 1; b = 2; } in box at 0;
"""


@pytest.mark.parametrize("rule", ["flip", "turn"], ids=["interaction", "dynamics"])
def test_an_exchange_within_one_component_swaps_its_vars(rule):
    cfg = first = _system(SWAP).cfg
    for state in ({"a": 2, "b": 1}, {"a": 1, "b": 2}):
        cfg = next(c for c in step_candidates(cfg) if c.rule.name == rule).fire()
        assert cfg.components["p1"].state == state
    assert cfg.state_hash() == first.state_hash()


# -- component dynamism ------------------------------------------------------


# CONVOY plus a pit, with configuration rules carrying the create, delete
# and migrate effects
DYNAMISM = CONVOY.replace("  map line(6);\n", """\
  map line(6);
  config rule spawn for a: car then { create n: car at 5 with { speed = 3; }; }
  config rule drop for a: car then { delete(a); }
  config rule park for a: car then { migrate(a, lane, pit, 0); }
""") + "\nmotif pit {\n  map line(2);\n}\n"


def _fire(cfg, name, cid):
    """Apply the DYNAMISM lane rule `name` with its parameter bound to `cid`."""
    return apply(cfg, "lane", _rule(cfg, "lane", name), {"a": cid})


def test_create_component():
    cfg = _system(DYNAMISM).cfg
    nxt = _fire(cfg, "spawn", "c1")
    assert nxt.components["car#0"].state["speed"] == 3
    assert nxt.address("car#0", "lane") == 5
    assert "car#0" in nxt.motif("lane").members
    assert "car#0" not in cfg.components  # value semantics
    # a create of an undeclared type, or into an undeclared motif, is
    # rejected as its rule compiles: in model text, a build diagnostic
    # (`test_lang.py`, create-type and create-motif), not an effect error
    ghost = Rule("ghost", CONFIG, [Param("a", "car")], TRUE, [Create("n", "ghost")])
    with pytest.raises(ValueError, match="^unknown type 'ghost'$"):
        ghost.compile(cfg)
    nowhere = Rule("nowhere", CONFIG, [Param("a", "car")], TRUE,
                   [Create("n", "car", motif="ghost", node=Lit(0))])
    with pytest.raises(ValueError, match="^unknown motif 'ghost'$"):
        nowhere.compile(cfg)


def test_a_rule_run_in_a_motif_the_configuration_lacks_raises():
    # what the `nowhere` rule's effect reached before its name was
    # checked as it compiles: the configuration's motif query
    cfg = _system(DYNAMISM).cfg
    spawn = _rule(cfg, "lane", "spawn")
    with pytest.raises(UnknownMotif, match="^no motif 'ghost'$"):
        enabled_bindings(cfg, "ghost", spawn)
    with pytest.raises(UnknownMotif, match="^no motif 'ghost'$"):
        apply(cfg, "ghost", spawn, {"a": "c1"})


def test_delete_component():
    cfg = _system(DYNAMISM).cfg
    nxt = _fire(cfg, "drop", "c1")
    assert "c1" not in nxt.components
    assert "c1" not in nxt.motif("lane").members
    assert nxt.address("c1", "lane") is None
    assert cfg.address("c1", "lane") == 0  # value semantics
    with pytest.raises(EffectError, match="delete of nonexistent component 'c1'"):
        _fire(nxt, "drop", "c1")


def test_fresh_ids_survive_deletion():
    cfg = _system(DYNAMISM).cfg
    cfg2 = _fire(cfg, "spawn", "c1")
    cfg3 = _fire(cfg2, "drop", "car#0")
    cfg4 = _fire(cfg3, "spawn", "c1")
    assert "car#1" in cfg4.components  # ids are never reused
    assert "car#0" not in cfg4.components


def test_create_binds_its_name_for_the_later_effects():
    # a declared component `n` does not capture the created one's name
    text = DYNAMISM.replace(
        "create n: car at 5 with { speed = 3; };",
        "create n: car at 5; n.speed := n.speed + 4; @(n) := 4;",
    ) + "\ncomponent n: car;\n"
    cfg = _system(text).cfg
    nxt = _fire(cfg, "spawn", "c1")
    assert nxt.components["car#0"].state["speed"] == 4
    assert nxt.address("car#0", "lane") == 4
    assert nxt.components["n"] is cfg.components["n"]


def test_migrate_between_motifs():
    cfg = _system(DYNAMISM).cfg
    nxt = _fire(cfg, "park", "c1")
    assert "c1" not in nxt.motif("lane").members
    assert "c1" in nxt.motif("pit").members
    assert nxt.address("c1", "lane") is None
    assert nxt.address("c1", "pit") == 0
    assert nxt.components["c1"].state["speed"] == 2  # state untouched
    assert cfg.address("c1", "lane") == 0  # value semantics
    with pytest.raises(EffectError, match="'c1' is not a member of 'lane'"):
        _fire(nxt, "park", "c1")


def test_rule_kind_constraints():
    from motifsim.rules import INTERACTION, Move
    from motifsim.expr import Sym
    with pytest.raises(ValueError):
        Rule("bad", INTERACTION, [Param("a", "car")], TRUE,
             [Move("a", Sym("0"))])
    with pytest.raises(ValueError):
        Rule("bad", INTERACTION, [Param("a", "car", required=False)], TRUE, [])


def test_dynamics_candidates_are_uncontrolled():
    from motifsim.scenarios import SHUTTLE
    model, _ = parse(SHUTTLE)
    cfg = model.build().cfg
    cands = step_candidates(cfg)
    assert len(cands) == 1
    assert cands[0].rule.kind == "dynamics"
    assert not cands[0].is_controllable("bus")


def test_unbound_required_effect_raises():
    cfg = _system().cfg
    rule = _rule(cfg, "lane", "swap")
    with pytest.raises(EffectError):
        apply(cfg, "lane", rule, {"a": "c1"})


# -- run-time errors and partiality, from model text ---------------------------
#
# Each case is a model whose lane has the one config rule `r`.  Its
# ill-typed rules are build errors (`TYPE_ERRORS` in `test_lang.py`); what
# is left fails on a value, not on a type.

RUNTIME = """\
type car agent {{
  var speed: int[0, 3];
  var on: bool;
  var mood: enum {{calm, eager}};
  var temp: real[0.0, 1.0] step 0.5;
}}

motif lane {{
  map line(4);
  config rule r for {rule}
}}

motif fast {{
  map line(4);
}}

component c1: car in lane at 0;

component c2: car in lane at 1;

component c3: car in lane in fast;
"""


def _first_step(rule):
    """The first step of a run of the `RUNTIME` model with rule `rule`:
    the engine error it raises, as `(type name, message)`, or its events."""
    system, diags = load(RUNTIME.format(rule=rule))
    assert system is not None, diags
    try:
        return run(system, steps=1).events
    except EngineError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("rule, error", [
    ("a: car if distance(@(a), 0) = 0;", "distance over an undefined address"),
    ("a: car if succ(@(a)) = 1;", "succ of an undefined address"),
    ("a: car if succ(9) = 1;", "succ of non-node 9"),
], ids=["distance", "succ-undefined", "succ-non-node"])
def test_a_guard_that_fails_to_evaluate_raises(rule, error):
    assert _first_step(rule) == ("EvalError", error)


@pytest.mark.parametrize("guard", ["distance(9, @(a)) = 0", "distance(@(a), 9) = 0"])
def test_a_distance_to_a_non_node_raises(guard):
    assert _first_step(f"a: car if {guard};") == ("UnknownNode", "no node 9")


@pytest.mark.parametrize("effects, error", [
    ("a.temp := 2.0;", "2 outside real[0, 1] step 1/2"),
    ("@(a) := @(c3);", "move target is an undefined address"),
    ("create n: car at @(c3);", "create at an undefined address"),
    ("migrate(a, lane, fast, @(c3));", "migrate to an undefined address"),
    ("addnode(@(c3));", "addnode on an undefined address"),
    ("removenode(9);", "no node 9 in motif 'lane'"),
    ("leave(a, fast);", "'c1' is not a member of 'fast'"),
    ("delete(a); a.speed := 1;", "no component 'c1'"),
    ("delete(c2); join(c2, fast);", "motif 'fast' references missing component 'c2'"),
    ("delete(c2); a.speed := c2.speed;", "effect reads deleted component 'c2'"),
    ("addedge(2, 0, 0 - 1);", "edge weight must be nonnegative"),
], ids=["real-range", "move", "create", "migrate", "map-edit", "removenode", "leave",
        "deleted-self", "join-deleted", "deleted-constant", "negative-weight"])
def test_an_effect_that_fails_is_an_error_event(effects, error):
    events = _first_step(f"a: car if @(a) = 0 then {{ {effects} }}")
    assert [(e["binding"], e["error"]) for e in events] == [({"a": "c1"}, error)]


@pytest.mark.parametrize("effects, error", [
    ("@(a) := 1;", None),
], ids=["int"])
def test_a_node_is_an_int_or_a_str(effects, error):
    # 1.0 and true equal node 1, but would hash unlike it: a real or a
    # bool node is a build error (`TYPE_ERRORS` in `test_lang.py`)
    events = _first_step(f"a: car if a.speed = 0 and @(a) = 0 then {{ {effects} }}")
    assert [(e["binding"], e.get("error")) for e in events] == [({"a": "c1"}, error)]


@pytest.mark.parametrize("effects, error", [
    ("c2.speed := 3; @(c2) := 2;", None),
    ("b.speed := 3;", "effect on unbound parameter 'b'"),
    ("@(b) := 2;", "effect on unbound parameter 'b'"),
], ids=["constant", "unbound-assign", "unbound-move"])
def test_an_effect_finds_its_owner_by_id_or_in_the_binding(effects, error):
    # `b` binds no car: each has speed 0
    rule = f"a: car, b?: car if @(a) = 0 and not (b.speed = 0) then {{ {effects} }}"
    system, diags = load(RUNTIME.format(rule=rule))
    assert system is not None, diags
    trace = run(system, steps=1)
    assert [(e["binding"], e.get("error")) for e in trace.events] == [({"a": "c1"}, error)]
    if error is None:
        assert trace.final.components["c2"].state["speed"] == 3
        assert trace.final.address("c2", "lane") == 2


def test_an_effect_on_a_parameter_bound_to_a_deleted_component_fails():
    events = _first_step("a: car, b: car if @(a) = 0 and @(b) = 1 then"
                         " { delete(b); a.speed := b.speed; }")
    assert [e["error"] for e in events] == [
        "parameter 'b' bound to deleted component 'c2'"]


def test_lookups_of_an_unbound_optional_are_false():
    # `b` binds no car: c2 is placed, c3 a member of `fast`, so `placed`,
    # `member`, `empty`, `not` and a bare var read each see it unbound
    events = _first_step(
        "a: car, b?: car if not (placed(b) or member(b, fast) or empty(@(b))"
        " or b.on) and not b.on and not empty(9) and @(a) = 0 then"
        " { a.speed := 1; }")
    assert [e["binding"] for e in events] == [{"a": "c1"}]
    assert _first_step("a: car, b?: car if b.on then { a.speed := 1; }") == []
