import hashlib
import random
import re
import string
from fractions import Fraction

import pytest

from motifsim import load, replay, run
from motifsim.errors import EngineError
from motifsim.expr import (
    AddrRef, Binary, Distance, Lit, Sym, Unary, VarRef, fmt_num,
)
from motifsim.lang import parse, print_model
from motifsim.lang.parser import Parser
from motifsim.lang.syntax import ParseError
from motifsim.scenarios import (
    PLATOON, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)
from test_rules import RUNTIME

CORPUS = [THERMOSTAT, THERMOSTAT_DELIBERATIVE, PLATOON, SOCCER, SHUTTLE]


def _ok(text):
    model, diags = parse(text)
    assert model is not None, diags
    model.build()
    return model


def _errs(text):
    model, diags = parse(text)
    assert model is None
    msgs = [d for d in diags if d.severity == "error"]
    assert msgs
    return msgs


# -- canonical printing ------------------------------------------------------


def test_print_is_a_fixpoint_on_the_corpus():
    for text in CORPUS:
        model = _ok(text)
        printed = print_model(model)
        again = _ok(printed)
        assert print_model(again) == printed


def test_bundled_texts_are_already_canonical():
    for text in CORPUS:
        assert print_model(_ok(text)) == text


_BINARY_OPS = ("or", "and", "=", "!=", "<", "<=", ">", ">=", "+", "-", "*")
_CMP_OPS = _BINARY_OPS[2:8]


def _random_operand(rng):
    k = rng.randrange(5)
    if k == 0:
        return Lit(rng.choice([0, 3, Fraction(5, 2), True, False]))
    if k == 1:
        return Sym(rng.choice(["a", "on", "off"]))
    if k == 2:
        return VarRef(rng.choice(["a", "self"]), "x")
    if k == 3:
        return AddrRef("a", rng.choice([None, "m"]))
    return Distance(_random_expr(rng, rng.randrange(2)),
                    _random_expr(rng, rng.randrange(2)), rng.choice([None, "m"]))


def _random_expr(rng, depth):
    """A random expression tree over all eleven binary operators, `not`,
    unary minus and the operand kinds: an operand at depth 0, else an
    operator whose operands are at most `depth - 1` operators deep."""
    if depth == 0:
        return _random_operand(rng)

    def sub():
        return _random_expr(rng, 0 if rng.random() < 0.25 else depth - 1)
    k = rng.randrange(len(_BINARY_OPS) + 2)
    if k < len(_BINARY_OPS):
        return Binary(_BINARY_OPS[k], sub(), sub())
    return Unary("not" if k == len(_BINARY_OPS) else "-", sub())


def _random_trees(n=10_000, depth=4, seed=1):
    rng = random.Random(seed)
    return [_random_expr(rng, depth) for _ in range(n)]


def _reprinted(e):
    """An expression's printed text, after one parse and print."""
    p = Parser(e.unparse())
    back = p.expr()
    p.expect("eof")
    return back.unparse()


def test_printing_any_expression_is_a_fixpoint():
    for e in _random_trees():
        assert _reprinted(e) == e.unparse()


def _mended_shape(e):
    """Whether `e` has a comparison as the left operand of a comparison,
    or a `not` as an operand of a comparison, `+ - *` or unary minus: the
    shapes an earlier printer gave text that did not parse back to it."""
    if isinstance(e, Binary):
        if e.op in _CMP_OPS and isinstance(e.l, Binary) and e.l.op in _CMP_OPS:
            return True
        if e.op not in ("and", "or") and any(
                isinstance(k, Unary) and k.op == "not" for k in (e.l, e.r)):
            return True
        return _mended_shape(e.l) or _mended_shape(e.r)
    if isinstance(e, Unary):
        if e.op == "-" and isinstance(e.e, Unary) and e.e.op == "not":
            return True
        return _mended_shape(e.e)
    if isinstance(e, Distance):
        return _mended_shape(e.a) or _mended_shape(e.b)
    return False


#: SHA-256 over the printed text of every tree of `_random_trees()` without
#: a mended shape, computed before the printer and parser shared one
#: operator table: text that printed correctly then prints the same now
PRINTED_TEXTS = (
    "43fed5b7964241c0a034fe5210bf0ad352d02e1e12490480843135c82218016a")


def test_correctly_printed_expressions_keep_their_text():
    digest = hashlib.sha256()
    kept = [e for e in _random_trees() if not _mended_shape(e)]
    for e in kept:
        digest.update(e.unparse().encode() + b"\0")
    assert len(kept) == 3_955
    assert digest.hexdigest() == PRINTED_TEXTS


# a check comparing two comparisons, which once printed without the
# parentheses around its left operand
THERMOSTAT_IFF = THERMOSTAT.replace(
    "  check inband", "  check iff always ((room.temp >= 22.0) = (h1.mode = on));\n"
    "  check inband")


def test_a_comparison_of_comparisons_round_trips():
    assert print_model(_ok(THERMOSTAT_IFF)) == THERMOSTAT_IFF
    system, diags = load(THERMOSTAT_IFF)
    assert diags == [] and [c.name for c in system.scenario.checks] == ["iff", "inband"]


def test_numeric_literal_formatting():
    model = _ok("""
type t object {
  var x: real[0.0, 2.0] step 0.25;
}
""")
    printed = print_model(model)
    assert "0.25" in printed and "2.0" in printed
    # as few decimals as the value needs
    for v, text in [(Fraction(1, 10), "0.1"), (Fraction(9, 10), "0.9"),
                    (Fraction(1, 20), "0.05"), (Fraction(1, 4), "0.25"),
                    (Fraction(-1, 10), "-0.1"), (Fraction(3, 2), "1.5"),
                    (Fraction(1, 3), "1/3"), (2, "2")]:
        assert fmt_num(v) == text
    text = "type t object {\n  var x: real[-0.1, 0.9] step 0.05;\n}\n"
    assert print_model(_ok(text)) == text


# bool vars, literals and inits, and an `or` nested right of an `and`
BOOLS = """\
type lamp object {
  var on: bool;
  var lit: bool;
  dynamics {
    rule light if not self.on then { self.on := true; }
    rule dim if self.on = true and (self.lit or not self.lit) then { self.on := false; self.lit := not self.lit; }
  }
}

motif room {
  map line(2);
}

component l1: lamp { on = true; } in room at 0;

component l2: lamp { lit = false; } in room at 1;

scenario {
  steps 15;
  seed 0;
  policy random;
  check dimmed always (not l1.on or not l1.lit or not l2.on);
}
"""


def test_a_model_with_bool_vars_prints_and_runs():
    assert print_model(_ok(BOOLS)) == BOOLS
    system = load(BOOLS)[0]
    assert system.cfg.components["l1"].state == {"on": True, "lit": False}
    trace = run(system)
    assert trace.steps == 15
    assert {e["rule"] for e in trace.events} == {"light", "dim"}
    assert not all(c.ok for c in trace.checks)  # both lamps lit and on
    assert replay(system, trace.text()).state_hash() == trace.final.state_hash()


def test_an_agents_noise_and_recovery_round_trip():
    text = THERMOSTAT_DELIBERATIVE.replace(
        "    detect 1.0;\n", "    noise space.temp 0.5;\n    detect 1.0;\n").replace(
        "  horizon 3;\n", "  horizon 3;\n  recovery band;\n")
    assert text.count("noise") == text.count("recovery") == 1
    assert print_model(_ok(text)) == text


def test_optional_param_round_trip():
    text = """\
type car agent {
  var speed: int[0, 3];
}

motif lane {
  map line(4);
  interaction rule match for a: car, b?: car if a.speed < 3 then { a.speed := a.speed + 1; }
}

component c1: car in lane at 0;
"""
    model = _ok(text)
    assert print_model(model) == text


def test_exchange_rule_round_trip():
    text = """\
type car agent {
  var speed: int[0, 3];
}

motif lane {
  map line(4);
  interaction rule swap for a: car, b: car if distance(@(a), @(b)) = 1 then { exchange(a.speed, b.speed); }
}

component c1: car in lane at 0;

component c2: car in lane at 1;
"""
    model = _ok(text)
    assert print_model(model) == text


def test_custom_map_round_trip():
    text = """\
type t object {
}

motif net {
  map { nodes a, b, c; edges a -> b: 2, b -> c; };
}

component x: t in net at a;
"""
    model = _ok(text)
    printed = print_model(model)
    assert print_model(_ok(printed)) == printed
    system = model.build()
    assert system.cfg.motif("net").map.distance("a", "c") == 3


def test_empty_model_is_valid():
    model = _ok("")
    assert print_model(model).strip() == ""
    system = model.build()
    assert system.cfg.components == {}


# -- diagnostics -------------------------------------------------------------


def test_undeclared_name_is_located():
    msgs = _errs("""\
type t object {
  var x: bool;
}

goal g critical avoid (t1.x);
""")
    d = msgs[0]
    assert "t1" in d.message
    assert d.line == 5
    assert d.col >= 1


def test_unknown_attribute():
    msgs = _errs("""\
type t object {
  var x: bool;
}

component c: t;

goal g critical avoid (c.y);
""")
    assert any("y" in d.message for d in msgs)


def test_off_map_placement():
    msgs = _errs("""\
type t object {
}

motif m {
  map line(2);
}

component c: t in m at 9;
""")
    assert any("9" in d.message for d in msgs)


def test_init_value_outside_domain():
    msgs = _errs("""\
type t object {
  var x: int[0, 3];
}

component c: t { x = 7; };
""")
    assert msgs


def test_dynamics_may_only_write_self():
    msgs = _errs("""\
type t object {
  var x: bool;
  dynamics {
    rule poke for o: t then { o.x := true; }
  }
}
""")
    assert any("self" in d.message or "o" in d.message for d in msgs)


def test_interaction_rule_cannot_reconfigure():
    msgs = _errs("""\
type t agent {
  var x: bool;
}

motif m {
  map line(2);
  interaction rule bad for a: t then { @(a) := 1; }
}
""")
    assert msgs


def test_critical_utility_goal_rejected():
    msgs = _errs("""\
type t object {
  var x: int[0, 3];
}

component c: t;

goal g critical utility (c.x);
""")
    assert any("critical" in d.message for d in msgs)


def test_goal_horizon_clause_is_rejected():
    msgs = _errs("""\
type t object {
  var x: int[0, 3];
}

component c: t;

goal g critical avoid (c.x = 3) horizon 1 priority 0;
""")
    assert msgs[0].line == 7


def test_agent_thresholds_print_in_a_fixed_order():
    text = THERMOSTAT_DELIBERATIVE.replace(
        "  horizon 3;\n", "  horizon 3;\n  thresholds { k_stale 4; alpha 0.5;"
        " horizon_cap 5; theta_lo 0.5; theta_hi 2; }\n")
    printed = print_model(_ok(text))
    assert ("  thresholds { alpha 0.5; theta_hi 2; theta_lo 0.5; k_stale 4;"
            " horizon_cap 5; }\n") in printed
    assert print_model(_ok(printed)) == printed
    msgs = _errs(text.replace("k_stale 4;", "k_stale 4; beta 1;"))
    assert "unknown threshold 'beta'" in msgs[0].message


def test_duplicate_declaration():
    msgs = _errs("""\
type t object {
}

type t object {
}
""")
    assert any("t" in d.message for d in msgs)


def test_object_cannot_have_controller():
    msgs = _errs("""\
type t object {
  controller {
    modes a, b init a;
  }
}
""")
    assert msgs


# each model the engine rejects while building: the declaration's line and
# a piece of the engine's message
BASE = """\
type t object {
  var x: int[0, 3];
}

type a agent {
}

motif m {
  map line(2);
}

"""

REJECTED = [
    pytest.param("type u object {\n  var y: bool;\n  var y: bool;\n}", 12,
                 "duplicate var 'y'", id="duplicate-var"),
    pytest.param("type u agent {\n  var mode: bool;\n  controller {\n"
                 "    modes p, q init p;\n  }\n}", 12, "'mode' is reserved",
                 id="reserved-mode"),
    pytest.param("type u object {\n  controller {\n    modes p, q init p;\n"
                 "  }\n}", 12, "objects have no controller", id="object-controller"),
    pytest.param("type u agent {\n  dynamics {\n    rule r;\n  }\n}", 12,
                 "agents have no internal dynamics", id="agent-dynamics"),
    pytest.param("type u agent {\n  controller {\n    modes p, p init p;\n"
                 "  }\n}", 12, "duplicate enumeration values", id="duplicate-mode"),
    pytest.param("type u agent {\n  controller {\n    modes p, q init r;\n"
                 "  }\n}", 12, "initial mode 'r' not declared", id="init-mode"),
    pytest.param("motif n {\n  map line(2);\n  config rule grow then"
                 " { addnode(5); }\n}", 14, "needs at least one required participant",
                 id="rule-without-participants"),
    pytest.param("motif n {\n  map line(2);\n  interaction rule hop for p: a then"
                 " { @(p) := 1; }\n}", 14, "may only assign/exchange",
                 id="interaction-moves"),
    pytest.param("motif n {\n  map { nodes 0; edges 0 -> 1; };\n}", 12,
                 "edge endpoint missing", id="map-edge"),
    pytest.param("motif n {\n  map { nodes 0, 1; edges 0 -> 1: -1; };\n}", 12,
                 "edge weight must be nonnegative", id="edge-weight"),
    pytest.param("component c: t { y = 1; };", 12, "has no var 'y'", id="init-var"),
    pytest.param("component c: t { x = 7; };", 12, "7 outside int[0, 3]",
                 id="init-value"),
    pytest.param("type u object {\n  var y: bool;\n}\n\ncomponent c: u { y = 1; };",
                 16, "expected bool, got 1", id="init-bool"),
    pytest.param("type u object {\n  var y: real[0.0, 1.0] step 0.5;\n}\n\n"
                 "component c: u { y = on; };", 16, "expected a number, got 'on'",
                 id="init-real"),
    pytest.param("component c: t in m at 9;", 12, "no node 9 in motif 'm'",
                 id="off-map"),
    pytest.param("component c: t in m at 0 in m at 1;", 12, "placed twice in 'm'",
                 id="placed-twice"),
    pytest.param("component c: t { x = 1; x = 2; };", 12,
                 "component 'c': duplicate init 'x'", id="duplicate-init"),
    pytest.param("goal g critical utility (1);", 12,
                 "critical goals must be avoid or reach", id="critical-utility"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { detect 2; }\n}",
                 14, "detect probability", id="detect"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { noise t.x -1; }\n}",
                 14, "noise stdev must be nonnegative", id="noise"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { radius -1; }\n}",
                 14, "sensor radius must be nonnegative", id="negative-radius"),
    pytest.param("component c: a in m;\n\nagent c {\n  thresholds { alpha 3; }\n}",
                 14, "agent 'c': threshold alpha outside [0, 1]", id="alpha"),
    pytest.param("component c: a in m;\n\nagent c {\n  thresholds { theta_lo -1; }\n}",
                 14, "threshold theta_lo must be nonnegative", id="theta"),
    pytest.param("component c: a in m;\n\nagent c {\n  thresholds { k_stale 0.5; }\n}",
                 14, "threshold k_stale must be an integer >= 1", id="k-stale"),
    pytest.param("component c: a in m;\n\nagent c {\n  thresholds { horizon_cap 0; }\n}",
                 14, "threshold horizon_cap must be an integer >= 1",
                 id="horizon-cap"),
]


@pytest.mark.parametrize("extra,line,message", REJECTED)
def test_build_errors_are_diagnostics_at_the_declaration(extra, line, message):
    msgs = _errs(BASE + extra)
    assert len(msgs) == 1
    assert msgs[0].line == line
    assert message in msgs[0].message


def test_values_are_checked_by_building():
    model = _ok(BASE + "component c: t { x = 3.0; } in m at 0;\n")
    assert model.build().cfg.components["c"].state["x"] == 3


def test_names_are_resolved_before_values():
    msgs = _errs(BASE + "component c: t { x = 7; } in ghost;\n")
    assert [d.message for d in msgs] == ["component 'c': unknown motif 'ghost'"]


def _motif_rule(rule):
    return f"motif n {{\n  map line(2);\n  {rule}\n}}"


def _agent(body, before=""):
    return f"{before}component c: a in m;\n\nagent c {{\n{body}}}"


# each model with one name or scope error: the declaration's line and the
# whole message; and each syntax error in a list or in a builtin's
# arguments: its own line and the whole message
NAME_ERRORS = [
    pytest.param("type t object {\n}", 12, "duplicate type 't'", id="dup-type"),
    pytest.param("motif m {\n  map line(1);\n}", 12, "duplicate motif 'm'",
                 id="dup-motif"),
    pytest.param("component c: t;\n\ncomponent c: t;", 14,
                 "duplicate component 'c'", id="dup-component"),
    pytest.param("goal g best_effort utility (1);\n\ngoal g best_effort utility (2);",
                 14, "duplicate goal 'g'", id="dup-goal"),
    pytest.param(_agent("", "") + "\n\nagent c {\n}", 17, "duplicate agent 'c'",
                 id="dup-agent"),
    pytest.param("scenario {\n}\n\nscenario {\n}", 15, "duplicate scenario",
                 id="dup-scenario"),
    pytest.param("type u object {\n  dynamics {\n    rule r for p: t, p: t;\n  }\n}",
                 14, "type 'u' rule 'r': duplicate parameter 'p'", id="dup-param"),
    pytest.param("type u object {\n  dynamics {\n    rule r for self: t;\n  }\n}",
                 14, "type 'u' rule 'r': duplicate parameter 'self'",
                 id="param-self"),
    pytest.param(_motif_rule("config rule r for p: ghost;"), 14,
                 "motif 'n' rule 'r': unknown type 'ghost'", id="param-type"),
    pytest.param("type u agent {\n  controller {\n    modes p, q init p;\n"
                 "    from p to r;\n  }\n}", 15,
                 "type 'u' transition p->r: unknown mode 'r'", id="trans-mode"),
    pytest.param("motif n { map line(2); config rule r for p: a; config rule r for"
                 " p: a; }", 12, "motif 'n': duplicate rule 'r'", id="dup-rule"),
    pytest.param(_motif_rule("config rule r for p: t if q.x = 1;"), 14,
                 "motif 'n' rule 'r': undeclared name 'q'", id="guard-name"),
    pytest.param(_motif_rule("config rule r for p: t if p.y = 1;"), 14,
                 "motif 'n' rule 'r': type 't' has no var 'y'", id="guard-var"),
    pytest.param(_motif_rule("config rule r for p: t if member(p, ghost);"), 14,
                 "motif 'n' rule 'r': unknown motif 'ghost'", id="guard-motif"),
    pytest.param(_motif_rule("config rule r for p: t if placed(q);"), 14,
                 "motif 'n' rule 'r': undeclared name 'q'", id="placed-name"),
    pytest.param(_motif_rule("config rule r for p: t then { q.x := 1; }"), 14,
                 "motif 'n' rule 'r': undeclared name 'q'", id="assign-name"),
    pytest.param(_motif_rule("config rule r for p: t then { exchange(p.x, p.y); }"),
                 14, "motif 'n' rule 'r': type 't' has no var 'y'",
                 id="exchange-var"),
    pytest.param(_motif_rule("config rule r for p: t then { @(p) := @(q, m); }"),
                 14, "motif 'n' rule 'r': undeclared name 'q'", id="move-name"),
    pytest.param(_motif_rule("config rule r for p: t then { join(p, ghost); }"),
                 14, "motif 'n' rule 'r': unknown motif 'ghost'", id="join-motif"),
    pytest.param(_motif_rule("config rule r for p: t then { migrate(p, m, ghost); }"),
                 14, "motif 'n' rule 'r': unknown motif 'ghost'", id="migrate-motif"),
    pytest.param(_motif_rule("config rule r for p: t then { delete(q); }"), 14,
                 "motif 'n' rule 'r': undeclared name 'q'", id="delete-name"),
    pytest.param(_motif_rule("config rule r for p: t then { addnode(q.x); }"), 14,
                 "motif 'n' rule 'r': undeclared name 'q'", id="mapedit-name"),
    pytest.param(_motif_rule("config rule r for p: t then { create k: ghost; }"), 14,
                 "motif 'n' rule 'r': unknown type 'ghost'", id="create-type"),
    pytest.param(_motif_rule("config rule r for p: t then { create k: t in ghost; }"),
                 14, "motif 'n' rule 'r': unknown motif 'ghost'", id="create-motif"),
    pytest.param(_motif_rule("config rule r for p: t then { create k: t with"
                             " { y = 1; }; }"), 14,
                 "motif 'n' rule 'r': type 't' has no var 'y'", id="create-var"),
    pytest.param(_motif_rule("config rule r for p: t then { create k: t at @(k); }"),
                 14, "motif 'n' rule 'r': undeclared name 'k'", id="create-self-ref"),
    pytest.param(_motif_rule("config rule r for p: t then { create p: t; }"), 14,
                 "motif 'n' rule 'r': create shadows 'p'", id="create-shadows"),
    pytest.param(_motif_rule("config rule r for p: t if k.x = 0 then"
                             " { create k: t; }"), 14,
                 "motif 'n' rule 'r': undeclared name 'k'", id="create-not-in-guard"),
    pytest.param("type u object {\n  var y: bool;\n  dynamics {\n"
                 "    rule r for o: t then { o.x := 1; }\n  }\n}", 15,
                 "type 'u' rule 'r': may only modify 'self'", id="dynamics-write"),
    pytest.param("component c: t;\n\ntype u agent {\n  controller {\n"
                 "    modes p, q init p;\n    from p to q then { c.x := 1; }\n"
                 "  }\n}", 17, "type 'u' transition p->q: may only modify 'self'",
                 id="transition-write"),
    pytest.param("component c: ghost;", 12, "component 'c': unknown type 'ghost'",
                 id="component-type"),
    pytest.param("component c: t in ghost;", 12,
                 "component 'c': unknown motif 'ghost'", id="component-motif"),
    pytest.param("goal g critical avoid (c.x = 1);", 12,
                 "goal 'g': undeclared name 'c'", id="goal-name"),
    pytest.param("agent c {\n}", 12, "agent 'c': undeclared component",
                 id="agent-ego"),
    pytest.param("component c: t;\n\nagent c {\n}", 14,
                 "agent 'c': component is not of an agent type", id="agent-kind"),
    pytest.param(_agent("  goals g;\n"), 14, "agent 'c': unknown goal 'g'",
                 id="agent-goal"),
    pytest.param(_agent("  recovery g;\n"), 14, "agent 'c': unknown goal 'g'",
                 id="recovery-goal"),
    pytest.param(_agent("  recovery g;\n", "goal g best_effort utility (1);\n\n"),
                 16, "agent 'c': recovery goal must be avoid or reach",
                 id="recovery-kind"),
    pytest.param(_agent("  horizon 0;\n"), 14, "agent 'c': horizon must be positive",
                 id="horizon"),
    pytest.param(_agent("  pattern no_such_pattern;\n"), 14,
                 "agent 'c': unknown pattern 'no_such_pattern'", id="agent-pattern"),
    pytest.param(_agent("  sensor { motif ghost; }\n"), 14,
                 "agent 'c': unknown motif 'ghost'", id="sensor-motif"),
    pytest.param(_agent("  sensor { see ghost; }\n"), 14,
                 "agent 'c': unknown type 'ghost'", id="see-type"),
    pytest.param(_agent("  sensor { see t [y]; }\n"), 14,
                 "agent 'c': type 't' has no var 'y'", id="see-var"),
    pytest.param(_agent("  sensor { noise ghost.x 1; }\n"), 14,
                 "agent 'c': unknown type 'ghost'", id="noise-type"),
    pytest.param(_agent("  sensor { noise t.y 1; }\n"), 14,
                 "agent 'c': type 't' has no var 'y'", id="noise-var"),
    pytest.param("scenario {\n  steps -1;\n}", 12,
                 "scenario: steps must be nonnegative", id="steps"),
    pytest.param("scenario {\n  steps 1;\n  check k always (c.x = 1);\n}", 14,
                 "check 'k': undeclared name 'c'", id="check-name"),
    pytest.param(_motif_rule("config rule r for p: t if placed(p, m then { p.x := 1; }"),
                 14, "expected ')', got 'then'", id="builtin-unclosed"),
    pytest.param(_motif_rule("config rule r for p: t if member(p);"), 14,
                 "expected ',', got ')'", id="member-without-motif"),
    pytest.param(_motif_rule("config rule r for p: t if @(p, 1) = 0;"), 14,
                 "expected motif name", id="address-motif-number"),
    pytest.param(_motif_rule("config rule r for p: t if empty(0, 1);"), 14,
                 "expected motif name", id="empty-motif-number"),
    pytest.param("type u agent {\n  controller {\n    modes init p;\n  }\n}", 14,
                 "expected 'init', got 'p'", id="empty-modes"),
    pytest.param(_agent("  goals;\n"), 15, "expected goal name", id="empty-goals"),
    pytest.param("motif n {\n  map { nodes 0, 1, ; };\n}", 13, "expected node id",
                 id="nodes-trailing-comma"),
    pytest.param(_agent("  sensor { see t [x x]; }\n"), 15, "expected ']', got 'x'",
                 id="see-without-comma"),
    pytest.param(_agent("  sensor { see t [x,]; }\n"), 15, "expected variable name",
                 id="see-trailing-comma"),
    pytest.param("scenario {\n  policy script(cool warm);\n}", 13,
                 "expected ')', got 'warm'", id="script-without-comma"),
    pytest.param("scenario {\n  policy script(cool,);\n}", 13, "expected rule name",
                 id="script-trailing-comma"),
    pytest.param("component c: t in m at 0;\n\ngoal g critical avoid (@(c) = 1);", 14,
                 "goal 'g': map lookup @(c) names no motif", id="goal-address"),
    pytest.param("goal g critical reach (succ(0) = 1);", 12,
                 "goal 'g': map lookup succ(0) names no motif", id="goal-succ"),
    pytest.param("goal g best_effort utility (distance(0, 1));", 12,
                 "goal 'g': map lookup distance(0, 1) names no motif",
                 id="utility-distance"),
    pytest.param("component c: t in m at 0;\n\nscenario {\n  check k always"
                 " (placed(c));\n}", 15,
                 "check 'k': map lookup placed(c) names no motif", id="check-placed"),
    pytest.param("scenario {\n  check k finally (empty(succ(0, m)));\n}", 13,
                 "check 'k': map lookup empty(succ(0, m)) names no motif",
                 id="check-empty"),
]


# each rejection of the parser's own: a number, a domain, a map edit's
# arguments, a map generator or a literal it refuses, at the token's line
PARSER_REJECTIONS = [
    pytest.param("motif n {\n  map line(2.5);\n}", 13, "expected an integer",
                 id="integer"),
    pytest.param("type u object {\n  var y: int[3, 1];\n}", 13,
                 "empty int range [3, 1]", id="int-range"),
    pytest.param("type u object {\n  var y: real[1.0, 0.5];\n}", 13,
                 "empty real range [1, 1/2]", id="real-range"),
    pytest.param("type u object {\n  var y: real[0.0, 1.0] step 0.0;\n}", 13,
                 "step must be positive", id="real-step"),
    pytest.param("type u object {\n  var y: enum {p, p};\n}", 13,
                 "duplicate enumeration values", id="enum-values"),
    pytest.param(_motif_rule("config rule r for p: t then { addnode(0, 1); }"), 14,
                 "addnode takes 1 arguments", id="map-edit-arity"),
    pytest.param("motif n {\n  map ring(0);\n}", 13, "ring needs at least one node",
                 id="ring"),
    pytest.param("motif n {\n  map grid(2, 0);\n}", 13,
                 "grid dimensions must be positive", id="grid"),
    pytest.param("component c: t { x = @; };", 12, "expected a literal value",
                 id="literal"),
]


@pytest.mark.parametrize("extra,line,message", NAME_ERRORS + PARSER_REJECTIONS)
def test_name_errors_are_one_diagnostic_at_the_declaration(extra, line, message):
    msgs = _errs(BASE + extra)
    assert [(d.line, d.message) for d in msgs] == [(line, message)]


def _typed(rule):
    """The `RUNTIME` model of `test_rules.py`, whose rule `r`, on its line
    10, is `rule`."""
    return RUNTIME.format(rule=rule)


# each model with one ill-typed expression: one diagnostic at the
# declaration's line and column, and the whole message.  Each of them
# built when types were checked only as expressions ran
TYPE_ERRORS = [
    # the bool places: a guard, a goal, a check, and `and`/`or`/`not`
    pytest.param(PLATOON.replace("if empty(succ(@(a)))", "if not(succ(@(a)))"),
                 (7, 10, "motif 'road' rule 'advance': succ(@(a)) is a node, not a bool"),
                 id="not-node"),
    pytest.param(_typed("a: car if a.speed;"),
                 (10, 10, "motif 'lane' rule 'r': a.speed is an int, not a bool"),
                 id="guard"),
    pytest.param(THERMOSTAT.replace("(room.temp < 17.5 or room.temp > 22.5)",
                                    "(room.temp)"),
                 (25, 1, "goal 'band': room.temp is a real, not a bool"), id="goal"),
    pytest.param(THERMOSTAT.replace("(room.temp >= 17.5 and room.temp <= 22.5)",
                                    "(room.temp)"),
                 (31, 3, "check 'inband': room.temp is a real, not a bool"),
                 id="check"),
    pytest.param(_typed("a: car if a.on or a.mood;"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not a bool"),
                 id="or"),
    pytest.param(_typed("a: car if not a.speed;"),
                 (10, 10, "motif 'lane' rule 'r': a.speed is an int, not a bool"),
                 id="not"),
    # arithmetic and ordering take an int or a real
    pytest.param(_typed("a: car if a.mood < 1;"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not an int or a real"),
                 id="compare"),
    pytest.param(_typed("a: car if a.mood + 1 > 0;"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not an int or a real"),
                 id="arithmetic"),
    pytest.param(_typed("a: car if -a.mood = 0;"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not an int or a real"),
                 id="negate"),
    pytest.param(_typed("a: car if @(a) + 1 > 2;"),
                 (10, 10, "motif 'lane' rule 'r': @(a) is a node, not an int or a real"),
                 id="node-arithmetic"),
    pytest.param(_typed("a: car if @(a) <= 2;"),
                 (10, 10, "motif 'lane' rule 'r': @(a) is a node, not an int or a real"),
                 id="node-order"),
    # `=` and `!=`
    pytest.param(_typed("a: car if a.mood = 1;"),
                 (10, 10, "motif 'lane' rule 'r': a.mood = 1 compares an enum with an int"),
                 id="enum-int"),
    pytest.param(_typed("a: car if a.on != 1;"),
                 (10, 10, "motif 'lane' rule 'r': a.on != 1 compares a bool with an int"),
                 id="bool-int"),
    pytest.param(_typed("a: car if @(a) = a.mood;"),
                 (10, 10, "motif 'lane' rule 'r': @(a) = a.mood compares a node with an enum"),
                 id="node-enum"),
    # a value written to a var
    pytest.param(_typed("a: car then { a.speed := @(c3); }"),
                 (10, 10, "motif 'lane' rule 'r': @(c3) is a node, not a value of a.speed"),
                 id="undef-value"),
    pytest.param(_typed("a: car then { a.on := 1; }"),
                 (10, 10, "motif 'lane' rule 'r': 1 is an int, not a value of a.on"),
                 id="bool"),
    pytest.param(_typed("a: car then { a.temp := a.mood; }"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not a value of a.temp"),
                 id="real-type"),
    pytest.param(THERMOSTAT.replace("from off to on if room.temp <= 18.0;",
                                    "from off to on if room.temp <= 18.0"
                                    " then { self.mode := heatt; }"),
                 (4, 5, "type 'heater' transition off->on: heatt is a symbol,"
                        " not a value of self.mode"), id="enum-typo"),
    pytest.param(THERMOSTAT.replace("h.mode = off", "h.mode = offf"),
                 (12, 5, "type 'space' rule 'cool': offf is a symbol, not a value of h.mode"),
                 id="enum-typo-compare"),
    pytest.param(THERMOSTAT.replace("(room.temp >= 17.5 and room.temp <= 22.5)",
                                    "(h1.mode != onn)"),
                 (31, 3, "check 'inband': onn is a symbol, not a value of h1.mode"),
                 id="enum-typo-check"),
    pytest.param(_typed("a: car then { exchange(a.temp, a.mood); }"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not a value of a.temp"),
                 id="exchange"),
    pytest.param(_typed("a: car then { create n: car with { mood = 1; }; }"),
                 (10, 10, "motif 'lane' rule 'r': 1 is an int, not a value of n.mood"),
                 id="create-init"),
    # node positions take an int, a node or a symbol; a weight an int
    pytest.param(_typed("a: car then { @(a) := 1.0; }"),
                 (10, 10, "motif 'lane' rule 'r': 1.0 is a real, not an int or a node"
                          " or a symbol"), id="real"),
    pytest.param(_typed("a: car then { @(a) := true; }"),
                 (10, 10, "motif 'lane' rule 'r': true is a bool, not an int or a node"
                          " or a symbol"), id="bool-node"),
    pytest.param(_typed("a: car then { create n: car at a.temp; }"),
                 (10, 10, "motif 'lane' rule 'r': a.temp is a real, not an int or a node"
                          " or a symbol"), id="create-at"),
    pytest.param(_typed("a: car then { migrate(a, lane, fast, a.on); }"),
                 (10, 10, "motif 'lane' rule 'r': a.on is a bool, not an int or a node"
                          " or a symbol"), id="migrate-node"),
    pytest.param(_typed("a: car then { addnode(7.0); }"),
                 (10, 10, "motif 'lane' rule 'r': 7.0 is a real, not an int or a node"
                          " or a symbol"), id="addnode-real"),
    pytest.param(_typed("a: car then { addedge(0, true); }"),
                 (10, 10, "motif 'lane' rule 'r': true is a bool, not an int or a node"
                          " or a symbol"), id="addedge-bool"),
    pytest.param(_typed("a: car then { addedge(0, 1, 0.5); }"),
                 (10, 10, "motif 'lane' rule 'r': 0.5 is a real, not an int"),
                 id="addedge-weight"),
    pytest.param(_typed("a: car if empty(a.mood);"),
                 (10, 10, "motif 'lane' rule 'r': a.mood is an enum, not an int or a node"
                          " or a symbol"), id="empty"),
    pytest.param(_typed("a: car if succ(distance(@(a), 0)) = 1;"),
                 (10, 10, "motif 'lane' rule 'r': distance(@(a), 0) is a real, not an int"
                          " or a node or a symbol"), id="succ-distance"),
    pytest.param(_typed("a: car if distance(@(a), placed(a)) > 0;"),
                 (10, 10, "motif 'lane' rule 'r': placed(a) is a bool, not an int or a"
                          " node or a symbol"), id="distance"),
    # a utility is an int, a real or a node
    pytest.param(THERMOSTAT + "\ngoal g best_effort utility (room.temp > 20.0);\n",
                 (34, 1, "goal 'g': room.temp > 20.0 is a bool, not an int or a real"
                         " or a node"), id="bool-utility"),
]


@pytest.mark.parametrize("text, diagnostic", TYPE_ERRORS)
def test_type_errors_are_one_diagnostic_at_the_declaration(text, diagnostic):
    system, diags = load(text)
    assert system is None
    assert [(d.line, d.col, d.message) for d in diags] == [diagnostic]


def test_a_well_typed_model_builds():
    # what each type compares with, writes and places
    _ok(_typed(
        "a: car, b?: car if a.speed < a.temp + 1 and (a.mood = eager) = false"
        " and @(a) = a.speed and @(a) != distance(@(a), 0) and a.mood != b.mood"
        " and @(a) = lane then { a.temp := a.speed - a.speed; a.speed := 1.0;"
        " a.mood := calm; exchange(a.speed, a.temp); @(a) := succ(@(a)); }"))


def test_lookups_outside_rules_build_when_they_name_their_motif():
    # and a sensor that names no motif senses its agent's home motif
    system = _ok(BASE + _agent(
        "  sensor { see t; }\n  goals g;\n",
        "component d: t in m at 0;\n\ngoal g critical avoid (@(d, m) = 1 and"
        " placed(d, m) and empty(succ(0, m), m) and distance(0, 1, m) = 1);\n\n"
    ) + "\n\nscenario {\n  check k always (member(d, m) and placed(d, m));\n}\n").build()
    assert system.sensors["c"].motif == "m"


def test_empty_lists_of_seen_vars_and_scripted_rules_round_trip():
    text = THERMOSTAT_DELIBERATIVE.replace("see space [temp];", "see space [];")
    assert text != THERMOSTAT_DELIBERATIVE
    assert print_model(_ok(text)) == text
    system = _ok(text.replace("policy random;", "policy script();")).build()
    assert system.scenario.script == []


def test_script_names_every_scheduled_rule():
    text = THERMOSTAT.replace(
        "policy random;", "policy script(cool, off_to_on_0, house/cool, house/warm);")
    assert print_model(_ok(text)) == text
    msgs = _errs(text.replace("house/warm", "house/heat"))
    assert msgs[0].message == "scenario: unknown scripted rule 'house/heat'"
    assert msgs[0].line == text[:text.index("scenario")].count("\n") + 1


def test_diagnostic_str_carries_position():
    msgs = _errs("goal g critical avoid (nobody.x);")
    s = str(msgs[0])
    assert "1:" in s


# -- parse totality ----------------------------------------------------------


def test_parser_is_total_on_garbage():
    rng = random.Random(7)
    alphabet = string.printable
    for _ in range(300):
        n = rng.randint(0, 60)
        text = "".join(rng.choice(alphabet) for _ in range(n))
        model, diags = parse(text)
        if model is None:
            assert diags
        else:
            print_model(model)


def _raw_outcome(text):
    """What the parser alone makes of `text`: its diagnostic, or the
    canonical text of the model it parsed, unbuilt."""
    try:
        return print_model(Parser(text).parse_model())
    except ParseError as e:
        return str(e.diag)


#: SHA-256 over the raw parser outcome of every mutant below, in order: a
#: change to the parser that alters any diagnostic or printed text fails it
MUTANT_OUTCOMES = (
    "642f2a4ddbba467831c1ab1dc9f5bac6b2f3fb18a6497369d186736d5922e2f3")


def test_parser_is_total_on_mutated_corpus():
    # character mutants, and identifier swaps: one identifier token replaced
    # by another identifier of the same text, which mostly still parses and
    # so reaches name resolution; a mutant `load` accepts has built, and
    # runs 15 steps raising nothing but the engine's dynamic errors, such
    # as an undefined address: never a `TypeError`
    rng = random.Random(11)
    swap = random.Random(13)
    digest = hashlib.sha256()
    for text in CORPUS:
        mutants = []
        for _ in range(20):
            chars = list(text)
            for _ in range(3):
                i = rng.randrange(len(chars))
                chars[i] = rng.choice(string.printable)
            mutants.append("".join(chars))
        idents = list(re.finditer(r"[A-Za-z_]\w*", text))
        names = sorted({m.group() for m in idents})
        for _ in range(40):
            m = swap.choice(idents)
            mutants.append(text[:m.start()] + swap.choice(names) + text[m.end():])
        for mutant in mutants:
            digest.update(_raw_outcome(mutant).encode() + b"\0")
            system, diags = load(mutant)
            if system is None:
                assert len(diags) == 1
                continue
            assert diags == []
            try:
                run(system, steps=15)
            except EngineError:
                pass
    assert digest.hexdigest() == MUTANT_OUTCOMES


def test_input_that_nests_too_deeply_is_one_diagnostic():
    text = "goal g critical avoid " + "(" * 1000 + "true" + ")" * 1000 + ";"
    assert [(d.line, d.col, d.message) for d in _errs(text)] == [
        (1, 1, "input nests too deeply")]


def test_unterminated_block_is_an_error():
    _errs("motif m {\n  map line(2);\n")
    _errs("type t object {")
