import random
import string

import pytest

from motifsim.lang import parse, print_model
from motifsim.scenarios import (
    PLATOON, SHUTTLE, SOCCER, THERMOSTAT, THERMOSTAT_DELIBERATIVE,
)

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


def test_numeric_literal_formatting():
    model = _ok("""
type t object {
  var x: real[0.0, 2.0] step 0.25;
}
""")
    printed = print_model(model)
    assert "0.25" in printed and "2.0" in printed


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
    pytest.param("component c: t { y = 1; };", 12, "has no var 'y'", id="init-var"),
    pytest.param("component c: t { x = 7; };", 12, "7 outside int[0, 3]",
                 id="init-value"),
    pytest.param("component c: t in m at 9;", 12, "no node 9 in motif 'm'",
                 id="off-map"),
    pytest.param("component c: t in m at 0 in m at 1;", 12, "placed twice in 'm'",
                 id="placed-twice"),
    pytest.param("goal g critical utility (1);", 12,
                 "critical goals must be avoid or reach", id="critical-utility"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { detect 2; }\n}",
                 14, "detect probability", id="detect"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { noise t.x -1; }\n}",
                 14, "noise stdev must be nonnegative", id="noise"),
    pytest.param("component c: a in m;\n\nagent c {\n  sensor { radius -1; }\n}",
                 14, "sensor radius must be nonnegative", id="negative-radius"),
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


def test_parser_is_total_on_mutated_corpus():
    rng = random.Random(11)
    for text in CORPUS:
        for _ in range(20):
            chars = list(text)
            for _ in range(3):
                i = rng.randrange(len(chars))
                chars[i] = rng.choice(string.printable)
            model, diags = parse("".join(chars))
            assert model is not None or diags


def test_unterminated_block_is_an_error():
    _errs("motif m {\n  map line(2);\n")
    _errs("type t object {")
