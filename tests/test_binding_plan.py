"""The per-rule binding plans of `enabled_bindings` against the
enumerate-then-guard oracle (`binding_oracle.py`)."""

import random

import pytest

import binding_oracle
import candidate_oracle
from motifsim.errors import EffectError, EngineError, EvalError
from motifsim.expr import Binary, Ctx, Scope
from motifsim.lang import load
from motifsim.model import AGENT
from motifsim.rules import CONFIG, Rule, apply, enabled_bindings, step_candidates
from motifsim.scenarios import BUNDLED, THERMOSTAT_DELIBERATIVE
from test_model import PLATOON_DELIBERATIVE

# One rule per case the plan must get right; `c5` is placed nowhere, so
# `@(c5)` is undefined and a distance from it an `EvalError`.  The bikes
# run `shift`'s level-0 test, which leads with two conjuncts naming only
# `self`: `k2` fails them, `k1` passes them, and `k3`, placed nowhere,
# raises on `distance(0, @(self))`.  Then the guard raises on every
# complete binding, even where no car passes `a.speed > 4`.
SYNTHETIC = """\
type car agent {
  var speed: int[0, 5];
  var ok: bool;
  controller {
    modes calm, eager init calm;
    from calm to eager for a: car, b: car if a.speed > self.speed and b.speed < a.speed then { self.speed := a.speed; }
    from eager to calm;
  }
}

type truck object {
  var load: int[0, 3];
  dynamics {
    rule haul for a: car, b: car if self.load > 0 and a.speed > 1 and b.speed < a.speed then { self.load := self.load - 1; }
    rule fill for a: car if self.load < 3 and a.speed = 0 then { self.load := self.load + 1; }
  }
}

type bike object {
  var gear: int[0, 2];
  dynamics {
    rule shift for a: car, b: car if self.gear > 0 and distance(0, @(self)) + self.gear > 2 and a.speed > 4 and b.speed < a.speed then { self.gear := 0; }
  }
}

motif lane {
  map line(8);
  config rule pair for a: car, b: car, c?: car if member(a, fast) and b.speed < 3 and c.speed > a.speed then { a.speed := b.speed; }
  config rule near for a: car, b: car if a.speed <= c3.speed and b.speed != a.speed then { b.speed := a.speed; }
  config rule watch for a: car, b: car if c3.ok and a.speed < b.speed then { a.ok := b.ok; }
  config rule risky for a: car, b: car if distance(0, @(a)) + 1 > 2 and b.speed > 0 then { a.speed := 0; }
  config rule lonely for a: car, k: bike if distance(0, @(a)) + 1 > 2 and k.gear > 0 then { a.speed := 0; }
  config rule late for a: car, b: car if b.speed > 0 and a.speed > 3 then { a.speed := b.speed; }
  config rule later for a: car, b: car if distance(0, @(b)) + 1 > 2 and a.speed > 3 then { a.speed := 0; }
  config rule odd for a: car, b: car if distance(@(a), @(c5)) > 0 and b.ok then { a.speed := 0; }
  config rule trio for a: car, b: car, d: car if a.speed > 0 and b.speed > a.speed and d.ok then { a.speed := a.speed + 1; }
  config rule speedup for a: car if a.speed < 5 then { a.speed := a.speed + 1; }
  config rule enter for a: car if not member(a, fast) then { join(a, fast); }
  config rule exit for a: car if member(a, fast) then { leave(a, fast); }
  config rule crash for a: car if a.speed = 5 and member(a, fast) then { delete(c3); }
}

motif fast {
  map line(8);
}

component c1: car { speed = 2; ok = true; } in lane at 0 in fast;

component c2: car { speed = 0; ok = false; } in lane at 2;

component c3: car { speed = 4; ok = true; } in lane at 4;

component c4: car { speed = 1; ok = true; } in lane at 6;

component c5: car { speed = 3; ok = false; } in lane;

component t1: truck { load = 2; } in lane at 7;

component k1: bike { gear = 1; } in fast at 3;

component k2: bike { gear = 0; } in fast at 3;

component k3: bike { gear = 1; } in fast;
"""

MODELS = dict(BUNDLED)
MODELS.update(thermostat_deliberative=THERMOSTAT_DELIBERATIVE,
              platoon_deliberative=PLATOON_DELIBERATIVE, synthetic=SYNTHETIC)


def _system(text):
    system, diags = load(text)
    assert system is not None, diags
    return system


def _rules(cfg):
    """Every rule of `cfg`: motif rules, dynamics, controller transitions."""
    for m in cfg.motifs.values():
        yield from m.rules
    for t in cfg.types.values():
        yield from t.dynamics
        if t.controller is not None:
            yield from t.controller.transitions


def _instances(cfg):
    """(motif, rule, fixed) for each `enabled_bindings` call that
    `step_candidates` makes on `cfg`."""
    for mid in sorted(cfg.motifs):
        m = cfg.motifs[mid]
        for rule in m.rules:
            yield mid, rule, None
        for cid in sorted(m.members):
            comp = cfg.components.get(cid)
            if comp is None:
                continue
            ctrl = comp.type.controller if comp.type.kind == AGENT else None
            own = ctrl.transitions if ctrl is not None else comp.type.dynamics
            for rule in own:
                yield mid, rule, {"self": cid}


def _outcome(enumerate_, cfg, mid, rule, fixed):
    try:
        return [list(b.items()) for b in enumerate_(cfg, mid, rule, fixed)]
    except AssertionError:  # a failed check, not an outcome
        raise
    except Exception as e:  # compared by type and message
        return type(e), str(e)


def _walk(cfg, steps, seed, visit=None):
    """Compare plan and oracle on every call of a seeded random run from
    `cfg`; the outcomes seen, by rule name.  `visit(cfg, moves)`, if
    given, sees each state with its moves, in listing order."""
    rng = random.Random(seed)
    seen = {}
    for _ in range(steps):
        moves = []
        for mid, rule, fixed in _instances(cfg):
            want = _outcome(binding_oracle.enabled_bindings, cfg, mid, rule, fixed)
            assert _outcome(enabled_bindings, cfg, mid, rule, fixed) == want, (
                mid, rule.name, fixed)
            seen.setdefault(rule.name, []).append(want)
            if isinstance(want, list):
                moves += [(mid, rule, dict(b)) for b in want]
        if visit is not None:
            visit(cfg, moves)
        rng.shuffle(moves)
        for mid, rule, binding in moves:
            try:
                cfg = apply(cfg, mid, rule, binding)
                break
            except EffectError:
                continue
        else:
            break
    return seen


@pytest.mark.parametrize("name", sorted(MODELS))
def test_the_plan_agrees_with_the_oracle_on_short_runs(name):
    for seed in range(3):
        _walk(_system(MODELS[name]).cfg, 40, seed)


def _crashed():
    """The synthetic model after `crash` deleted `c3`, which `near` and
    `watch` name as a constant."""
    cfg = _system(SYNTHETIC.replace("speed = 2; ok = true; } in lane at 0",
                                    "speed = 5; ok = true; } in lane at 0")).cfg
    crash, = (r for r in _rules(cfg) if r.name == "crash")
    cfg = apply(cfg, "lane", crash, {"a": "c1"})
    assert "c3" not in cfg.components
    return cfg


def test_the_synthetic_runs_cover_every_case():
    seen = {}
    starts = (_system(SYNTHETIC).cfg, _crashed())
    for seed in range(3):
        for cfg in starts:
            for rule, outcomes in _walk(cfg, 40, seed).items():
                seen.setdefault(rule, []).extend(outcomes)
    raised = {rule for rule, outs in seen.items()
              if any(not isinstance(o, list) for o in outs)}
    enabled = {rule for rule, outs in seen.items()
               if any(isinstance(o, list) and o for o in outs)}
    # the undefined address raises where `b` completes the binding, and
    # nowhere where no bike is there to bind `k`; `odd` measures from the
    # unplaced `c5`; `shift` raises on `k3` once two cars are in `fast`
    assert raised == {"risky", "later", "odd", "shift"}
    assert not enabled & {"risky", "lonely", "later", "odd"}
    assert {"pair", "near", "watch", "late", "trio", "haul", "fill",
            "calm_to_eager_0", "eager_to_calm_1", "crash", "shift"} <= enabled


@pytest.mark.parametrize("name", sorted(MODELS))
def test_candidates_match_the_eager_reference_on_the_oracle_runs(monkeypatch, name):
    # `step_candidates` lists every instance whose enumeration does not
    # raise, so its candidates are the run's moves
    def lenient(*args, **kw):
        try:
            return enabled_bindings(*args, **kw)
        except EngineError:
            return []

    monkeypatch.setattr("motifsim.rules.enabled_bindings", lenient)
    owned = 0

    def visit(cfg, moves):
        nonlocal owned
        cands = step_candidates(cfg)
        assert [(c.motif, c.rule, c.binding) for c in cands] == moves
        candidate_oracle.check(cfg, cands)
        owned += sum(c.rule.kind == CONFIG and bool(c.controlled_by) for c in cands)

    starts = [_system(MODELS[name]).cfg] + ([_crashed()] if name == "synthetic" else [])
    for seed in range(3):
        for cfg in starts:
            _walk(cfg, 40, seed, visit)
    assert owned or name not in ("platoon", "platoon_deliberative", "synthetic")


def test_a_deleted_constant_prunes_as_false():
    cfg = _crashed()
    rules = {r.name: r for r in _rules(cfg)}
    for name in ("near", "watch"):
        assert enabled_bindings(cfg, "lane", rules[name]) == []
        assert binding_oracle.enabled_bindings(cfg, "lane", rules[name]) == []


def test_a_rule_built_by_hand_enumerates_once_compiled():
    cfg = _system(SYNTHETIC).cfg
    late, = (r for r in _rules(cfg) if r.name == "late")
    rule = Rule("late2", CONFIG, late.params, late.guard, late.effects)
    assert rule.plan() is None  # compiled by `compile(cfg)` only
    rule.compile(cfg)
    got = enabled_bindings(cfg, "lane", rule)
    assert got and got == binding_oracle.enabled_bindings(cfg, "lane", rule)


def _tests(model, name):
    """Which required parameters of rule `name` have a leading test."""
    rule, = (r for r in _rules(_system(MODELS[model]).cfg) if r.name == name)
    return [test is not None for _, _, test in rule.plan().required]


@pytest.mark.parametrize("model, name, tests", [
    ("platoon", "form", [True, False]),
    ("synthetic", "pair", [True, False]),  # optional `c` never hoisted
    ("synthetic", "near", [True, False]),  # constant `c3` is not a parameter
    ("synthetic", "watch", [True, False]),  # `c3.ok` joins `a`'s test
    ("synthetic", "risky", [True, False]),
    ("synthetic", "late", [False, False]),  # `b` first blocks `a.speed > 3`
    ("synthetic", "later", [False, False]),
    ("synthetic", "odd", [True, False]),
    ("synthetic", "trio", [True, True, False]),
    ("synthetic", "haul", [True, False]),  # `self.load > 0` leads `a`'s test
    ("synthetic", "calm_to_eager_0", [True, False]),
    ("synthetic", "speedup", [False]),
    ("synthetic", "shift", [True, False]),
])
def test_leading_conjuncts_are_hoisted_in_chain_order(model, name, tests):
    assert _tests(model, name) == tests


@pytest.mark.parametrize("name", sorted(MODELS))
def test_build_compiles_each_guard_conjunct_and_goal_once(monkeypatch, name):
    compiled = []  # each expression a `Scope` was asked for, once per ask
    want = Scope.want

    def counted(self, e, types):
        compiled.append(e)
        return want(self, e, types)

    monkeypatch.setattr(Scope, "want", counted)
    system = _system(MODELS[name])
    roots = [g.predicate if g.predicate is not None else g.utility
             for g in system.goals.values()]
    for rule in _rules(system.cfg):
        e = rule.guard
        while isinstance(e, Binary) and e.op == "and":
            roots.append(e.r)
            e = e.l
        roots.append(e)
    # a rule with no `if` shares `expr.TRUE`: once per rule that has it
    asks = [sum(c is r for c in compiled) for r in roots]
    assert asks == [sum(o is r for o in roots) for r in roots]


def test_a_transitions_mode_test_leads_its_guards_chain():
    # `self.mode = calm` and `a.speed > self.speed` are tested at level 0,
    # so an `a` no faster than `self`, or a `self` not calm, is skipped
    # before `b` is bound
    cfg = _system(SYNTHETIC).cfg
    rule, = (r for r in _rules(cfg) if r.name == "calm_to_eager_0")
    (_, _, test), _ = rule.plan().required
    lane = cfg.motif("lane")
    assert test(Ctx(cfg, lane, {"self": "c1", "a": "c3"})) is True
    assert test(Ctx(cfg, lane, {"self": "c1", "a": "c2"})) is False
    eager = cfg.clone()
    eager.set_var("c1", "mode", "eager")
    assert test(Ctx(eager, lane, {"self": "c1", "a": "c3"})) is False
    assert enabled_bindings(eager, "lane", rule, {"self": "c1"}) == []
    assert rule.guard.unparse() == (
        "self.mode = calm and a.speed > self.speed and b.speed < a.speed")


@pytest.mark.parametrize("bike, first, error", [
    ("k2", False, None),
    ("k1", True, None),
    ("k3", None, "undefined address"),
])
def test_a_first_test_prunes_only_when_false(bike, first, error):
    cfg = _system(SYNTHETIC).cfg
    rules = {r.name: r for r in _rules(cfg)}
    shift, fixed = rules["shift"], {"self": bike}
    (_, _, test), _ = shift.plan().required
    # the level-0 test, with `a` bound to a car faster than 4
    faster = cfg.clone()
    faster.set_var("c1", "speed", 5)
    assert test(Ctx(faster, faster.motif("fast"), {**fixed, "a": "c1"})) is first
    # `c1` alone is in `fast`: no complete binding, so nothing raises
    assert enabled_bindings(cfg, "fast", shift, fixed) == []
    # with `c2` too, no car is faster than 4: only a bike that raises on
    # the conjuncts naming `self` keeps a subtree, where the guard raises
    cfg = apply(cfg, "lane", rules["enter"], {"a": "c2"})
    want = _outcome(binding_oracle.enabled_bindings, cfg, "fast", shift, fixed)
    assert _outcome(enabled_bindings, cfg, "fast", shift, fixed) == want
    if error is None:
        assert want == []
    else:
        assert want[0] is EvalError and error in want[1]


def test_a_raising_leading_conjunct_raises_at_the_leaf_only():
    cfg = _system(SYNTHETIC).cfg
    rules = {r.name: r for r in _rules(cfg)}
    with pytest.raises(EvalError, match="undefined address"):
        enabled_bindings(cfg, "lane", rules["risky"])
    assert enabled_bindings(cfg, "lane", rules["lonely"]) == []


def test_fixed_names_must_be_the_plans():
    cfg = _system(SYNTHETIC).cfg
    rules = {r.name: r for r in _rules(cfg)}
    with pytest.raises(ValueError, match="pre-binds"):
        enabled_bindings(cfg, "lane", rules["haul"])
    with pytest.raises(ValueError, match="pre-binds"):
        enabled_bindings(cfg, "lane", rules["pair"], fixed={"self": "c1"})


def test_an_own_rule_without_free_parameters_keeps_the_fixed_dict(monkeypatch):
    # `step_candidates` hands `enabled_bindings` one fresh `{"self": id}`
    # per member's own rule, and a rule with no free parameter returns
    # that dict as its candidate's binding, not a copy of it
    given = []

    def keep(cfg, mid, rule, fixed=None):
        given.append(fixed)
        return enabled_bindings(cfg, mid, rule, fixed)

    monkeypatch.setattr("motifsim.rules.enabled_bindings", keep)
    kept = 0
    for text in BUNDLED.values():
        given.clear()
        for c in step_candidates(_system(text).cfg):
            if "self" in c.binding and not c.rule.plan().types:
                assert any(c.binding is f for f in given), c.label
                kept += 1
        fixed = [f for f in given if f is not None]
        assert len({id(f) for f in fixed}) == len(fixed)
    assert kept


@pytest.mark.parametrize("name", sorted(MODELS))
def test_plans_are_built_with_the_model(monkeypatch, name):
    cfg = _system(MODELS[name]).cfg
    rules = list(_rules(cfg))
    assert rules and all(r._plan is not None for r in rules)

    def compile_(self, cfg):
        raise AssertionError(f"rule {self.name!r} compiled after build")

    monkeypatch.setattr(Rule, "compile", compile_)
    for mid, rule, fixed in _instances(cfg):
        _outcome(enabled_bindings, cfg, mid, rule, fixed)
