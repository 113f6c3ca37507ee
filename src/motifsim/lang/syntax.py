"""Syntax-level model structure, canonical printing, and instantiation.

A parsed model keeps its declarations in source order; `print_model`
emits the canonical text (parse -> print -> parse is a fixpoint) and
`Model.build` instantiates the initial configuration plus the goal,
sensor and agent tables the simulator consumes.  Building is the one
check of a model's names, values, types and structure: the engine's
constructors reject what has no meaning, every rule, goal and check is
compiled through a `Scope` over the built configuration, which rejects a
name that denotes nothing, an expression of a type its place does not
take, and a goal's or check's map lookup that names no motif, and `_at`
turns any rejection into an error at the declaration's position.  Each
check keeps its compiled test for `sim.run`.
"""

from contextlib import contextmanager
from fractions import Fraction

from ..agents import DEFAULT_THRESHOLDS, PATTERNS, SensorSpec, checked_thresholds
from ..errors import EngineError
from ..expr import TRUE, Binary, Scope, Sym, VarRef, compile_guard, fmt_num
from ..goals import UTILITY, Goal
from ..model import (
    AGENT,
    BoolDomain,
    ComponentInstance,
    ComponentType,
    Configuration,
    ControllerSpec,
    IntRange,
    Map,
    Motif,
    RealRange,
    grid_map,
    line_map,
    ring_map,
)
from ..rules import (
    CONFIG, CONTROLLER, DYNAMICS, INTERACTION, Assign, Param, Rule,
)

ERROR = "error"


class Diagnostic:
    __slots__ = ("severity", "line", "col", "message")

    def __init__(self, severity, line, col, message):
        self.severity = severity
        self.line = line
        self.col = col
        self.message = message

    def __str__(self):
        return f"{self.severity}: {self.line}:{self.col}: {self.message}"


class ParseError(Exception):
    """An error at a position of the model text: raised by the parser, and
    by `Model.build` for a declaration the engine rejects."""

    def __init__(self, line, col, message):
        super().__init__(message)
        self.diag = Diagnostic(ERROR, line, col, message)


def _error(decl, message):
    line, col = decl.pos or (0, 0)
    return ParseError(line, col, message)


@contextmanager
def _at(decl, where):
    """Turn the engine's rejection of `decl` into a `ParseError` at its
    position; anything else the engine raises is a bug and propagates."""
    try:
        yield
    except (ValueError, EngineError) as e:
        raise _error(decl, f"{where}: {e}") from e


def _rule(rules, decl, where, *args):
    """`decl.to_rule(*args)`, rejected at `decl` as `where`; kept in
    `rules` for `Model.build` to compile once the configuration exists."""
    with _at(decl, where):
        rule = decl.to_rule(*args)
    rules.append((decl, where, rule))
    return rule


def _fmt_value(v):
    if isinstance(v, (int, Fraction)):  # a bool too, as `fmt_num` prints it
        return fmt_num(v)
    return str(v)


def _fmt_params(params):
    return ", ".join(
        f"{p.name}{'' if p.required else '?'}: {p.type}" for p in params)


def _fmt_rule_body(params, guard, effects):
    s = ""
    if params:
        s += f" for {_fmt_params(params)}"
    if guard is not None:
        s += f" if {guard.unparse()}"
    if effects:
        body = " ".join(f"{e.unparse()};" for e in effects)
        s += f" then {{ {body} }}"
    else:
        s += ";"
    return s


def _fmt_domain(domain):
    if isinstance(domain, BoolDomain):
        return "bool"
    if isinstance(domain, IntRange):
        return f"int[{domain.lo}, {domain.hi}]"
    if isinstance(domain, RealRange):
        return (f"real[{fmt_num(domain.lo)}, {fmt_num(domain.hi)}]"
                f" step {fmt_num(domain.step)}")
    return "enum {%s}" % ", ".join(domain.values)


class RuleDef:
    """A declared rule (interaction, config, or object dynamics)."""

    def __init__(self, kind, name, params, guard, effects, pos=None):
        self.kind = kind
        self.name = name
        self.params = params
        self.guard = guard
        self.effects = effects
        self.pos = pos

    def unparse(self, indent):
        pad = "  " * indent
        head = {INTERACTION: "interaction rule", CONFIG: "config rule",
                DYNAMICS: "rule"}[self.kind]
        return f"{pad}{head} {self.name}" + _fmt_rule_body(
            self.params, self.guard, self.effects)

    def to_rule(self, self_type=None):
        params = list(self.params)
        if self.kind == DYNAMICS:
            params = [Param("self", self_type)] + params
        return Rule(self.name, self.kind, params, self.guard or TRUE,
                    self.effects)


def _and_first(test, guard):
    """`test and guard`, with `test` folded into the leftmost conjunct of
    `guard`'s left-nested `and` chain, `test and c0 and c1 ...`, so that
    the chain stays left-nested for the binding plan.  `and` evaluates
    and raises the same however it is nested."""
    if isinstance(guard, Binary) and guard.op == "and":
        return Binary("and", _and_first(test, guard.l), guard.r)
    return Binary("and", test, guard)


class TransDef:
    """A controller-automaton transition."""

    def __init__(self, frm, to, params, guard, effects, pos=None):
        self.frm = frm
        self.to = to
        self.params = params
        self.guard = guard
        self.effects = effects
        self.pos = pos

    def unparse(self, indent):
        pad = "  " * indent
        return (f"{pad}from {self.frm} to {self.to}"
                + _fmt_rule_body(self.params, self.guard, self.effects))

    def to_rule(self, self_type, idx, modes):
        for mode in (self.frm, self.to):
            if mode not in modes:
                raise ValueError(f"unknown mode {mode!r}")
        mode_test = Binary("=", VarRef("self", "mode"), Sym(self.frm))
        guard = mode_test if self.guard is None else _and_first(
            mode_test, self.guard)
        effects = [Assign("self", "mode", Sym(self.to))] + list(self.effects)
        name = f"{self.frm}_to_{self.to}_{idx}"
        return Rule(name, CONTROLLER,
                    [Param("self", self_type)] + list(self.params),
                    guard, effects)


class CtrlDef:
    def __init__(self, modes, init, transitions):
        self.modes = modes
        self.init = init
        self.transitions = transitions

    def unparse(self, indent):
        pad = "  " * indent
        lines = [f"{pad}controller {{",
                 f"{pad}  modes {', '.join(self.modes)} init {self.init};"]
        for t in self.transitions:
            lines.append(t.unparse(indent + 1))
        lines.append(f"{pad}}}")
        return "\n".join(lines)


class TypeDef:
    def __init__(self, name, kind, vardecls, dynamics=(), controller=None, pos=None):
        self.name = name
        self.kind = kind
        self.vardecls = list(vardecls)
        self.dynamics = list(dynamics)
        self.controller = controller
        self.pos = pos

    def unparse(self):
        lines = [f"type {self.name} {self.kind} {{"]
        for v in self.vardecls:
            lines.append(f"  var {v.name}: {_fmt_domain(v.domain)};")
        if self.dynamics:
            lines.append("  dynamics {")
            for r in self.dynamics:
                lines.append(r.unparse(2))
            lines.append("  }")
        if self.controller is not None:
            lines.append(self.controller.unparse(1))
        lines.append("}")
        return "\n".join(lines)

    def build(self, rules):
        """The component type; its rules go to `rules` (see `_rule`)."""
        where = f"type {self.name!r}"
        dynamics = [_rule(rules, r, f"{where} rule {r.name!r}", self.name)
                    for r in self.dynamics]
        ctrl = None
        c = self.controller
        if c is not None:
            transitions = [
                _rule(rules, t, f"{where} transition {t.frm}->{t.to}",
                      self.name, i, c.modes)
                for i, t in enumerate(c.transitions)]
            ctrl = ControllerSpec(c.modes, c.init, transitions)
        return ComponentType(self.name, self.kind, self.vardecls,
                             dynamics=dynamics, controller=ctrl)


class MapSpecDef:
    """Either a generator (line/ring/grid) or an explicit node/edge list."""

    def __init__(self, kind, args=(), nodes=(), edges=()):
        self.kind = kind
        self.args = tuple(args)
        self.nodes = list(nodes)
        self.edges = list(edges)  # (a, b, w)

    def unparse(self):
        if self.kind != "custom":
            return f"{self.kind}({', '.join(str(a) for a in self.args)})"
        parts = [f"nodes {', '.join(map(str, self.nodes))};"]
        if self.edges:
            es = ", ".join(
                f"{a} -> {b}" + (f": {w}" if w != 1 else "")
                for a, b, w in self.edges)
            parts.append(f"edges {es};")
        return "{ %s }" % " ".join(parts)

    def build(self):
        if self.kind == "line":
            return line_map(self.args[0])
        if self.kind == "ring":
            return ring_map(self.args[0])
        if self.kind == "grid":
            return grid_map(self.args[0], self.args[1])
        return Map(self.nodes, self.edges)


class MotifDef:
    def __init__(self, name, mapspec, rules, pos=None):
        self.name = name
        self.mapspec = mapspec
        self.rules = list(rules)
        self.pos = pos

    def unparse(self):
        lines = [f"motif {self.name} {{", f"  map {self.mapspec.unparse()};"]
        for r in self.rules:
            lines.append(r.unparse(1))
        lines.append("}")
        return "\n".join(lines)

    def build(self, rules):
        """The motif; its rules go to `rules` (see `_rule`)."""
        by_kind = {INTERACTION: [], CONFIG: []}
        for r in self.rules:
            by_kind[r.kind].append(
                _rule(rules, r, f"motif {self.name!r} rule {r.name!r}"))
        with _at(self, f"motif {self.name!r}"):
            return Motif(self.name, self.mapspec.build(),
                         rules=by_kind[INTERACTION] + by_kind[CONFIG])


class CompDef:
    def __init__(self, cid, type, inits, placements, pos=None):
        self.id = cid
        self.type = type
        self.inits = list(inits)          # (var, literal value)
        self.placements = list(placements)  # (motif, node | None)
        self.pos = pos

    def unparse(self):
        s = f"component {self.id}: {self.type}"
        if self.inits:
            body = " ".join(f"{k} = {_fmt_value(v)};" for k, v in self.inits)
            s += " { %s }" % body
        for motif, node in self.placements:
            s += f" in {motif}"
            if node is not None:
                s += f" at {node}"
        return s + ";"

    def build(self, cfg):
        """Add this component to `cfg`, with its memberships and addresses
        (`Configuration.add_component`, `join` and `place`); its type and
        motifs are checked before its values."""
        scope = Scope((), cfg)
        scope.type(self.type)
        for motif, _ in self.placements:
            scope.motif(motif)
        state = {}
        for var, value in self.inits:
            if var in state:
                raise ValueError(f"duplicate init {var!r}")
            state[var] = value
        cfg.add_component(ComponentInstance(self.id, cfg.types[self.type], state))
        for motif, node in self.placements:
            if self.id in cfg.motif(motif).members:
                raise ValueError(f"placed twice in {motif!r}")
            cfg.join(self.id, motif)
            if node is not None:
                cfg.place(self.id, motif, node)


class GoalDef:
    def __init__(self, name, criticality, kind, expr, priority=0, pos=None):
        self.name = name
        self.criticality = criticality
        self.kind = kind
        self.expr = expr
        self.priority = priority
        self.pos = pos

    def unparse(self):
        return (f"goal {self.name} {self.criticality} {self.kind}"
                f" ({self.expr.unparse()}) priority {self.priority};")

    def build(self, order, cfg):
        """The goal, its expression compiled against `cfg`."""
        expr = {"utility" if self.kind == UTILITY else "predicate": self.expr}
        return Goal(self.name, self.kind, cfg, criticality=self.criticality,
                    priority=self.priority, order=order, **expr)


class SensorDef:
    def __init__(self, motif=None, radius="inf", see=(), identity=True,
                 noise=(), detect=Fraction(1)):
        self.motif = motif
        self.radius = radius
        self.see = list(see)       # (type, [attrs] | None)
        self.identity = identity
        self.noise = list(noise)   # (type, var, stdev)
        self.detect = detect

    def unparse(self, indent):
        pad = "  " * indent
        lines = [f"{pad}sensor {{"]
        if self.motif is not None:
            lines.append(f"{pad}  motif {self.motif};")
        lines.append(f"{pad}  radius {self.radius};")
        for t, attrs in self.see:
            if attrs is None:
                lines.append(f"{pad}  see {t};")
            else:
                lines.append(f"{pad}  see {t} [{', '.join(attrs)}];")
        lines.append(f"{pad}  identity {'on' if self.identity else 'off'};")
        for t, v, sd in self.noise:
            lines.append(f"{pad}  noise {t}.{v} {fmt_num(sd)};")
        lines.append(f"{pad}  detect {fmt_num(self.detect)};")
        lines.append(f"{pad}}}")
        return "\n".join(lines)


class AgentDef:
    def __init__(self, ego, sensor=None, goals=(), horizon=3, recovery=None,
                 patterns=(), thresholds=None, pos=None):
        self.ego = ego
        self.sensor = sensor
        self.goals = list(goals)
        self.horizon = horizon
        self.recovery = recovery
        self.patterns = list(patterns)
        self.thresholds = dict(thresholds or {})
        self.pos = pos

    def unparse(self):
        lines = [f"agent {self.ego} {{"]
        if self.sensor is not None:
            lines.append(self.sensor.unparse(1))
        if self.goals:
            lines.append(f"  goals {', '.join(self.goals)};")
        lines.append(f"  horizon {self.horizon};")
        if self.recovery is not None:
            lines.append(f"  recovery {self.recovery};")
        for p in self.patterns:
            lines.append(f"  pattern {p};")
        if self.thresholds:
            body = " ".join(f"{k} {fmt_num(self.thresholds[k])};"
                            for k in DEFAULT_THRESHOLDS if k in self.thresholds)
            lines.append("  thresholds { %s }" % body)
        lines.append("}")
        return "\n".join(lines)

    def build(self, cfg, goals):
        """The agent's sensor, once its ego, goals, horizon, patterns,
        thresholds and sensor names are checked against the built `cfg`
        and `goals`."""
        comp = cfg.components.get(self.ego)
        if comp is None:
            raise ValueError("undeclared component")
        if comp.type.kind != AGENT:
            raise ValueError("component is not of an agent type")
        recovery = [] if self.recovery is None else [self.recovery]
        for name in self.goals + recovery:
            if name not in goals:
                raise ValueError(f"unknown goal {name!r}")
        if recovery and goals[self.recovery].kind == UTILITY:
            raise ValueError("recovery goal must be avoid or reach")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        for name in self.patterns:
            if name not in PATTERNS:
                raise ValueError(f"unknown pattern {name!r}")
        checked_thresholds(self.thresholds)
        sd = self.sensor
        if sd is not None:
            scope = Scope((), cfg)
            scope.motif(sd.motif)
            for tname, attrs in sd.see:
                scope.type(tname)
                for attr in attrs or ():
                    scope.var(tname, attr)
            for tname, var, _ in sd.noise:
                scope.type(tname)
                scope.var(tname, var)
        return SensorSpec.from_def(sd, _home(cfg, self.ego))


class CheckDef:
    def __init__(self, name, when, expr, pos=None):
        self.name = name
        self.when = when  # "always" | "finally"
        self.expr = expr
        self.pos = pos
        self.holds = None  # compiled by ScenarioDef.check: ctx -> bool

    def unparse(self, indent):
        pad = "  " * indent
        return f"{pad}check {self.name} {self.when} ({self.expr.unparse()});"


class ScenarioDef:
    def __init__(self, steps=100, seed=0, policy="random", script=(),
                 checks=(), pos=None):
        self.steps = steps
        self.seed = seed
        self.policy = policy
        self.script = list(script)
        self.checks = list(checks)
        self.pos = pos

    def unparse(self):
        lines = ["scenario {", f"  steps {self.steps};", f"  seed {self.seed};"]
        if self.policy == "script":
            lines.append(f"  policy script({', '.join(self.script)});")
        else:
            lines.append(f"  policy {self.policy};")
        for c in self.checks:
            lines.append(c.unparse(1))
        lines.append("}")
        return "\n".join(lines)

    def check(self, cfg):
        """Check the steps, each check's names and the scripted rule names
        against the built `cfg`; each check keeps its compiled test."""
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        for c in self.checks:
            where = f"check {c.name!r}"
            with _at(c, where):
                c.holds = compile_guard(c.expr, Scope((), cfg))
        if self.policy == "script":
            known = _rule_names(cfg)
            for name in self.script:
                if name not in known:
                    raise ValueError(f"unknown scripted rule {name!r}")


class Model:
    """A parsed model file: declarations in source order."""

    def __init__(self):
        self.decls = []
        self.types = {}
        self.motifs = {}
        self.components = {}
        self.goals = {}
        self.agents = {}
        self.scenario = None

    def add(self, d):
        """Append a declaration; one that repeats a name is a `ParseError`
        at its position."""
        if isinstance(d, ScenarioDef):
            if self.scenario is not None:
                raise _error(d, "duplicate scenario")
            self.scenario = d
        else:
            if isinstance(d, TypeDef):
                what, table, name = "type", self.types, d.name
            elif isinstance(d, MotifDef):
                what, table, name = "motif", self.motifs, d.name
            elif isinstance(d, CompDef):
                what, table, name = "component", self.components, d.id
            elif isinstance(d, GoalDef):
                what, table, name = "goal", self.goals, d.name
            else:
                what, table, name = "agent", self.agents, d.ego
            if name in table:
                raise _error(d, f"duplicate {what} {name!r}")
            table[name] = d
        self.decls.append(d)

    def build(self):
        """Instantiate the initial configuration plus the goal, sensor and
        agent tables.

        This is the one check of a model's names, values, types and
        structure: the first declaration, in build order, that the engine
        or a `Scope` over the configuration rejects raises `ParseError` at
        its position, with the rejection's message.
        """
        rules = []  # (declaration, label, rule), compiled once cfg exists
        types = {}
        for name, t in self.types.items():
            with _at(t, f"type {name!r}"):
                types[name] = t.build(rules)
        motifs = [m.build(rules) for m in self.motifs.values()]
        cfg = Configuration((), motifs, types)
        for cd in self.components.values():
            with _at(cd, f"component {cd.id!r}"):
                cd.build(cfg)
        for decl, where, rule in rules:
            with _at(decl, where):
                rule.compile(cfg)
        goals = {}
        for i, (name, g) in enumerate(self.goals.items()):
            with _at(g, f"goal {name!r}"):
                goals[name] = g.build(i, cfg)
        sensors = {}
        for ego, ad in self.agents.items():
            with _at(ad, f"agent {ego!r}"):
                sensors[ego] = ad.build(cfg, goals)
        sc = self.scenario
        if sc is not None:
            with _at(sc, "scenario"):
                sc.check(cfg)
        return System(cfg, goals, sensors, dict(self.agents), sc, self)


def _home(cfg, ego):
    """The motif an agent senses unless its sensor names one: the first
    motif it is a member of, else the first motif."""
    mids = sorted(cfg.motifs)
    return next((m for m in mids if ego in cfg.motifs[m].members),
                mids[0] if mids else None)


def _rule_names(cfg):
    """Every name the script scheduler matches: each motif rule, object
    dynamics rule and controller transition, bare or as
    ``<motif>/<name>``."""
    own = {r.name for t in cfg.types.values() for r in t.dynamics
           + (t.controller.transitions if t.controller is not None else [])}
    names = set(own)
    for mid, m in cfg.motifs.items():
        for name in own.union(r.name for r in m.rules):
            names |= {name, f"{mid}/{name}"}
    return names


class System:
    """A built model: initial configuration plus goal, sensor and agent
    tables."""

    def __init__(self, cfg, goals, sensors, agent_defs, scenario, model):
        self.cfg = cfg
        self.goals = goals
        self.sensors = sensors
        self.agent_defs = agent_defs
        self.scenario = scenario
        self.model = model


def print_model(model):
    """Canonical text of a model; `parse(print_model(m))` is a fixpoint."""
    return "\n\n".join(d.unparse() for d in model.decls) + "\n"
