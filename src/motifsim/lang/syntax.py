"""Syntax-level model structure, canonical printing, and instantiation.

A parsed model keeps its declarations in source order; `print_model`
emits the canonical text (parse -> print -> parse is a fixpoint) and
`Model.build` instantiates the initial configuration plus the goal and
agent tables the simulator consumes.
"""

from fractions import Fraction

from ..agents import DEFAULT_THRESHOLDS
from ..expr import fmt_num
from ..goals import Goal
from ..model import (
    BoolDomain,
    ComponentInstance,
    ComponentType,
    Configuration,
    ControllerSpec,
    EnumDomain,
    IntRange,
    Map,
    Motif,
    RealRange,
    VarDecl,
    grid_map,
    line_map,
    ring_map,
)
from ..rules import CONFIG, CONTROLLER, DYNAMICS, INTERACTION, Param, Rule


def _fmt_node(n):
    return str(n)


def _fmt_value(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, Fraction)):
        return fmt_num(v)
    return str(v)


def _fmt_params(params):
    return ", ".join(
        f"{p.name}{'' if p.required else '?'}: {p.type}" for p in params)


def _fmt_rule_body(params, guard, effects, indent):
    s = ""
    if params:
        s += f" for {_fmt_params(params)}"
    if guard is not None:
        s += f" if {guard.unparse()}"
    pad = "  " * indent
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
            self.params, self.guard, self.effects, indent)

    def to_rule(self, self_type=None):
        params = list(self.params)
        if self.kind == DYNAMICS:
            params = [Param("self", self_type)] + params
        return Rule(self.name, self.kind, params, self.guard or _true(),
                    self.effects)


def _true():
    from ..expr import Lit
    return Lit(True)


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
                + _fmt_rule_body(self.params, self.guard, self.effects, indent))

    def to_rule(self, self_type, idx):
        from ..expr import Binary, Sym, VarRef
        from ..rules import Assign
        mode_test = Binary("=", VarRef("self", "mode"), Sym(self.frm))
        guard = mode_test if self.guard is None else Binary(
            "and", mode_test, self.guard)
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

    def build(self):
        ctrl = None
        if self.controller is not None:
            transitions = [t.to_rule(self.name, i)
                           for i, t in enumerate(self.controller.transitions)]
            ctrl = ControllerSpec(self.controller.modes, self.controller.init,
                                  transitions)
        dynamics = [r.to_rule(self_type=self.name) for r in self.dynamics]
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
        parts = [f"nodes {', '.join(_fmt_node(n) for n in self.nodes)};"]
        if self.edges:
            es = ", ".join(
                f"{_fmt_node(a)} -> {_fmt_node(b)}" + (f": {w}" if w != 1 else "")
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

    def build(self):
        interaction = [r.to_rule() for r in self.rules if r.kind == INTERACTION]
        config = [r.to_rule() for r in self.rules if r.kind == CONFIG]
        return Motif(self.name, self.mapspec.build(),
                     interaction_rules=interaction, configuration_rules=config)


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
                s += f" at {_fmt_node(node)}"
        return s + ";"


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

    def build(self, order):
        if self.kind == "utility":
            return Goal(self.name, self.kind, utility=self.expr,
                        criticality=self.criticality, priority=self.priority,
                        order=order)
        return Goal(self.name, self.kind, predicate=self.expr,
                    criticality=self.criticality, priority=self.priority,
                    order=order)


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


class CheckDef:
    def __init__(self, name, when, expr, pos=None):
        self.name = name
        self.when = when  # "always" | "finally"
        self.expr = expr
        self.pos = pos

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
        self.decls.append(d)
        if isinstance(d, TypeDef):
            self.types[d.name] = d
        elif isinstance(d, MotifDef):
            self.motifs[d.name] = d
        elif isinstance(d, CompDef):
            self.components[d.id] = d
        elif isinstance(d, GoalDef):
            self.goals[d.name] = d
        elif isinstance(d, AgentDef):
            self.agents[d.ego] = d
        elif isinstance(d, ScenarioDef):
            self.scenario = d

    def build(self):
        """Instantiate the initial configuration and goal table."""
        types = {name: t.build() for name, t in self.types.items()}
        motifs = [m.build() for m in self.motifs.values()]
        comps = []
        for cd in self.components.values():
            comps.append(ComponentInstance(cd.id, types[cd.type], dict(cd.inits)))
        cfg = Configuration(comps, motifs, types)
        for cd in self.components.values():
            for motif, node in cd.placements:
                cfg.motifs[motif].members.add(cd.id)
                if node is not None:
                    cfg._place(cd.id, motif, node)
        cfg.check()
        goals = {name: g.build(i) for i, (name, g) in enumerate(self.goals.items())}
        return System(cfg, goals, dict(self.agents), self.scenario, self)


class System:
    """A built model: initial configuration plus goal/agent tables."""

    def __init__(self, cfg, goals, agent_defs, scenario, model):
        self.cfg = cfg
        self.goals = goals
        self.agent_defs = agent_defs
        self.scenario = scenario
        self.model = model


def print_model(model):
    """Canonical text of a model; `parse(print_model(m))` is a fixpoint."""
    return "\n\n".join(d.unparse() for d in model.decls) + "\n"
