"""Name resolution over a parsed model, then one build.

`resolve` walks every declaration and checks its names and scopes; a
model whose names resolve is then built, and `Model.build` is the one
check of its values and structure.
"""

from ..expr import (
    AddrRef, Binary, Distance, Empty, Lit, Member, Placed, Succ, Sym, Unary,
    VarRef,
)
from ..rules import (
    Assign, Create, Delete, Exchange, Join, Leave, MapEdit, MigrateEffect,
    Move,
)
from .syntax import (
    ERROR, AgentDef, CompDef, Diagnostic, GoalDef, MotifDef,
    ParseError, ScenarioDef, TypeDef,
)


class _Resolver:
    def __init__(self, model):
        self.model = model
        self.diags = []

    def error(self, pos, message):
        line, col = pos or (0, 0)
        self.diags.append(Diagnostic(ERROR, line, col, message))

    # -- entry --------------------------------------------------------------

    def run(self):
        m = self.model
        self.check_duplicates()
        for t in m.types.values():
            self.check_type(t)
        for mo in m.motifs.values():
            self.check_motif(mo)
        for c in m.components.values():
            self.check_component(c)
        for g in m.goals.values():
            self.check_goal(g)
        for a in m.agents.values():
            self.check_agent(a)
        if m.scenario is not None:
            self.check_scenario(m.scenario)
        return self.diags

    def check_duplicates(self):
        seen = {}
        for d in self.model.decls:
            if isinstance(d, TypeDef):
                key = ("type", d.name)
            elif isinstance(d, MotifDef):
                key = ("motif", d.name)
            elif isinstance(d, CompDef):
                key = ("component", d.id)
            elif isinstance(d, GoalDef):
                key = ("goal", d.name)
            elif isinstance(d, AgentDef):
                key = ("agent", d.ego)
            elif isinstance(d, ScenarioDef):
                key = ("scenario", "")
            else:
                continue
            if key in seen:
                what, name = key
                label = f"{what} {name!r}" if name else "scenario"
                self.error(getattr(d, "pos", None), f"duplicate {label}")
            seen[key] = d

    # -- types --------------------------------------------------------------

    def type_vars(self, tname):
        """Variable names of a type, including the controller mode."""
        t = self.model.types.get(tname)
        if t is None:
            return None
        out = {v.name for v in t.vardecls}
        if t.controller is not None:
            out.add("mode")
        return out

    def check_type(self, t):
        for r in t.dynamics:
            self.check_rule(r, owner_type=t.name,
                            where=f"type {t.name!r} rule {r.name!r}")
        if t.controller is not None:
            modes = t.controller.modes
            for tr in t.controller.transitions:
                where = f"type {t.name!r} transition {tr.frm}->{tr.to}"
                for mode in (tr.frm, tr.to):
                    if mode not in modes:
                        self.error(tr.pos, f"{where}: unknown mode {mode!r}")
                self.check_rule(tr, owner_type=t.name, where=where)

    # -- rules --------------------------------------------------------------

    def check_rule(self, r, owner_type=None, where=None):
        """Resolve a RuleDef or TransDef; `owner_type` binds 'self'."""
        pos = r.pos
        scope = {}
        if owner_type is not None:
            scope["self"] = owner_type
        seen = set()
        for p in r.params:
            if p.name in seen or p.name in scope:
                self.error(pos, f"{where}: duplicate parameter {p.name!r}")
            seen.add(p.name)
            if p.type not in self.model.types:
                self.error(pos, f"{where}: unknown type {p.type!r}")
                continue
            scope[p.name] = p.type
        if r.guard is not None:
            self.check_expr(r.guard, scope, pos, where)
        local = dict(scope)
        for e in r.effects:
            self.check_effect(e, local, pos, where,
                              self_only=owner_type is not None)

    def check_effect(self, e, scope, pos, where, self_only=False):
        def owner_ok(name, write=False):
            t = self.owner_type(name, scope)
            if t is None:
                self.error(pos, f"{where}: undeclared name {name!r}")
                return None
            if write and self_only and name != "self":
                self.error(pos, f"{where}: may only modify 'self'")
            return t

        if isinstance(e, Assign):
            t = owner_ok(e.owner, write=True)
            self.check_attr(t, e.attr, pos, where)
            self.check_expr(e.value, scope, pos, where)
        elif isinstance(e, Exchange):
            for owner, attr in ((e.o1, e.a1), (e.o2, e.a2)):
                t = owner_ok(owner, write=True)
                self.check_attr(t, attr, pos, where)
        elif isinstance(e, Move):
            owner_ok(e.owner, write=True)
            self.check_expr(e.node, scope, pos, where)
        elif isinstance(e, Create):
            if e.type not in self.model.types:
                self.error(pos, f"{where}: unknown type {e.type!r}")
            if e.motif is not None:
                self.check_motif_ref(e.motif, pos, where)
            if e.node is not None:
                self.check_expr(e.node, scope, pos, where)
            for v, expr in e.inits:
                self.check_attr(e.type if e.type in self.model.types else None,
                                v, pos, where)
                self.check_expr(expr, scope, pos, where)
            if e.name in scope:
                self.error(pos, f"{where}: create shadows {e.name!r}")
            scope[e.name] = e.type
        elif isinstance(e, Delete):
            owner_ok(e.owner, write=True)
        elif isinstance(e, (Join, Leave)):
            owner_ok(e.owner, write=True)
            self.check_motif_ref(e.motif, pos, where)
        elif isinstance(e, MigrateEffect):
            owner_ok(e.owner, write=True)
            self.check_motif_ref(e.src, pos, where)
            self.check_motif_ref(e.dst, pos, where)
            if e.node is not None:
                self.check_expr(e.node, scope, pos, where)
        elif isinstance(e, MapEdit):
            for a in e.args:
                self.check_expr(a, scope, pos, where)

    def owner_type(self, name, scope):
        if name in scope:
            return scope[name]
        c = self.model.components.get(name)
        if c is not None:
            return c.type
        return None

    def check_attr(self, tname, attr, pos, where):
        if tname is None:
            return
        vars = self.type_vars(tname)
        if vars is not None and attr not in vars:
            self.error(pos, f"{where}: type {tname!r} has no var {attr!r}")

    def check_motif_ref(self, name, pos, where):
        if name not in self.model.motifs:
            self.error(pos, f"{where}: unknown motif {name!r}")

    # -- expressions --------------------------------------------------------

    def check_expr(self, e, scope, pos, where):
        if isinstance(e, (Lit, Sym)):
            return
        if isinstance(e, VarRef):
            t = self.owner_type(e.owner, scope)
            if t is None:
                self.error(pos, f"{where}: undeclared name {e.owner!r}")
            else:
                self.check_attr(t, e.attr, pos, where)
        elif isinstance(e, (AddrRef, Placed)):
            if self.owner_type(e.owner, scope) is None:
                self.error(pos, f"{where}: undeclared name {e.owner!r}")
            if e.motif is not None:
                self.check_motif_ref(e.motif, pos, where)
        elif isinstance(e, Member):
            if self.owner_type(e.owner, scope) is None:
                self.error(pos, f"{where}: undeclared name {e.owner!r}")
            self.check_motif_ref(e.motif, pos, where)
        elif isinstance(e, (Empty, Succ)):
            self.check_expr(e.node, scope, pos, where)
            if e.motif is not None:
                self.check_motif_ref(e.motif, pos, where)
        elif isinstance(e, Distance):
            self.check_expr(e.a, scope, pos, where)
            self.check_expr(e.b, scope, pos, where)
            if e.motif is not None:
                self.check_motif_ref(e.motif, pos, where)
        elif isinstance(e, Binary):
            self.check_expr(e.l, scope, pos, where)
            self.check_expr(e.r, scope, pos, where)
        elif isinstance(e, Unary):
            self.check_expr(e.e, scope, pos, where)

    # -- motifs -------------------------------------------------------------

    def check_motif(self, mo):
        names = set()
        for r in mo.rules:
            if r.name in names:
                self.error(r.pos, f"motif {mo.name!r}: duplicate rule {r.name!r}")
            names.add(r.name)
            self.check_rule(r, where=f"motif {mo.name!r} rule {r.name!r}")

    # -- components ---------------------------------------------------------

    def check_component(self, c):
        if c.type not in self.model.types:
            self.error(c.pos, f"component {c.id!r}: unknown type {c.type!r}")
        for motif, _ in c.placements:
            if motif not in self.model.motifs:
                self.error(c.pos, f"component {c.id!r}: unknown motif {motif!r}")

    # -- goals, agents, scenario --------------------------------------------

    def check_goal(self, g):
        self.check_expr(g.expr, {}, g.pos, f"goal {g.name!r}")

    def check_agent(self, a):
        where = f"agent {a.ego!r}"
        c = self.model.components.get(a.ego)
        if c is None:
            self.error(a.pos, f"{where}: undeclared component")
        else:
            t = self.model.types.get(c.type)
            if t is not None and t.kind != "agent":
                self.error(a.pos, f"{where}: component is not of an agent type")
        for gname in a.goals:
            if gname not in self.model.goals:
                self.error(a.pos, f"{where}: unknown goal {gname!r}")
        if a.recovery is not None:
            g = self.model.goals.get(a.recovery)
            if g is None:
                self.error(a.pos, f"{where}: unknown goal {a.recovery!r}")
            elif g.kind == "utility":
                self.error(a.pos, f"{where}: recovery goal must be avoid or reach")
        if a.horizon < 1:
            self.error(a.pos, f"{where}: horizon must be positive")
        s = a.sensor
        if s is None:
            return
        if s.motif is not None:
            self.check_motif_ref(s.motif, a.pos, where)
        for tname, attrs in s.see:
            vars = self.type_vars(tname)
            if vars is None:
                self.error(a.pos, f"{where}: unknown type {tname!r}")
                continue
            for attr in attrs or ():
                if attr not in vars:
                    self.error(a.pos,
                               f"{where}: type {tname!r} has no var {attr!r}")
        for tname, var, _ in s.noise:
            vars = self.type_vars(tname)
            if vars is None:
                self.error(a.pos, f"{where}: unknown type {tname!r}")
            elif var not in vars:
                self.error(a.pos, f"{where}: type {tname!r} has no var {var!r}")

    def check_scenario(self, sc):
        if sc.steps < 0:
            self.error(sc.pos, "scenario: steps must be nonnegative")
        for c in sc.checks:
            self.check_expr(c.expr, {}, sc.pos, f"check {c.name!r}")


def resolve(model):
    """Resolve names, then build the model once if they all resolve.

    Returns a list of diagnostics; a declaration the engine rejects while
    building is one error diagnostic at its position.
    """
    diags = _Resolver(model).run()
    if not any(d.severity == ERROR for d in diags):
        try:
            model.build()
        except ParseError as e:
            diags.append(e.diag)
    return diags
