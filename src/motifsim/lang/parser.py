"""Tokenizer and recursive-descent parser for the modeling language.

`parse` is total: any input yields either a model that builds or one
error diagnostic, never a crash or a partial model.
"""

import re
from fractions import Fraction

from ..agents import DEFAULT_THRESHOLDS
from ..expr import (
    AddrRef, Binary, Distance, Empty, Lit, Member, Placed, Succ, Sym, Unary,
    VarRef,
)
from ..model import BoolDomain, EnumDomain, IntRange, RealRange, VarDecl
from ..rules import (
    Assign, Create, Delete, Exchange, Join, Leave, MapEdit, MigrateEffect,
    Move,
)
from ..rules import CONFIG, DYNAMICS, INTERACTION
from .syntax import (
    ERROR, AgentDef, CheckDef, CompDef, CtrlDef, Diagnostic, GoalDef,
    MapSpecDef, Model, MotifDef, ParseError, RuleDef, ScenarioDef, SensorDef,
    TransDef, TypeDef,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>:=|->|!=|<=|>=|[{}()\[\],;:.@=<>+\-*?/])
    """,
    re.VERBOSE,
)


class Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col


def tokenize(text):
    tokens = []
    pos = 0
    line = 1
    linestart = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(line, pos - linestart + 1,
                             f"unexpected character {text[pos]!r}")
        col = pos - linestart + 1
        kind = m.lastgroup
        lex = m.group()
        if kind == "number":
            value = Fraction(lex) if "." in lex else int(lex)
            tokens.append(Token("number", value, line, col))
        elif kind == "ident":
            tokens.append(Token("ident", lex, line, col))
        elif kind == "op":
            tokens.append(Token(lex, lex, line, col))
        nl = lex.count("\n")
        if nl:
            line += nl
            linestart = pos + lex.rfind("\n") + 1
        pos = m.end()
    tokens.append(Token("eof", None, line, pos - linestart + 1))
    return tokens


_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, k=0):
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def at(self, kind, value=None):
        t = self.peek()
        if t.kind != kind:
            return False
        return value is None or t.value == value

    def at_kw(self, *words):
        t = self.peek()
        return t.kind == "ident" and t.value in words

    def next(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, msg, tok=None):
        t = tok or self.peek()
        raise ParseError(t.line, t.col, msg)

    def expect(self, kind, value=None):
        t = self.peek()
        if t.kind != kind or (value is not None and t.value != value):
            want = value if value is not None else kind
            got = t.value if t.value is not None else t.kind
            self.fail(f"expected {want!r}, got {got!r}")
        return self.next()

    def expect_kw(self, word):
        t = self.peek()
        if t.kind != "ident" or t.value != word:
            got = t.value if t.value is not None else t.kind
            self.fail(f"expected {word!r}, got {got!r}")
        return self.next()

    def ident(self, what="identifier"):
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}")
        return self.next().value

    def number(self, integer=False):
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        t = self.expect("number")
        v = -t.value if neg else t.value
        if integer and not isinstance(v, int):
            self.fail("expected an integer", t)
        return v

    def node_id(self):
        t = self.peek()
        if t.kind == "number":
            return self.number(integer=True)
        return self.ident("node id")

    # -- model --------------------------------------------------------------

    def parse_model(self):
        model = Model()
        while not self.at("eof"):
            t = self.peek()
            if self.at_kw("type"):
                model.add(self.typedecl())
            elif self.at_kw("motif"):
                model.add(self.motifdecl())
            elif self.at_kw("component"):
                model.add(self.compdecl())
            elif self.at_kw("goal"):
                model.add(self.goaldecl())
            elif self.at_kw("agent"):
                model.add(self.agentdecl())
            elif self.at_kw("scenario"):
                model.add(self.scenariodecl())
            else:
                got = t.value if t.value is not None else t.kind
                self.fail(f"expected a declaration, got {got!r}")
        return model

    # -- types --------------------------------------------------------------

    def typedecl(self):
        pos = self.expect_kw("type")
        name = self.ident("type name")
        t = self.peek()
        if not self.at_kw("object", "agent"):
            self.fail("expected 'object' or 'agent'")
        kind = self.next().value
        self.expect("{")
        vardecls = []
        dynamics = []
        controller = None
        while not self.at("}"):
            if self.at_kw("var"):
                self.next()
                vname = self.ident("variable name")
                self.expect(":")
                vardecls.append(VarDecl(vname, self.domain()))
                self.expect(";")
            elif self.at_kw("dynamics"):
                self.next()
                self.expect("{")
                while not self.at("}"):
                    dynamics.append(self.ruledecl(DYNAMICS))
                self.expect("}")
            elif self.at_kw("controller"):
                controller = self.ctrlblock()
            else:
                self.fail("expected 'var', 'dynamics' or 'controller'")
        self.expect("}")
        return TypeDef(name, kind, vardecls, dynamics, controller,
                       pos=(pos.line, pos.col))

    def domain(self):
        if self.at_kw("bool"):
            self.next()
            return BoolDomain()
        if self.at_kw("int"):
            self.next()
            self.expect("[")
            lo = self.number(integer=True)
            self.expect(",")
            hi = self.number(integer=True)
            self.expect("]")
            try:
                return IntRange(lo, hi)
            except ValueError as e:
                self.fail(str(e))
        if self.at_kw("real"):
            self.next()
            self.expect("[")
            lo = self.number()
            self.expect(",")
            hi = self.number()
            self.expect("]")
            step = Fraction(1, 10)
            if self.at_kw("step"):
                self.next()
                step = self.number()
            try:
                return RealRange(lo, hi, step)
            except ValueError as e:
                self.fail(str(e))
        if self.at_kw("enum"):
            self.next()
            self.expect("{")
            values = [self.ident("enumeration value")]
            while self.at(","):
                self.next()
                values.append(self.ident("enumeration value"))
            self.expect("}")
            try:
                return EnumDomain(values)
            except ValueError as e:
                self.fail(str(e))
        self.fail("expected a domain (bool, int, real, enum)")

    def ctrlblock(self):
        self.expect_kw("controller")
        self.expect("{")
        self.expect_kw("modes")
        modes = [self.ident("mode name")]
        while self.at(","):
            self.next()
            modes.append(self.ident("mode name"))
        self.expect_kw("init")
        init = self.ident("initial mode")
        self.expect(";")
        transitions = []
        while self.at_kw("from"):
            pos = self.next()
            frm = self.ident("mode name")
            self.expect_kw("to")
            to = self.ident("mode name")
            params, guard, effects = self.rule_tail()
            transitions.append(TransDef(frm, to, params, guard, effects,
                                        pos=(pos.line, pos.col)))
        self.expect("}")
        return CtrlDef(modes, init, transitions)

    # -- rules --------------------------------------------------------------

    def ruledecl(self, kind=None):
        if kind is None:
            if self.at_kw("interaction"):
                self.next()
                kind = INTERACTION
            elif self.at_kw("config"):
                self.next()
                kind = CONFIG
            else:
                self.fail("expected 'interaction' or 'config'")
        pos = self.expect_kw("rule")
        name = self.ident("rule name")
        params, guard, effects = self.rule_tail()
        return RuleDef(kind, name, params, guard, effects, pos=(pos.line, pos.col))

    def rule_tail(self):
        from ..rules import Param
        params = []
        if self.at_kw("for"):
            self.next()
            while True:
                pname = self.ident("parameter name")
                required = True
                if self.at("?"):
                    self.next()
                    required = False
                self.expect(":")
                ptype = self.ident("type name")
                params.append(Param(pname, ptype, required))
                if not self.at(","):
                    break
                self.next()
        guard = None
        if self.at_kw("if"):
            self.next()
            guard = self.expr()
        effects = None
        if self.at_kw("then"):
            self.next()
            self.expect("{")
            effects = []
            while not self.at("}"):
                effects.append(self.effect())
            self.expect("}")
        if effects is None:
            effects = []
            self.expect(";")
        return params, guard, effects

    def effect(self):
        t = self.peek()
        if self.at("@"):
            self.next()
            self.expect("(")
            owner = self.ident()
            self.expect(")")
            self.expect(":=")
            e = self.expr()
            self.expect(";")
            return Move(owner, e)
        if self.at_kw("exchange"):
            self.next()
            self.expect("(")
            o1 = self.ident()
            self.expect(".")
            a1 = self.ident()
            self.expect(",")
            o2 = self.ident()
            self.expect(".")
            a2 = self.ident()
            self.expect(")")
            self.expect(";")
            return Exchange(o1, a1, o2, a2)
        if self.at_kw("create"):
            self.next()
            name = self.ident("fresh name")
            self.expect(":")
            tname = self.ident("type name")
            motif = None
            node = None
            inits = []
            if self.at_kw("in"):
                self.next()
                motif = self.ident("motif name")
            if self.at_kw("at"):
                self.next()
                node = self.expr()
            if self.at_kw("with"):
                self.next()
                self.expect("{")
                while not self.at("}"):
                    v = self.ident("variable name")
                    self.expect("=")
                    inits.append((v, self.expr()))
                    self.expect(";")
                self.expect("}")
            self.expect(";")
            return Create(name, tname, motif, node, inits)
        if self.at_kw("delete"):
            self.next()
            self.expect("(")
            owner = self.ident()
            self.expect(")")
            self.expect(";")
            return Delete(owner)
        if self.at_kw("join", "leave"):
            op = self.next().value
            self.expect("(")
            owner = self.ident()
            self.expect(",")
            motif = self.ident("motif name")
            self.expect(")")
            self.expect(";")
            return Join(owner, motif) if op == "join" else Leave(owner, motif)
        if self.at_kw("migrate"):
            self.next()
            self.expect("(")
            owner = self.ident()
            self.expect(",")
            src = self.ident("motif name")
            self.expect(",")
            dst = self.ident("motif name")
            node = None
            if self.at(","):
                self.next()
                node = self.expr()
            self.expect(")")
            self.expect(";")
            return MigrateEffect(owner, src, dst, node)
        if self.at_kw("addnode", "removenode", "addedge", "removeedge"):
            op = self.next().value
            self.expect("(")
            args = [self.expr()]
            while self.at(","):
                self.next()
                args.append(self.expr())
            self.expect(")")
            self.expect(";")
            want = {"addnode": (1,), "removenode": (1,), "addedge": (2, 3),
                    "removeedge": (2,)}[op]
            if len(args) not in want:
                self.fail(f"{op} takes {' or '.join(map(str, want))} arguments", t)
            return MapEdit(op, args)
        if self.at("ident") and self.peek(1).kind == ".":
            owner = self.ident()
            self.expect(".")
            attr = self.ident()
            self.expect(":=")
            e = self.expr()
            self.expect(";")
            return Assign(owner, attr, e)
        self.fail("expected a command effect")

    # -- expressions --------------------------------------------------------

    def expr(self):
        return self.or_expr()

    def or_expr(self):
        e = self.and_expr()
        while self.at_kw("or"):
            self.next()
            e = Binary("or", e, self.and_expr())
        return e

    def and_expr(self):
        e = self.not_expr()
        while self.at_kw("and"):
            self.next()
            e = Binary("and", e, self.not_expr())
        return e

    def not_expr(self):
        if self.at_kw("not"):
            self.next()
            return Unary("not", self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self):
        e = self.add_expr()
        t = self.peek()
        if t.kind in _CMP_OPS:
            self.next()
            return Binary(t.kind, e, self.add_expr())
        return e

    def add_expr(self):
        e = self.mul_expr()
        while self.at("+") or self.at("-"):
            op = self.next().kind
            e = Binary(op, e, self.mul_expr())
        return e

    def mul_expr(self):
        e = self.unary_expr()
        while self.at("*"):
            self.next()
            e = Binary("*", e, self.unary_expr())
        return e

    def unary_expr(self):
        if self.at("-"):
            self.next()
            return Unary("-", self.unary_expr())
        return self.primary()

    def primary(self):
        t = self.peek()
        if t.kind == "number":
            self.next()
            return Lit(t.value)
        if self.at("("):
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if self.at("@"):
            self.next()
            self.expect("(")
            owner = self.ident()
            motif = None
            if self.at(","):
                self.next()
                motif = self.ident("motif name")
            self.expect(")")
            return AddrRef(owner, motif)
        if t.kind != "ident":
            self.fail("expected an expression")
        if t.value == "true":
            self.next()
            return Lit(True)
        if t.value == "false":
            self.next()
            return Lit(False)
        if t.value in ("distance", "empty", "placed", "succ", "member"):
            fn = self.next().value
            self.expect("(")
            if fn == "distance":
                a = self.expr()
                self.expect(",")
                b = self.expr()
                motif = None
                if self.at(","):
                    self.next()
                    motif = self.ident("motif name")
                self.expect(")")
                return Distance(a, b, motif)
            if fn == "empty":
                e = self.expr()
                motif = None
                if self.at(","):
                    self.next()
                    motif = self.ident("motif name")
                self.expect(")")
                return Empty(e, motif)
            if fn == "succ":
                e = self.expr()
                motif = None
                if self.at(","):
                    self.next()
                    motif = self.ident("motif name")
                self.expect(")")
                return Succ(e, motif)
            if fn == "placed":
                owner = self.ident()
                motif = None
                if self.at(","):
                    self.next()
                    motif = self.ident("motif name")
                self.expect(")")
                return Placed(owner, motif)
            owner = self.ident()
            self.expect(",")
            motif = self.ident("motif name")
            self.expect(")")
            return Member(owner, motif)
        name = self.next().value
        if self.at(".") and self.peek(1).kind == "ident":
            self.next()
            attr = self.ident()
            return VarRef(name, attr)
        return Sym(name)

    # -- motifs -------------------------------------------------------------

    def motifdecl(self):
        pos = self.expect_kw("motif")
        name = self.ident("motif name")
        self.expect("{")
        self.expect_kw("map")
        mapspec = self.mapspec()
        self.expect(";")
        rules = []
        while not self.at("}"):
            rules.append(self.ruledecl())
        self.expect("}")
        return MotifDef(name, mapspec, rules, pos=(pos.line, pos.col))

    def mapspec(self):
        if self.at_kw("line", "ring"):
            kind = self.next().value
            self.expect("(")
            k = self.number(integer=True)
            self.expect(")")
            if k < 1:
                self.fail(f"{kind} needs at least one node")
            return MapSpecDef(kind, (k,))
        if self.at_kw("grid"):
            self.next()
            self.expect("(")
            w = self.number(integer=True)
            self.expect(",")
            h = self.number(integer=True)
            self.expect(")")
            if w < 1 or h < 1:
                self.fail("grid dimensions must be positive")
            return MapSpecDef("grid", (w, h))
        self.expect("{")
        self.expect_kw("nodes")
        nodes = [self.node_id()]
        while self.at(","):
            self.next()
            nodes.append(self.node_id())
        self.expect(";")
        edges = []
        if self.at_kw("edges"):
            self.next()
            while True:
                a = self.node_id()
                self.expect("->")
                b = self.node_id()
                w = 1
                if self.at(":"):
                    self.next()
                    w = self.number(integer=True)
                edges.append((a, b, w))
                if not self.at(","):
                    break
                self.next()
            self.expect(";")
        self.expect("}")
        return MapSpecDef("custom", nodes=nodes, edges=edges)

    # -- components ---------------------------------------------------------

    def compdecl(self):
        pos = self.expect_kw("component")
        cid = self.ident("component id")
        self.expect(":")
        tname = self.ident("type name")
        inits = []
        if self.at("{"):
            self.next()
            while not self.at("}"):
                v = self.ident("variable name")
                self.expect("=")
                inits.append((v, self.literal()))
                self.expect(";")
            self.expect("}")
        placements = []
        while self.at_kw("in"):
            self.next()
            motif = self.ident("motif name")
            node = None
            if self.at_kw("at"):
                self.next()
                node = self.node_id()
            placements.append((motif, node))
        self.expect(";")
        return CompDef(cid, tname, inits, placements, pos=(pos.line, pos.col))

    def literal(self):
        t = self.peek()
        if t.kind == "number" or self.at("-"):
            return self.number()
        if t.kind == "ident":
            if t.value == "true":
                self.next()
                return True
            if t.value == "false":
                self.next()
                return False
            return self.next().value
        self.fail("expected a literal value")

    # -- goals --------------------------------------------------------------

    def goaldecl(self):
        pos = self.expect_kw("goal")
        name = self.ident("goal name")
        if not self.at_kw("critical", "best_effort"):
            self.fail("expected 'critical' or 'best_effort'")
        crit = self.next().value
        if not self.at_kw("avoid", "reach", "utility"):
            self.fail("expected 'avoid', 'reach' or 'utility'")
        kind = self.next().value
        self.expect("(")
        expr = self.expr()
        self.expect(")")
        priority = 0
        if self.at_kw("priority"):
            self.next()
            priority = self.number(integer=True)
        self.expect(";")
        return GoalDef(name, crit, kind, expr, priority, pos=(pos.line, pos.col))

    # -- agents -------------------------------------------------------------

    def agentdecl(self):
        pos = self.expect_kw("agent")
        ego = self.ident("component id")
        self.expect("{")
        sensor = None
        goals = []
        horizon = 3
        recovery = None
        patterns = []
        thresholds = {}
        while not self.at("}"):
            if self.at_kw("sensor"):
                sensor = self.sensorblock()
            elif self.at_kw("goals"):
                self.next()
                goals.append(self.ident("goal name"))
                while self.at(","):
                    self.next()
                    goals.append(self.ident("goal name"))
                self.expect(";")
            elif self.at_kw("horizon"):
                self.next()
                horizon = self.number(integer=True)
                self.expect(";")
            elif self.at_kw("recovery"):
                self.next()
                recovery = self.ident("goal name")
                self.expect(";")
            elif self.at_kw("pattern"):
                self.next()
                patterns.append(self.ident("pattern name"))
                self.expect(";")
            elif self.at_kw("thresholds"):
                self.next()
                self.expect("{")
                while not self.at("}"):
                    key = self.ident("threshold name")
                    if key not in DEFAULT_THRESHOLDS:
                        self.fail(f"unknown threshold {key!r}")
                    thresholds[key] = self.number()
                    self.expect(";")
                self.expect("}")
            else:
                self.fail("expected an agent block item")
        self.expect("}")
        return AgentDef(ego, sensor, goals, horizon, recovery, patterns,
                        thresholds, pos=(pos.line, pos.col))

    def sensorblock(self):
        self.expect_kw("sensor")
        self.expect("{")
        sensor = SensorDef()
        see = []
        noise = []
        while not self.at("}"):
            if self.at_kw("motif"):
                self.next()
                sensor.motif = self.ident("motif name")
                self.expect(";")
            elif self.at_kw("radius"):
                self.next()
                if self.at_kw("inf"):
                    self.next()
                    sensor.radius = "inf"
                else:
                    sensor.radius = self.number(integer=True)
                self.expect(";")
            elif self.at_kw("see"):
                self.next()
                tname = self.ident("type name")
                attrs = None
                if self.at("["):
                    self.next()
                    attrs = []
                    while not self.at("]"):
                        attrs.append(self.ident("variable name"))
                        if self.at(","):
                            self.next()
                    self.expect("]")
                see.append((tname, attrs))
                self.expect(";")
            elif self.at_kw("identity"):
                self.next()
                if not self.at_kw("on", "off"):
                    self.fail("expected 'on' or 'off'")
                sensor.identity = self.next().value == "on"
                self.expect(";")
            elif self.at_kw("noise"):
                self.next()
                tname = self.ident("type name")
                self.expect(".")
                var = self.ident("variable name")
                sd = self.number()
                noise.append((tname, var, Fraction(sd)))
                self.expect(";")
            elif self.at_kw("detect"):
                self.next()
                sensor.detect = Fraction(self.number())
                self.expect(";")
            else:
                self.fail("expected a sensor item")
        self.expect("}")
        sensor.see = see
        sensor.noise = noise
        return sensor

    # -- scenario -----------------------------------------------------------

    def scenariodecl(self):
        pos = self.expect_kw("scenario")
        self.expect("{")
        sc = ScenarioDef(pos=(pos.line, pos.col))
        checks = []
        while not self.at("}"):
            if self.at_kw("steps"):
                self.next()
                sc.steps = self.number(integer=True)
                self.expect(";")
            elif self.at_kw("seed"):
                self.next()
                sc.seed = self.number(integer=True)
                self.expect(";")
            elif self.at_kw("policy"):
                self.next()
                if self.at_kw("script"):
                    self.next()
                    sc.policy = "script"
                    self.expect("(")
                    script = []
                    while not self.at(")"):
                        name = self.ident("rule name")
                        if self.at("/"):  # <motif>/<rule>
                            self.next()
                            name += "/" + self.ident("rule name")
                        script.append(name)
                        if self.at(","):
                            self.next()
                    self.expect(")")
                    sc.script = script
                elif self.at_kw("random", "round_robin"):
                    sc.policy = self.next().value
                else:
                    self.fail("expected a scheduler policy")
                self.expect(";")
            elif self.at_kw("check"):
                pos = self.next()
                name = self.ident("check name")
                if not self.at_kw("always", "finally"):
                    self.fail("expected 'always' or 'finally'")
                when = self.next().value
                self.expect("(")
                expr = self.expr()
                self.expect(")")
                self.expect(";")
                checks.append(CheckDef(name, when, expr, pos=(pos.line, pos.col)))
            else:
                self.fail("expected a scenario item")
        self.expect("}")
        sc.checks = checks
        return sc


def parse(text):
    """Parse model text, then build it once.

    Returns `(model, diagnostics)`: a model that builds and no
    diagnostics, or None and one error diagnostic, for the first syntax
    error or else the first declaration, in build order, that
    `Model.build` rejects.
    """
    try:
        model = Parser(text).parse_model()
        model.build()
    except ParseError as e:
        return None, [e.diag]
    except RecursionError:
        return None, [Diagnostic(ERROR, 1, 1, "input nests too deeply")]
    return model, []
