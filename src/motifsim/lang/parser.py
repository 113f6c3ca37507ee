"""Tokenizer and recursive-descent parser for the modeling language.

`parse` is total: any input yields either a model that builds or one
error diagnostic, never a crash or a partial model.

Each token idiom of the grammar has one `Parser` helper: `accept` and
`accept_kw` take an optional token, `one_of` a required keyword,
`listed` a comma-separated list of one or more items, `motif_tail` a
builtin's optional `, motif` and closing `)`, and `inits` a
`{ var = value; ... }` block.
"""

import re
from fractions import Fraction

from ..agents import DEFAULT_THRESHOLDS
from ..expr import (
    BINARY, OPERAND, PREFIX, AddrRef, Binary, Distance, Empty, Lit, Member,
    Placed, Succ, Sym, Unary, VarRef, left_level,
)
from ..model import BoolDomain, EnumDomain, IntRange, RealRange, VarDecl
from ..rules import (
    CONFIG, DYNAMICS, INTERACTION, Assign, Create, Delete, Exchange, Join,
    Leave, MapEdit, MigrateEffect, Move, Param,
)
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


#: The builtins over node expressions, with an optional motif.
_NODE_FNS = {"distance": Distance, "empty": Empty, "succ": Succ}

#: The argument counts of each map edit.
_MAP_EDITS = {"addnode": (1,), "removenode": (1,), "addedge": (2, 3),
              "removeedge": (2,)}


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, k=0):
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    # `self.i` never passes the final eof token, so `self.tokens[self.i]`
    # is `self.peek()`, without the call

    def at(self, kind):
        return self.tokens[self.i].kind == kind

    def at_kw(self, *words):
        t = self.tokens[self.i]
        return t.kind == "ident" and t.value in words

    def next(self):
        t = self.tokens[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind):
        """The next token, consumed, if it is of `kind`; else None."""
        return self.next() if self.tokens[self.i].kind == kind else None

    def accept_kw(self, *words):
        """The next token, consumed, if it is one of the keywords `words`;
        else None."""
        t = self.tokens[self.i]
        return self.next() if t.kind == "ident" and t.value in words else None

    def fail(self, msg, tok=None):
        t = tok or self.peek()
        raise ParseError(t.line, t.col, msg)

    def expected(self, what):
        """Fail at the next token, where `what` was expected."""
        t = self.peek()
        got = t.value if t.value is not None else t.kind
        self.fail(f"expected {what}, got {got!r}")

    def expect(self, kind):
        if self.tokens[self.i].kind != kind:
            self.expected(repr(kind))
        return self.next()

    def expect_kw(self, word):
        if not self.at_kw(word):
            self.expected(repr(word))
        return self.next()

    def one_of(self, *words):
        """The next token's text, consumed; it must be one of the keywords
        `words`."""
        t = self.accept_kw(*words)
        if t is None:
            quoted = [repr(w) for w in words]
            self.fail(f"expected {', '.join(quoted[:-1])} or {quoted[-1]}")
        return t.value

    def ident(self, what="identifier"):
        if self.tokens[self.i].kind != "ident":
            self.fail(f"expected {what}")
        return self.next().value

    def number(self, integer=False):
        neg = self.accept("-")
        t = self.expect("number")
        v = -t.value if neg else t.value
        if integer and not isinstance(v, int):
            self.fail("expected an integer", t)
        return v

    def node_id(self):
        if self.at("number"):
            return self.number(integer=True)
        return self.ident("node id")

    def listed(self, item, *args):
        """One or more `item(*args)`, separated by commas."""
        items = [item(*args)]
        while self.accept(","):
            items.append(item(*args))
        return items

    def motif_tail(self):
        """A builtin's optional `, motif` and its closing `)`: the motif
        name, or None."""
        motif = self.ident("motif name") if self.accept(",") else None
        self.expect(")")
        return motif

    def inits(self, value):
        """A `{ var = value; ... }` block: its (var, value) pairs."""
        self.expect("{")
        inits = []
        while not self.at("}"):
            var = self.ident("variable name")
            self.expect("=")
            inits.append((var, value()))
            self.expect(";")
        self.expect("}")
        return inits

    # -- model --------------------------------------------------------------

    def parse_model(self):
        decls = {"type": self.typedecl, "motif": self.motifdecl,
                 "component": self.compdecl, "goal": self.goaldecl,
                 "agent": self.agentdecl, "scenario": self.scenariodecl}
        model = Model()
        while not self.at("eof"):
            t = self.peek()
            if t.kind != "ident" or t.value not in decls:
                self.expected("a declaration")
            model.add(decls[t.value]())
        return model

    # -- types --------------------------------------------------------------

    def typedecl(self):
        pos = self.expect_kw("type")
        name = self.ident("type name")
        kind = self.one_of("object", "agent")
        self.expect("{")
        vardecls = []
        dynamics = []
        controller = None
        while not self.at("}"):
            if self.accept_kw("var"):
                vname = self.ident("variable name")
                self.expect(":")
                vardecls.append(VarDecl(vname, self.domain()))
                self.expect(";")
            elif self.accept_kw("dynamics"):
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
        if self.accept_kw("bool"):
            return BoolDomain()
        try:
            if self.accept_kw("int"):
                return IntRange(*self.bounds(integer=True))
            if self.accept_kw("real"):
                lo, hi = self.bounds()
                step = self.number() if self.accept_kw("step") else Fraction(1, 10)
                return RealRange(lo, hi, step)
            if self.accept_kw("enum"):
                self.expect("{")
                values = self.listed(self.ident, "enumeration value")
                self.expect("}")
                return EnumDomain(values)
        except ValueError as e:  # the domain's own check
            self.fail(str(e))
        self.fail("expected a domain (bool, int, real, enum)")

    def bounds(self, integer=False):
        self.expect("[")
        lo = self.number(integer)
        self.expect(",")
        hi = self.number(integer)
        self.expect("]")
        return lo, hi

    def ctrlblock(self):
        self.expect_kw("controller")
        self.expect("{")
        self.expect_kw("modes")
        modes = self.listed(self.ident, "mode name")
        self.expect_kw("init")
        init = self.ident("initial mode")
        self.expect(";")
        transitions = []
        while pos := self.accept_kw("from"):
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
        kind = kind or self.one_of(INTERACTION, CONFIG)  # keyword = kind
        pos = self.expect_kw("rule")
        name = self.ident("rule name")
        params, guard, effects = self.rule_tail()
        return RuleDef(kind, name, params, guard, effects, pos=(pos.line, pos.col))

    def rule_tail(self):
        params = self.listed(self.param) if self.accept_kw("for") else []
        guard = self.expr() if self.accept_kw("if") else None
        effects = []
        if self.accept_kw("then"):
            self.expect("{")
            while not self.at("}"):
                effects.append(self.effect())
            self.expect("}")
        else:
            self.expect(";")
        return params, guard, effects

    def param(self):
        name = self.ident("parameter name")
        required = not self.accept("?")
        self.expect(":")
        return Param(name, self.ident("type name"), required)

    def effect(self):
        t = self.peek()
        if self.accept("@"):
            self.expect("(")
            owner = self.ident()
            self.expect(")")
            self.expect(":=")
            e = Move(owner, self.expr())
        elif self.accept_kw("exchange"):
            self.expect("(")
            o1 = self.ident()
            self.expect(".")
            a1 = self.ident()
            self.expect(",")
            o2 = self.ident()
            self.expect(".")
            a2 = self.ident()
            self.expect(")")
            e = Exchange(o1, a1, o2, a2)
        elif self.accept_kw("create"):
            name = self.ident("fresh name")
            self.expect(":")
            tname = self.ident("type name")
            motif = self.ident("motif name") if self.accept_kw("in") else None
            node = self.expr() if self.accept_kw("at") else None
            inits = self.inits(self.expr) if self.accept_kw("with") else []
            e = Create(name, tname, motif, node, inits)
        elif self.accept_kw("delete"):
            self.expect("(")
            e = Delete(self.ident())
            self.expect(")")
        elif self.at_kw("join", "leave"):
            op = self.next().value
            self.expect("(")
            owner = self.ident()
            self.expect(",")
            motif = self.ident("motif name")
            self.expect(")")
            e = Join(owner, motif) if op == "join" else Leave(owner, motif)
        elif self.accept_kw("migrate"):
            self.expect("(")
            owner = self.ident()
            self.expect(",")
            src = self.ident("motif name")
            self.expect(",")
            dst = self.ident("motif name")
            node = self.expr() if self.accept(",") else None
            self.expect(")")
            e = MigrateEffect(owner, src, dst, node)
        elif self.at_kw(*_MAP_EDITS):
            op = self.next().value
            self.expect("(")
            e = MapEdit(op, self.listed(self.expr))
            self.expect(")")
        elif self.at("ident") and self.peek(1).kind == ".":
            owner = self.ident()
            self.expect(".")
            attr = self.ident()
            self.expect(":=")
            e = Assign(owner, attr, self.expr())
        else:
            self.fail("expected a command effect")
        self.expect(";")
        if isinstance(e, MapEdit) and len(e.args) not in _MAP_EDITS[e.op]:
            want = " or ".join(map(str, _MAP_EDITS[e.op]))
            self.fail(f"{e.op} takes {want} arguments", t)
        return e

    # -- expressions --------------------------------------------------------

    def expr(self, level=1):
        """An expression binding at `level` or tighter, by precedence
        climbing (Pratt, POPL 1973) over the operator table in `expr.py`,
        which the printer reads too.

        `held` is the level of the left operand as written, so a
        parenthesized expression is an operand.  A binary operator is
        taken while it binds at `level` or tighter and `held` reaches its
        `left_level`, so comparisons do not chain; its right operand binds
        one level tighter, so the trees lean left.  `not` is an operator
        only where an expression of its level may start; elsewhere it is a
        name (`a.x = not`).
        """
        # a token's value is its text for an operator or an identifier
        op = self.tokens[self.i].value
        if PREFIX.get(op, 0) >= level:
            self.next()
            held = PREFIX[op]
            e = Unary(op, self.expr(held))
        else:
            e, held = self.primary(), OPERAND
        while True:
            op = self.tokens[self.i].value
            if BINARY.get(op, 0) < level or left_level(op) > held:
                return e
            self.next()
            held = BINARY[op]
            e = Binary(op, e, self.expr(held + 1))

    def primary(self):
        t = self.peek()
        if self.accept("number"):
            return Lit(t.value)
        if self.accept("("):
            e = self.expr()
            self.expect(")")
            return e
        if self.accept("@"):
            self.expect("(")
            return AddrRef(self.ident(), self.motif_tail())
        if t.kind != "ident":
            self.fail("expected an expression")
        self.next()
        if t.value in ("true", "false"):
            return Lit(t.value == "true")
        if t.value in _NODE_FNS:
            self.expect("(")
            args = [self.expr()]
            if t.value == "distance":
                self.expect(",")
                args.append(self.expr())
            return _NODE_FNS[t.value](*args, self.motif_tail())
        if t.value in ("placed", "member"):
            self.expect("(")
            owner = self.ident()
            if t.value == "member" and not self.at(","):
                self.expect(",")  # a member test always names its motif
            motif = self.motif_tail()
            return Placed(owner, motif) if t.value == "placed" else Member(owner, motif)
        if self.at(".") and self.peek(1).kind == "ident":
            self.next()
            return VarRef(t.value, self.ident())
        return Sym(t.value)

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
        if self.accept_kw("grid"):
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
        nodes = self.listed(self.node_id)
        self.expect(";")
        edges = []
        if self.accept_kw("edges"):
            edges = self.listed(self.edge)
            self.expect(";")
        self.expect("}")
        return MapSpecDef("custom", nodes=nodes, edges=edges)

    def edge(self):
        a = self.node_id()
        self.expect("->")
        b = self.node_id()
        w = self.number(integer=True) if self.accept(":") else 1
        return a, b, w

    # -- components ---------------------------------------------------------

    def compdecl(self):
        pos = self.expect_kw("component")
        cid = self.ident("component id")
        self.expect(":")
        tname = self.ident("type name")
        inits = self.inits(self.literal) if self.at("{") else []
        placements = []
        while self.accept_kw("in"):
            motif = self.ident("motif name")
            node = self.node_id() if self.accept_kw("at") else None
            placements.append((motif, node))
        self.expect(";")
        return CompDef(cid, tname, inits, placements, pos=(pos.line, pos.col))

    def literal(self):
        t = self.peek()
        if t.kind == "number" or self.at("-"):
            return self.number()
        if self.accept("ident"):
            if t.value in ("true", "false"):
                return t.value == "true"
            return t.value
        self.fail("expected a literal value")

    # -- goals --------------------------------------------------------------

    def goaldecl(self):
        pos = self.expect_kw("goal")
        name = self.ident("goal name")
        crit = self.one_of("critical", "best_effort")
        kind = self.one_of("avoid", "reach", "utility")
        self.expect("(")
        expr = self.expr()
        self.expect(")")
        priority = self.number(integer=True) if self.accept_kw("priority") else 0
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
            elif self.accept_kw("goals"):
                goals += self.listed(self.ident, "goal name")
                self.expect(";")
            elif self.accept_kw("horizon"):
                horizon = self.number(integer=True)
                self.expect(";")
            elif self.accept_kw("recovery"):
                recovery = self.ident("goal name")
                self.expect(";")
            elif self.accept_kw("pattern"):
                patterns.append(self.ident("pattern name"))
                self.expect(";")
            elif self.accept_kw("thresholds"):
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
            if self.accept_kw("motif"):
                sensor.motif = self.ident("motif name")
            elif self.accept_kw("radius"):
                sensor.radius = ("inf" if self.accept_kw("inf")
                                 else self.number(integer=True))
            elif self.accept_kw("see"):
                tname = self.ident("type name")
                attrs = None
                if self.accept("["):
                    attrs = [] if self.at("]") else self.listed(
                        self.ident, "variable name")
                    self.expect("]")
                see.append((tname, attrs))
            elif self.accept_kw("identity"):
                sensor.identity = self.one_of("on", "off") == "on"
            elif self.accept_kw("noise"):
                tname = self.ident("type name")
                self.expect(".")
                var = self.ident("variable name")
                noise.append((tname, var, Fraction(self.number())))
            elif self.accept_kw("detect"):
                sensor.detect = Fraction(self.number())
            else:
                self.fail("expected a sensor item")
            self.expect(";")
        self.expect("}")
        sensor.see = see
        sensor.noise = noise
        return sensor

    # -- scenario -----------------------------------------------------------

    def scripted(self):
        """A scripted rule name: `rule` or `<motif>/<rule>`."""
        name = self.ident("rule name")
        if self.accept("/"):
            name += "/" + self.ident("rule name")
        return name

    def scenariodecl(self):
        pos = self.expect_kw("scenario")
        self.expect("{")
        sc = ScenarioDef(pos=(pos.line, pos.col))
        checks = []
        while not self.at("}"):
            if self.accept_kw("steps"):
                sc.steps = self.number(integer=True)
            elif self.accept_kw("seed"):
                sc.seed = self.number(integer=True)
            elif self.accept_kw("policy"):
                if self.accept_kw("script"):
                    sc.policy = "script"
                    self.expect("(")
                    sc.script = [] if self.at(")") else self.listed(self.scripted)
                    self.expect(")")
                elif self.at_kw("random", "round_robin"):
                    sc.policy = self.next().value
                else:
                    self.fail("expected a scheduler policy")
            elif pos := self.accept_kw("check"):
                name = self.ident("check name")
                when = self.one_of("always", "finally")
                self.expect("(")
                expr = self.expr()
                self.expect(")")
                checks.append(CheckDef(name, when, expr, pos=(pos.line, pos.col)))
            else:
                self.fail("expected a scenario item")
            self.expect(";")
        self.expect("}")
        sc.checks = checks
        return sc


def load(text):
    """Parse model text, then build it once.

    Returns `(system, diagnostics)`: the built `System` and no
    diagnostics, or None and one error diagnostic, for the first syntax
    error or else the first declaration, in build order, that
    `Model.build` rejects.
    """
    try:
        system = Parser(text).parse_model().build()
    except ParseError as e:
        return None, [e.diag]
    except RecursionError:
        return None, [Diagnostic(ERROR, 1, 1, "input nests too deeply")]
    return system, []


def parse(text):
    """`load`, returning `(model, diagnostics)`: the model that built, or
    None and the diagnostic."""
    system, diags = load(text)
    return (None if system is None else system.model), diags
