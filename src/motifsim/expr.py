"""Expression trees for rule guards, goal predicates and commands.

Expressions are compiled once into nested closures evaluated against a
`Ctx` (configuration, current motif, parameter binding).  The walk that
compiles an expression also gives it a static type: a bool, an int, a
real, a node (`@` and `succ`), a symbol (a bare name: an enum value, a
mode or a node name) or a value of an enum domain.  A var has its
domain's type (`static`); `distance` is a real, since it may be
`UNREACHABLE`.  Compiling resolves every name through one `Scope`,
which also checks the names and the types when it is given a
configuration: `Model.build` compiles each rule, goal and check that
way, so a name that denotes nothing and an ill-typed expression are
build errors, and no closure tests a type as it runs.  Two partiality
conventions keep guards total:

- an undefined address (`UNDEF`) makes any comparison false; no
  arithmetic takes a node;
- a reference to an unbound optional parameter makes the enclosing
  boolean atom false.
"""

from fractions import Fraction

from .errors import EvalError
from .model import UNREACHABLE


class _Undefined:
    __slots__ = ()


#: The value of an undefined address lookup.
UNDEF = _Undefined()


class UnboundParam(Exception):
    """An optional rule parameter was left unbound."""


#: The static types.  A var's is its domain's `static`, one of the first
#: three or `ENUM`: the values of every enum domain are one type, and a
#: domain's own values are checked as a value is written (`canon`).
BOOL, INT, REAL, ENUM, NODE, SYMBOL = "bool", "int", "real", "enum", "node", "symbol"
NUMBER = (INT, REAL)
#: The types of a node position: a map node is an int or a str.
PLACE = (INT, NODE, SYMBOL)
#: The pairs of types `=` and `!=` compare, besides two of one type.
_EQUAL = {frozenset(p) for p in (NUMBER, (INT, NODE), (REAL, NODE), (NODE, SYMBOL),
                                  (SYMBOL, ENUM))}


def _a(t):
    """The static type `t` with its article, for a message."""
    return ("an " if t[0] in "aeiou" else "a ") + t


class Ctx:
    __slots__ = ("cfg", "motif", "binding")

    def __init__(self, cfg, motif=None, binding=None):
        self.cfg = cfg
        self.motif = motif
        self.binding = binding if binding is not None else {}


def fmt_num(v):
    """Canonical text for a numeric literal."""
    if v.__class__ is bool:
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    f = Fraction(v)
    if f.denominator == 1:
        return f"{f.numerator}.0"
    # decimal expansion when the denominator divides a power of ten, the
    # power being the larger count of its factors 2 and 5
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den == 1:
        digits = max(twos, fives)
        scaled = f * 10**digits
        sign = "-" if scaled < 0 else ""
        n = abs(int(scaled))
        whole, frac = divmod(n, 10**digits)
        return f"{sign}{whole}.{str(frac).rjust(digits, '0')}"
    return f"{f.numerator}/{f.denominator}"


class Expr:
    """An expression; each kind gives its text, `unparse()`, and its
    closure and static type, `_compile(scope)`."""

    __slots__ = ()

    def compile(self, scope, types=None):
        """Return a closure `f(ctx) -> value` over the names `scope` gives
        meaning to: a `Scope`, or a set of names bound through the rule
        binding, which checks nothing.  With `types`, a checking `Scope`
        also rejects a static type not in `types`."""
        if not isinstance(scope, Scope):
            scope = Scope(dict.fromkeys(scope))
        return scope.want(self, types)[0]


class Scope:
    """What the names of one guard, goal, check or rule body denote, and
    the types its expressions must have.

    A name in `bound` (a rule parameter, or the name an earlier `create`
    of the same rule body bound) resolves through the rule binding; any
    other owner is a component id.  With a configuration `cfg`, each name
    is checked against it as it is compiled, and one that denotes nothing
    raises `ValueError`: an undeclared owner, var, motif or type, a write
    outside `self` when `self_only`, a `create` that shadows a bound
    name, or a map lookup that names no motif where no name is bound
    (`lookup`).  So is an expression of a static type its place does not
    take (`want`, `equal` and `store`).  Without one nothing is checked.
    The bound names that `owner` and `component` resolve are kept in
    `resolved`: the names the compiled closures read from the rule
    binding.
    """

    __slots__ = ("bound", "cfg", "self_only", "resolved")

    def __init__(self, bound=(), cfg=None, self_only=False):
        self.bound = dict(bound)  # name -> type name
        self.cfg = cfg
        self.self_only = self_only
        self.resolved = set()
        for tname in self.bound.values():
            self.type(tname)

    def type(self, tname):
        if self.cfg is not None and tname not in self.cfg.types:
            raise ValueError(f"unknown type {tname!r}")

    def var(self, tname, attr):
        """The domain of the var `attr` of type `tname`, checked; None
        without a configuration."""
        if self.cfg is not None and attr not in self.cfg.types[tname].vars:
            raise ValueError(f"type {tname!r} has no var {attr!r}")
        return None if self.cfg is None else self.cfg.types[tname].vars[attr].domain

    def motif(self, mid):
        if mid is not None and self.cfg is not None and mid not in self.cfg.motifs:
            raise ValueError(f"unknown motif {mid!r}")
        return mid

    def lookup(self, e):
        """The motif of the map lookup `e` (`@`, `placed`, `empty`,
        `distance` or `succ`).  Only a rule runs in a motif: every rule
        binds `self` or a required participant, so a scope that binds no
        name is a goal's or a check's, and each of its lookups must name
        its motif."""
        if e.motif is None and self.cfg is not None and not self.bound:
            raise ValueError(f"map lookup {e.unparse()} names no motif")
        return self.motif(e.motif)

    def bind(self, name, tname):
        """Bind the name a `create` gives its component, for the effects
        after it."""
        if self.cfg is not None and name in self.bound:
            raise ValueError(f"create shadows {name!r}")
        self.bound[name] = tname

    def domain(self, name, attr=None, write=False):
        """Check the owner `name`, its var `attr` if given, and a `write`;
        the var's domain, or None."""
        if self.cfg is None:
            return None
        if name in self.bound:
            tname = self.bound[name]
        elif name in self.cfg.components:
            tname = self.cfg.components[name].type.name
        else:
            raise ValueError(f"undeclared name {name!r}")
        domain = None if attr is None else self.var(tname, attr)
        if write and self.self_only and name != "self":
            raise ValueError("may only modify 'self'")
        return domain

    def want(self, e, types):
        """`e`'s closure and static type; with `types`, reject a type not
        in `types`."""
        f, t = e._compile(self)
        if types and self.cfg is not None and t not in types:
            raise ValueError(f"{e.unparse()} is {_a(t)}, not {' or '.join(map(_a, types))}")
        return f, t

    def equal(self, e, tl, tr):
        """Reject the `=` or `!=` `e` between static types `tl` and `tr`
        unless they are one type or a pair in `_EQUAL`, and a symbol
        compared with an enum var that is none of its domain's values."""
        if self.cfg is None or tl == tr:
            return
        if frozenset((tl, tr)) not in _EQUAL:
            raise ValueError(f"{e.unparse()} compares {_a(tl)} with {_a(tr)}")
        if ENUM in (tl, tr):  # only a var is an enum
            var, sym = (e.l, e.r) if tl == ENUM else (e.r, e.l)
            self.admit(self.domain(var.owner, var.attr), var.unparse(), sym, SYMBOL)

    def admit(self, domain, target, e, t):
        """Reject `e`, of static type `t`, as a value of `target`, a var of
        `domain`, unless the domain has a value of that type.  A bool var
        takes a bool, an int or real var an int or a real, and an enum var
        an enum or a symbol that is one of its values."""
        d = None if domain is None else domain.static
        if d and t != d and {t, d} != {INT, REAL} and not (
                t == SYMBOL and d == ENUM and e.name in domain.values):
            raise ValueError(f"{e.unparse()} is {_a(t)}, not a value of {target}")

    def store(self, domain, target, e):
        """The closure of `e`, the value an effect writes to `target`, a
        var of `domain` (`admit`)."""
        f, t = e._compile(self)
        self.admit(domain, target, e, t)
        return f

    def owner(self, name, attr=None, write=False):
        """Closure producing the id of the component an owner name
        denotes; `attr` is the var it reads or writes."""
        self.domain(name, attr, write)
        if name in self.bound:
            self.resolved.add(name)

            def get(ctx):
                cid = ctx.binding.get(name)
                if cid is None:
                    raise UnboundParam(name)
                return cid
            return get
        return lambda ctx: name

    def component(self, name, attr):
        """Closure producing the component instance whose var `attr` an
        owner name reads, and the var's static type (None unchecked)."""
        domain = self.domain(name, attr)
        t = None if domain is None else domain.static
        if name in self.bound:
            self.resolved.add(name)

            def get(ctx):
                cid = ctx.binding.get(name)
                if cid is None:
                    raise UnboundParam(name)
                comp = ctx.cfg.components.get(cid)
                if comp is None:
                    raise EvalError(f"parameter {name!r} bound to deleted component {cid!r}")
                return comp
            return get, t

        def get(ctx):
            comp = ctx.cfg.components.get(name)
            if comp is None:
                raise UnboundParam(name)
            return comp
        return get, t


def _call(name, args, motif):
    """The text `name(args)` of a map lookup, its motif last if named."""
    if motif is not None:
        args = [*args, motif]
    return f"{name}({', '.join(args)})"


def _motif_of(ctx, motif_name):
    if motif_name is not None:
        return ctx.cfg.motif(motif_name)
    if ctx.motif is None:
        raise EvalError("no motif context for map lookup")
    # the motif object may have been replaced on a clone; refetch by id
    return ctx.cfg.motif(ctx.motif.id)


class Lit(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def unparse(self):
        return fmt_num(self.value)

    def _compile(self, scope):
        v = self.value
        t = BOOL if v.__class__ is bool else INT if v.__class__ is int else REAL
        return (lambda ctx: v), t


class Sym(Expr):
    """A bare identifier: enumeration value, mode name, or node name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def unparse(self):
        return self.name

    def _compile(self, scope):
        n = self.name
        return (lambda ctx: n), SYMBOL


class VarRef(Expr):
    __slots__ = ("owner", "attr")

    def __init__(self, owner, attr):
        self.owner = owner
        self.attr = attr

    def unparse(self):
        return f"{self.owner}.{self.attr}"

    def _compile(self, scope):
        get, t = scope.component(self.owner, self.attr)
        attr = self.attr

        def run(ctx):
            comp = get(ctx)
            try:
                return comp.state[attr]
            except KeyError:
                raise EvalError(f"type {comp.type.name!r} has no var {attr!r}")
        return run, t


class AddrRef(Expr):
    __slots__ = ("owner", "motif")

    def __init__(self, owner, motif=None):
        self.owner = owner
        self.motif = motif

    def unparse(self):
        return _call("@", [self.owner], self.motif)

    def _compile(self, scope):
        get = scope.owner(self.owner)
        motif = scope.lookup(self)

        def run(ctx):
            cid = get(ctx)
            mid = motif if motif is not None else (
                ctx.motif.id if ctx.motif is not None else None)
            if mid is None:
                raise EvalError("no motif context for address lookup")
            n = ctx.cfg.addresses.get((cid, mid))
            return UNDEF if n is None else n
        return run, NODE


class Placed(AddrRef):
    """True iff the owner has an address: the lookup of `@` as a test."""

    __slots__ = ()

    def unparse(self):
        return _call("placed", [self.owner], self.motif)

    def _compile(self, scope):
        addr, _ = super()._compile(scope)

        def run(ctx):
            try:
                return addr(ctx) is not UNDEF
            except UnboundParam:
                return False
        return run, BOOL


class Member(Expr):
    __slots__ = ("owner", "motif")

    def __init__(self, owner, motif):
        self.owner = owner
        self.motif = motif

    def unparse(self):
        return f"member({self.owner}, {self.motif})"

    def _compile(self, scope):
        get = scope.owner(self.owner)
        motif = scope.motif(self.motif)

        def run(ctx):
            try:
                cid = get(ctx)
            except UnboundParam:
                return False
            return cid in ctx.cfg.motif(motif).members
        return run, BOOL


class Empty(Expr):
    """True iff the argument is an existing node with no occupant."""

    __slots__ = ("node", "motif")

    def __init__(self, node, motif=None):
        self.node = node
        self.motif = motif

    def unparse(self):
        return _call("empty", [self.node.unparse()], self.motif)

    def _compile(self, scope):
        node = self.node.compile(scope, PLACE)
        motif = scope.lookup(self)

        def run(ctx):
            try:
                n = node(ctx)
            except UnboundParam:
                return False
            if n is UNDEF:
                return False
            m = _motif_of(ctx, motif)
            if n not in m.map.nodes:
                return False
            addrs = ctx.cfg.addresses
            mid = m.id
            for cid in m.members:
                if addrs.get((cid, mid)) == n:
                    return False
            return True
        return run, BOOL


class Distance(Expr):
    __slots__ = ("a", "b", "motif")

    def __init__(self, a, b, motif=None):
        self.a = a
        self.b = b
        self.motif = motif

    def unparse(self):
        return _call("distance", [self.a.unparse(), self.b.unparse()], self.motif)

    def _compile(self, scope):
        fa = self.a.compile(scope, PLACE)
        fb = self.b.compile(scope, PLACE)
        motif = scope.lookup(self)

        def run(ctx):
            a = fa(ctx)
            b = fb(ctx)
            if a is UNDEF or b is UNDEF:
                raise EvalError("distance over an undefined address")
            return _motif_of(ctx, motif).map.distance(a, b)
        return run, REAL


class Succ(Expr):
    """The unique out-neighbor of a node on the motif's map."""

    __slots__ = ("node", "motif")

    def __init__(self, node, motif=None):
        self.node = node
        self.motif = motif

    def unparse(self):
        return _call("succ", [self.node.unparse()], self.motif)

    def _compile(self, scope):
        node = self.node.compile(scope, PLACE)
        motif = scope.lookup(self)

        def run(ctx):
            n = node(ctx)
            if n is UNDEF:
                raise EvalError("succ of an undefined address")
            m = _motif_of(ctx, motif)
            if n not in m.map.nodes:
                raise EvalError(f"succ of non-node {n!r}")
            s = m.map.succ(n)
            return UNDEF if s is None else s
        return run, NODE


_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
}

#: The operator table, which both the parser and the printer read: the
#: level each operator binds at, loosest first, with an operand at
#: `OPERAND`.  `and` and `or` chain on either side, `+ - *` chain to the
#: left, and a comparison does not chain: `a = b = c` is no expression.
BINARY = {"or": 1, "and": 2, "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
          "+": 5, "-": 5, "*": 6}
PREFIX = {"not": 3, "-": 7}
OPERAND = 8


def left_level(op):
    """The level the left operand of the binary operator `op` must bind
    at: its own if it chains, one more if it does not."""
    return BINARY[op] + (op in _CMP)


def _level(e):
    """The level the printed text of `e` binds at."""
    if isinstance(e, Binary):
        return BINARY[e.op]
    if isinstance(e, Unary):
        return PREFIX[e.op]
    return OPERAND


class Binary(Expr):
    """`l op r`.  Printing puts an operand in parentheses where it binds
    looser than its place needs: the left one below `left_level(op)`, the
    right one below the next level, or below `op`'s own for `and` and
    `or`, which chain on the right too."""

    __slots__ = ("op", "l", "r")

    def __init__(self, op, l, r):
        self.op = op
        self.l = l
        self.r = r

    def unparse(self):
        ls = self.l.unparse()
        if _level(self.l) < left_level(self.op):
            ls = f"({ls})"
        rs = self.r.unparse()
        if _level(self.r) < BINARY[self.op] + (self.op not in ("and", "or")):
            rs = f"({rs})"
        return f"{ls} {self.op} {rs}"

    def _compile(self, scope):
        op = self.op
        types = (BOOL,) if op in ("and", "or") else None if op in ("=", "!=") else NUMBER
        fl, tl = scope.want(self.l, types)
        fr, tr = scope.want(self.r, types)
        if types is None:
            scope.equal(self, tl, tr)

        if op == "and":
            return conjoin(fl, fr), BOOL
        if op == "or":
            bl, br = total(fl), total(fr)
            return (lambda ctx: bl(ctx) or br(ctx)), BOOL

        if op in _CMP:
            cmp = _CMP[op]

            def run(ctx):
                try:
                    a = fl(ctx)
                    b = fr(ctx)
                except UnboundParam:
                    return False
                if a is UNDEF or b is UNDEF:
                    return False
                return cmp(a, b)
            return run, BOOL

        fn = _ARITH[op]
        return (lambda ctx: fn(fl(ctx), fr(ctx))), INT if tl == tr == INT else REAL


class Unary(Expr):
    """`not e` or `-e`.  Printing puts the operand in parentheses where it
    binds looser than `op` (a `not` under a minus), and always where it is
    a binary operator: `not (a = b)`."""

    __slots__ = ("op", "e")

    def __init__(self, op, e):
        self.op = op
        self.e = e

    def unparse(self):
        s = self.e.unparse()
        if isinstance(self.e, Binary) or _level(self.e) < PREFIX[self.op]:
            s = f"({s})"
        if self.op == "not":
            return f"not {s}"
        return f"-{s}"

    def _compile(self, scope):
        f, t = scope.want(self.e, (BOOL,) if self.op == "not" else NUMBER)
        if self.op == "not":
            def run(ctx):
                try:
                    return not f(ctx)
                except UnboundParam:
                    return True
            return run, BOOL
        return (lambda ctx: -f(ctx)), t


TRUE = Lit(True)


def total(f):
    """The bool closure `f`, false where it reads an unbound optional."""
    def run(ctx):
        try:
            return f(ctx)
        except UnboundParam:
            return False
    return run


def conjoin(fl, fr):
    """The closure of `l and r` from the closures of `l` and `r`."""
    bl, br = total(fl), total(fr)
    return lambda ctx: bl(ctx) and br(ctx)


def compile_guard(expr, scope):
    """Compile the predicate of a goal or check: a bool, which a checking
    `scope` makes sure of, false where it reads an unbound optional.  A
    rule's guard is compiled conjunct by conjunct and composed the same
    way (`Rule.compile`)."""
    return total(expr.compile(scope, (BOOL,)))
