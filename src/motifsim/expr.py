"""Expression trees for rule guards, goal predicates and commands.

Expressions are compiled once into nested closures evaluated against a
`Ctx` (configuration, current motif, parameter binding).  Compiling
resolves every name through one `Scope`, which also checks the names
when it is given a configuration: `Model.build` compiles each rule, goal
and check that way, so a name that denotes nothing is a build error.
Two partiality conventions keep guards total:

- an undefined address (`UNDEF`) makes any comparison false; arithmetic
  on it is an `EvalError`;
- a reference to an unbound optional parameter makes the enclosing
  boolean atom false.
"""

from fractions import Fraction

from .errors import EvalError
from .model import UNREACHABLE


class _Undefined:
    __slots__ = ()

    def __repr__(self):
        return "UNDEF"


#: The value of an undefined address lookup.
UNDEF = _Undefined()


class UnboundParam(Exception):
    """An optional rule parameter was left unbound."""


class Ctx:
    __slots__ = ("cfg", "motif", "binding")

    def __init__(self, cfg, motif=None, binding=None):
        self.cfg = cfg
        self.motif = motif
        self.binding = binding if binding is not None else {}


def fmt_num(v):
    """Canonical text for a numeric literal."""
    if isinstance(v, bool):
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
    closure, `_compile(scope)`."""

    __slots__ = ()

    def compile(self, scope):
        """Return a closure `f(ctx) -> value` over the names `scope` gives
        meaning to: a `Scope`, or a set of names bound through the rule
        binding, which checks nothing."""
        if not isinstance(scope, Scope):
            scope = Scope(dict.fromkeys(scope))
        return self._compile(scope)


class Scope:
    """What the names of one guard, goal, check or rule body denote.

    A name in `bound` (a rule parameter, or the name an earlier `create`
    of the same rule body bound) resolves through the rule binding; any
    other owner is a component id.  With a configuration `cfg`, each name
    is checked against it as it is compiled, and one that denotes nothing
    raises `ValueError`: an undeclared owner, var, motif or type, a write
    outside `self` when `self_only`, a `create` that shadows a bound
    name, or a map lookup that names no motif where no name is bound
    (`lookup`).  Without one nothing is checked.  The bound names that
    `owner` and `component` resolve are kept in `resolved`: the names the
    compiled closures read from the rule binding.
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
        if self.cfg is not None and attr not in self.cfg.types[tname].vars:
            raise ValueError(f"type {tname!r} has no var {attr!r}")

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

    def _check(self, name, attr, write):
        if self.cfg is None:
            return
        if name in self.bound:
            tname = self.bound[name]
        elif name in self.cfg.components:
            tname = self.cfg.components[name].type.name
        else:
            raise ValueError(f"undeclared name {name!r}")
        if attr is not None:
            self.var(tname, attr)
        if write and self.self_only and name != "self":
            raise ValueError("may only modify 'self'")

    def owner(self, name, attr=None, write=False):
        """Closure producing the id of the component an owner name
        denotes; `attr` is the var it reads or writes."""
        self._check(name, attr, write)
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
        owner name reads."""
        self._check(name, attr, False)
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
            return get

        def get(ctx):
            comp = ctx.cfg.components.get(name)
            if comp is None:
                raise UnboundParam(name)
            return comp
        return get


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
        return lambda ctx: v


class Sym(Expr):
    """A bare identifier: enumeration value, mode name, or node name."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def unparse(self):
        return self.name

    def _compile(self, scope):
        n = self.name
        return lambda ctx: n


class VarRef(Expr):
    __slots__ = ("owner", "attr")

    def __init__(self, owner, attr):
        self.owner = owner
        self.attr = attr

    def unparse(self):
        return f"{self.owner}.{self.attr}"

    def _compile(self, scope):
        get = scope.component(self.owner, self.attr)
        attr = self.attr

        def run(ctx):
            comp = get(ctx)
            try:
                return comp.state[attr]
            except KeyError:
                raise EvalError(f"type {comp.type.name!r} has no var {attr!r}")
        return run


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
        return run


class Placed(AddrRef):
    """True iff the owner has an address: the lookup of `@` as a test."""

    __slots__ = ()

    def unparse(self):
        return _call("placed", [self.owner], self.motif)

    def _compile(self, scope):
        addr = super()._compile(scope)

        def run(ctx):
            try:
                return addr(ctx) is not UNDEF
            except UnboundParam:
                return False
        return run


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
        return run


class Empty(Expr):
    """True iff the argument is an existing node with no occupant."""

    __slots__ = ("node", "motif")

    def __init__(self, node, motif=None):
        self.node = node
        self.motif = motif

    def unparse(self):
        return _call("empty", [self.node.unparse()], self.motif)

    def _compile(self, scope):
        node = self.node._compile(scope)
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
        return run


class Distance(Expr):
    __slots__ = ("a", "b", "motif")

    def __init__(self, a, b, motif=None):
        self.a = a
        self.b = b
        self.motif = motif

    def unparse(self):
        return _call("distance", [self.a.unparse(), self.b.unparse()], self.motif)

    def _compile(self, scope):
        fa = self.a._compile(scope)
        fb = self.b._compile(scope)
        motif = scope.lookup(self)

        def run(ctx):
            a = fa(ctx)
            b = fb(ctx)
            if a is UNDEF or b is UNDEF:
                raise EvalError("distance over an undefined address")
            return _motif_of(ctx, motif).map.distance(a, b)
        return run


class Succ(Expr):
    """The unique out-neighbor of a node on the motif's map."""

    __slots__ = ("node", "motif")

    def __init__(self, node, motif=None):
        self.node = node
        self.motif = motif

    def unparse(self):
        return _call("succ", [self.node.unparse()], self.motif)

    def _compile(self, scope):
        node = self.node._compile(scope)
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
        return run


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
        fl = self.l._compile(scope)
        fr = self.r._compile(scope)

        if op in ("and", "or"):
            def as_bool(f):
                def run(ctx):
                    try:
                        v = f(ctx)
                    except UnboundParam:
                        return False
                    if not isinstance(v, bool):
                        raise EvalError(f"non-boolean operand of {op!r}: {v!r}")
                    return v
                return run
            bl, br = as_bool(fl), as_bool(fr)
            if op == "and":
                return lambda ctx: bl(ctx) and br(ctx)
            return lambda ctx: bl(ctx) or br(ctx)

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
                try:
                    return cmp(a, b)
                except TypeError:
                    raise EvalError(
                        f"incomparable values {a!r} and {b!r} for {op!r}")
            return run

        fn = _ARITH[op]

        def run(ctx):
            a = fl(ctx)
            b = fr(ctx)
            if a is UNDEF or b is UNDEF:
                raise EvalError(f"arithmetic ({op!r}) on an undefined address")
            try:
                return fn(a, b)
            except TypeError:
                raise EvalError(f"bad operands for {op!r}: {a!r}, {b!r}")
        return run


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
        f = self.e._compile(scope)
        if self.op == "not":
            def run(ctx):
                try:
                    v = f(ctx)
                except UnboundParam:
                    return True
                if not isinstance(v, bool):
                    raise EvalError(f"'not' over non-boolean {v!r}")
                return not v
            return run

        def run(ctx):
            v = f(ctx)
            if v is UNDEF:
                raise EvalError("negation of an undefined address")
            try:
                return -v
            except TypeError:
                raise EvalError(f"bad operand for unary '-': {v!r}")
        return run


TRUE = Lit(True)


def compile_guard(expr, scope, what="guard"):
    """Compile a guard, or the predicate of a goal or check, `what` in an
    error: references to unbound optionals yield False, and a value that
    is not boolean is an `EvalError`."""
    f = expr.compile(scope)

    def run(ctx):
        try:
            v = f(ctx)
        except UnboundParam:
            return False
        if not isinstance(v, bool):
            raise EvalError(f"{what} is not boolean: {v!r}")
        return v
    return run
