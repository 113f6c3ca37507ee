"""Parametric interaction and configuration rules.

The transition relation between configurations: binding enumeration
through each rule's `BindingPlan`, atomic rule application, and the
global candidate list.  A `Candidate`
is one enabled rule instance on the configuration it was listed on, and
`Candidate.fire()` is the one successor operation that the scheduler,
replay, the game grounder and the planner share.  The command effects
below (assignment, exchange, move, create, delete, join, leave, migrate
and map edits) change a configuration only through its edit methods
(`Configuration.set_var`, `place`, `fresh_id`, `add_component`,
`remove_component`, `join`, `leave` and `set_map`), which make every
check of an edit; `apply` runs them on a private clone.
"""

from functools import reduce

from .errors import EffectError, EngineError
from .expr import BOOL, INT, PLACE, UNDEF, Binary, Ctx, Scope, UnboundParam, VarRef, conjoin, total
from .model import AGENT, ComponentInstance

INTERACTION = "interaction"
CONFIG = "config"
DYNAMICS = "dynamics"
CONTROLLER = "controller"


class Param:
    __slots__ = ("name", "type", "required")

    def __init__(self, name, type, required=True):
        self.name = name
        self.type = type
        self.required = required


# ---------------------------------------------------------------------------
# command effects


class Effect:
    """A command; `compile(scope)` returns a closure `run(ctx)` editing
    `ctx.cfg`, over `scope`, and `unparse()` its text."""

    __slots__ = ()


class Assign(Effect):
    __slots__ = ("owner", "attr", "value")

    def __init__(self, owner, attr, value):
        self.owner = owner
        self.attr = attr
        self.value = value

    def unparse(self):
        return f"{self.owner}.{self.attr} := {self.value.unparse()}"

    def compile(self, scope):
        name, attr = self.owner, self.attr
        domain = scope.domain(name, attr, write=True)
        bound = scope.binds(name)
        fv = scope.store(domain, f"{name}.{attr}", self.value)

        def run(ctx):
            if bound:
                cid = ctx.binding.get(name)
                if cid is None:
                    raise UnboundParam(name)
            else:
                cid = name
            v = fv(ctx)
            cfg = ctx.cfg
            cfg.set_var(cid, attr, cfg.component(cid).type.vars[attr].domain.canon(v))
        return run


class Exchange(Effect):
    __slots__ = ("o1", "a1", "o2", "a2")

    def __init__(self, o1, a1, o2, a2):
        self.o1, self.a1 = o1, a1
        self.o2, self.a2 = o2, a2

    def unparse(self):
        return f"exchange({self.o1}.{self.a1}, {self.o2}.{self.a2})"

    def compile(self, scope):
        g1 = scope.owner(self.o1, self.a1, write=True)
        g2 = scope.owner(self.o2, self.a2, write=True)
        a1, a2 = self.a1, self.a2
        v1, v2 = VarRef(self.o1, a1), VarRef(self.o2, a2)
        scope.store(scope.domain(self.o1, a1), v1.unparse(), v2)
        scope.store(scope.domain(self.o2, a2), v2.unparse(), v1)

        def run(ctx):
            cfg = ctx.cfg
            c1, c2 = cfg.component(g1(ctx)), cfg.component(g2(ctx))
            v1, v2 = c1.state[a1], c2.state[a2]
            cfg.set_var(c1.id, a1, c1.type.vars[a1].domain.canon(v2))
            cfg.set_var(c2.id, a2, c2.type.vars[a2].domain.canon(v1))
        return run


class Move(Effect):
    """@(p) := node-expression, within the rule's motif."""

    __slots__ = ("owner", "node")

    def __init__(self, owner, node):
        self.owner = owner
        self.node = node

    def unparse(self):
        return f"@({self.owner}) := {self.node.unparse()}"

    def compile(self, scope):
        name = self.owner
        scope.domain(name, write=True)
        bound = scope.binds(name)
        fn = self.node.compile(scope, PLACE)

        def run(ctx):
            if bound:
                cid = ctx.binding.get(name)
                if cid is None:
                    raise UnboundParam(name)
            else:
                cid = name
            n = fn(ctx)
            if n is UNDEF:
                raise EffectError("move target is an undefined address")
            ctx.cfg.place(cid, ctx.motif.id, n)
        return run


class Create(Effect):
    __slots__ = ("name", "type", "motif", "node", "inits")

    def __init__(self, name, type, motif=None, node=None, inits=()):
        self.name = name
        self.type = type
        self.motif = motif
        self.node = node
        self.inits = list(inits)

    def unparse(self):
        s = f"create {self.name}: {self.type}"
        if self.motif is not None:
            s += f" in {self.motif}"
        if self.node is not None:
            s += f" at {self.node.unparse()}"
        if self.inits:
            body = " ".join(f"{v} = {e.unparse()};" for v, e in self.inits)
            s += " with { %s }" % body
        return s

    def compile(self, scope):
        name = self.name
        type_name = self.type
        scope.type(type_name)
        motif = scope.motif(self.motif)
        fn = self.node.compile(scope, PLACE) if self.node is not None else None
        finits = [(v, scope.store(scope.var(type_name, v), f"{name}.{v}", e))
                  for v, e in self.inits]
        scope.bind(name, type_name)

        def run(ctx):
            cfg = ctx.cfg
            init = {v: f(ctx) for v, f in finits}
            mid = motif if motif is not None else ctx.motif.id
            cid = cfg.fresh_id(type_name)
            cfg.add_component(ComponentInstance(cid, cfg.types[type_name], init))
            cfg.join(cid, mid)
            if fn is not None:
                node = fn(ctx)
                if node is UNDEF:
                    raise EffectError("create at an undefined address")
                cfg.place(cid, mid, node)
            ctx.binding[name] = cid
        return run


class Delete(Effect):
    __slots__ = ("owner",)

    def __init__(self, owner):
        self.owner = owner

    def unparse(self):
        return f"delete({self.owner})"

    def compile(self, scope):
        get = scope.owner(self.owner, write=True)

        def run(ctx):
            ctx.cfg.remove_component(get(ctx))
        return run


class Join(Effect):
    __slots__ = ("owner", "motif")

    def __init__(self, owner, motif):
        self.owner = owner
        self.motif = motif

    def unparse(self):
        return f"join({self.owner}, {self.motif})"

    def compile(self, scope):
        get = scope.owner(self.owner, write=True)
        motif = scope.motif(self.motif)

        def run(ctx):
            ctx.cfg.join(get(ctx), motif)
        return run


class Leave(Effect):
    __slots__ = ("owner", "motif")

    def __init__(self, owner, motif):
        self.owner = owner
        self.motif = motif

    def unparse(self):
        return f"leave({self.owner}, {self.motif})"

    def compile(self, scope):
        get = scope.owner(self.owner, write=True)
        motif = scope.motif(self.motif)

        def run(ctx):
            ctx.cfg.leave(get(ctx), motif)
        return run


class MigrateEffect(Effect):
    """migrate(p, src, dst[, node]): p's state is kept, it leaves `src`,
    with its address there, and joins `dst`, where `node` is its address
    if given.  A migrate within one motif keeps the address it had unless
    given a node."""

    __slots__ = ("owner", "src", "dst", "node")

    def __init__(self, owner, src, dst, node=None):
        self.owner = owner
        self.src = src
        self.dst = dst
        self.node = node

    def unparse(self):
        s = f"migrate({self.owner}, {self.src}, {self.dst}"
        if self.node is not None:
            s += f", {self.node.unparse()}"
        return s + ")"

    def compile(self, scope):
        get = scope.owner(self.owner, write=True)
        src, dst = scope.motif(self.src), scope.motif(self.dst)
        fn = self.node.compile(scope, PLACE) if self.node is not None else None

        def run(ctx):
            cid = get(ctx)
            node = None
            if fn is not None:
                node = fn(ctx)
                if node is UNDEF:
                    raise EffectError("migrate to an undefined address")
            cfg = ctx.cfg
            if node is None and src == dst:
                node = cfg.address(cid, src)
            cfg.leave(cid, src)
            cfg.join(cid, dst)
            if node is not None:
                cfg.place(cid, dst, node)
        return run


class MapEdit(Effect):
    __slots__ = ("op", "args")

    def __init__(self, op, args):
        assert op in ("addnode", "removenode", "addedge", "removeedge")
        self.op = op
        self.args = list(args)

    def unparse(self):
        return f"{self.op}({', '.join(a.unparse() for a in self.args)})"

    def compile(self, scope):
        op = self.op
        # an `addedge` weight is an int; every other argument a node
        fargs = [a.compile(scope, (INT,) if i == 2 else PLACE)
                 for i, a in enumerate(self.args)]

        def run(ctx):
            vals = [f(ctx) for f in fargs]
            if any(v is UNDEF for v in vals):
                raise EffectError(f"{op} on an undefined address")
            cfg, mid = ctx.cfg, ctx.motif.id
            old = cfg.motif(mid).map
            if op == "addnode":
                new = old.add_node(vals[0])
            elif op == "removenode":
                cfg.occupied(mid, vals[0])  # raises on a node the map lacks
                new = old.remove_node(vals[0])
            elif op == "addedge":
                w = vals[2] if len(vals) > 2 else 1
                try:
                    new = old.add_edge(vals[0], vals[1], w)
                except ValueError as exc:  # a negative weight
                    raise EffectError(str(exc)) from exc
            else:
                new = old.remove_edge(vals[0], vals[1])
            cfg.set_map(mid, new)
        return run


# ---------------------------------------------------------------------------
# rules


class Rule:
    """A parametric guarded command.

    `kind` distinguishes motif interaction rules (state effects only),
    motif configuration rules, object internal dynamics, and compiled
    controller transitions.
    """

    __slots__ = ("name", "kind", "params", "guard", "effects", "creates",
                 "_guard_c", "_effects_c", "_plan", "_agents")

    def __init__(self, name, kind, params, guard, effects):
        self.name = name
        self.kind = kind
        self.params = list(params)
        self.guard = guard
        self.effects = list(effects)
        self.creates = any(isinstance(e, Create) for e in self.effects)
        names = set()
        for p in self.params:
            if p.name in names:
                raise ValueError(f"duplicate parameter {p.name!r}")
            names.add(p.name)
        if kind == INTERACTION:
            for e in self.effects:
                if not isinstance(e, (Assign, Exchange)):
                    raise ValueError(
                        f"interaction rule {name!r} may only assign/exchange")
        if kind in (INTERACTION, CONFIG) and not any(p.required for p in self.params):
            raise ValueError(f"rule {name!r} needs at least one required participant")
        self._guard_c = self._effects_c = self._plan = self._agents = None

    def compile(self, cfg):
        """Compile the guard, the effects and the `BindingPlan`, checking
        every name they use against `cfg`, and their types (`Scope`).
        The guard is read as a left-nested `and` chain
        `c0 and c1 and ...`: each conjunct is compiled once, left to
        right, through its own `Scope`, whose `resolved` names the
        parameters it reads, and the guard is composed from those
        closures as `Binary` composes `and`.  A name an effect's `create`
        binds is visible to the effects after it, not to the guard.
        `Model.build` calls this for every rule it builds, and a rule made
        by hand is compiled so before it is used: `plan`, `guard_fn` and
        `effect_fns` only return what this made."""
        params = {p.name: p.type for p in self.params}
        chain = []
        e = self.guard
        while isinstance(e, Binary) and e.op == "and":
            chain.append(e.r)
            e = e.l
        chain.append(e)
        conjuncts = []
        for c in reversed(chain):
            scope = Scope(params, cfg)
            conjuncts.append((c.compile(scope, (BOOL,)), scope.resolved))
        self._guard_c = total(reduce(conjoin, [f for f, _ in conjuncts]))
        body = Scope(params, cfg, self_only=self.kind in (DYNAMICS, CONTROLLER))
        self._effects_c = [e.compile(body) for e in self.effects]
        self._plan = BindingPlan(self, conjuncts)

    def plan(self):
        return self._plan

    def guard_fn(self):
        return self._guard_c

    def effect_fns(self):
        return self._effects_c

    def agents(self, types):
        """The names of the parameters whose declared type, in `types`, is
        an agent's: the owners of an instance (`step_candidates`).  Found
        on the first call."""
        if self._agents is None:
            self._agents = tuple(p.name for p in self.params
                                 if types[p.type].kind == AGENT)
        return self._agents


def _leading_test(conjuncts):
    """The closure testing compiled conjuncts, each a bool, in order: False
    as soon as one is False or raises `UnboundParam` (which `and` takes as
    False), True if all are True, else None: another exception.  Whatever
    a conjunct raises, the full guard raises again at the same conjunct
    at every leaf below, and a subtree with no leaf raised nothing before
    either, so such a test does not prune."""
    def test(ctx):
        try:
            for f in conjuncts:
                if not f(ctx):
                    return False
        except UnboundParam:
            return False
        except Exception:
            return None
        return True
    return test


def _level(name, tname, test, inner):
    """The loop binding the required parameter `name` to each unbound
    member of type `tname`, then running `inner` unless `test` is False;
    with no `inner`, keeping the binding if the full guard holds.  The
    call's state comes in as arguments: no closure holds it."""
    def level(ctx, binding, of_type, guard, out):
        bound = binding.values()
        for cid in of_type[tname]:
            if cid in bound:
                continue
            binding[name] = cid
            if inner is None:
                if guard(ctx):
                    out.append(dict(binding))
            elif test is None or test(ctx) is not False:
                inner(ctx, binding, of_type, guard, out)
        binding.pop(name, None)
    return level


def _leaf(optional):
    """The enumeration's last step when the rule has `optional`
    parameters: bind them greedily, then keep the binding if the full
    guard holds."""
    def leaf(ctx, binding, of_type, guard, out):
        extended = ctx.binding = dict(binding)
        taken = extended.values()
        for name, tname in optional:
            for cid in of_type[tname]:
                if cid in taken:
                    continue
                extended[name] = cid
                if guard(ctx):
                    break
                del extended[name]
        if guard(ctx):
            out.append(extended)
        ctx.binding = binding
    return leaf


class BindingPlan:
    """How `enabled_bindings` enumerates the bindings of one rule.

    `fixed` is the name the caller pre-binds: `self`, for dynamics and
    controller transitions.  `required` lists, per required parameter,
    `(name, type, test)`; `optional` lists `(name, type)`.  `conjuncts`
    are the guard's `and` chain as `Rule.compile` compiled it: `(closure,
    names read)` per conjunct, in order.  The test of a required
    parameter other than the last runs the longest leading run of
    conjuncts that read only `self` and the parameters bound once that
    parameter is (one naming only constants reads none), or is None
    when that run is no longer than the one before.  So a conjunct is
    never tested before one ahead of it in the chain, nor one that names
    an optional parameter, and a rule with one required parameter has no
    test: its full guard decides.  A subtree is skipped only when its
    test returns False: every full guard below it is then False too, so
    no enabled binding, order or raised error changes.  `enum`, built
    here once, runs one `_level` per required parameter, then the
    `_leaf` if there are optional ones.
    """

    __slots__ = ("fixed", "required", "optional", "types", "enum")

    def __init__(self, rule, conjuncts):
        fixed = {"self"} if rule.kind in (DYNAMICS, CONTROLLER) else set()
        free = [p for p in rule.params if p.name not in fixed]
        required = [p for p in free if p.required]
        self.fixed = frozenset(fixed)
        self.optional = [(p.name, p.type) for p in free if not p.required]
        self.types = list(dict.fromkeys(p.type for p in free))
        self.required = [(p.name, p.type, None) for p in required]
        bound = set(fixed)
        run = 0
        for i, p in enumerate(required[:-1]):
            bound.add(p.name)
            prev = run
            while run < len(conjuncts) and conjuncts[run][1] <= bound:
                run += 1
            if run > prev:
                test = _leading_test([f for f, _ in conjuncts[:run]])
                self.required[i] = (p.name, p.type, test)
        step = _leaf(self.optional) if self.optional else None
        for name, tname, test in reversed(self.required):
            step = _level(name, tname, test, step)
        self.enum = step


def enabled_bindings(cfg, motif_id, rule, fixed=None):
    """All enabled bindings of `rule` in `motif_id`, in deterministic order.

    Required parameters are bound to pairwise-distinct type-matching
    members, enumerated lexicographically per parameter position.
    Optional parameters are maximally extended: each is greedily bound to
    the first candidate that satisfies the guard, else omitted.

    `fixed` pre-binds `self` for dynamics and controller transitions
    (which need not be motif-member-checked), and nothing else: the
    names of the rule's `BindingPlan`.  The call takes the `fixed` dict
    over, so pass a fresh one: a rule with no free parameter returns it
    as its one binding, and any other binds its parameters into it
    while it enumerates (and leaves them there if a guard raises).  A
    rule with no free parameter runs its guard once; any other runs the
    plan's enumerator over the motif's members of each parameter's type
    (`Motif.members_by_type`), which skips the subtrees whose leading
    guard conjuncts are already False.  The full guard, from `rule.guard_fn()`, runs on each
    complete binding.
    """
    guard = rule.guard_fn()
    plan = rule._plan
    binding = {} if fixed is None else fixed
    if binding.keys() != plan.fixed:
        raise ValueError(f"rule {rule.name!r} pre-binds {sorted(plan.fixed)}, "
                         f"not {sorted(binding)}")
    ctx = Ctx(cfg, cfg.motif(motif_id), binding)
    if not plan.types:
        return [binding] if guard(ctx) else []
    of_type = ctx.motif.members_by_type(plan.types, cfg.components)
    out = []
    plan.enum(ctx, binding, of_type, guard, out)
    return out


def apply(cfg, motif_id, rule, binding):
    """Apply one enabled rule instance atomically.

    Returns the new configuration.  On any failing effect the original
    configuration is untouched and `EffectError` is raised: an undefined
    address, a value outside its var's domain, a negative edge weight, a
    missing node, member or component.  No effect fails on a type, or on
    a type, var or motif that is not declared: `Rule.compile` typed every
    value it writes and every node it places, an int or a str, and
    checked every name it uses.  The result is not checked again: the
    effects edit it only through `Configuration`'s edit methods, each of
    which keeps it well-formed (every member exists; every address
    belongs to a member and lies on its motif's map).  `place` admits
    only members and map nodes, `leave` (which `migrate` and
    `remove_component` use) drops an address with its membership, `join`
    admits only an existing component, `set_map` refuses to drop an
    occupied node, `create` adds a fresh id (`fresh_id`), and no effect
    deletes a motif.

    The effects read `binding` itself, unless the rule has a `create`
    effect, which binds its name in a copy: a caller's binding is never
    changed.
    """
    clone = cfg.clone()
    motif = clone.motif(motif_id)
    ctx = Ctx(clone, motif, dict(binding) if rule.creates else binding)
    try:
        for fe in rule.effect_fns():
            fe(ctx)
    except EffectError:
        raise
    except EngineError as exc:
        raise EffectError(str(exc)) from exc
    except UnboundParam as exc:
        name = exc.args[0]
        if any(p.name == name for p in rule.params):
            raise EffectError(f"effect on unbound parameter {name!r}") from exc
        # a component constant's read raises it once the component is gone
        raise EffectError(f"effect reads deleted component {name!r}") from exc
    return clone


# ---------------------------------------------------------------------------
# global candidate enumeration


class Candidate:
    """One enabled rule instance on `source`: (motif, rule, binding) plus
    controllability.  Its kind is its rule's: `rule.kind`.

    `controlled_by` is the set of agents that own the instance: the ids
    bound to the rule's agent-typed parameters (`Rule.agents`), or the
    agent whose controller transition it is.  `label`, the text
    `motif/rule[p=cid,...]` in parameter order, is made on its first read
    and kept: the grounder and the planner read every candidate's, the
    scheduler only those it lists for runtimes and table controllers.
    """

    __slots__ = ("source", "motif", "rule", "binding", "controlled_by",
                 "_label", "_fired")

    def __init__(self, source, motif, rule, binding, controlled_by):
        self.source = source
        self.motif = motif
        self.rule = rule
        self.binding = binding
        self.controlled_by = controlled_by
        self._label = self._fired = None

    @property
    def label(self):
        label = self._label
        if label is None:
            binding = self.binding
            bind = ",".join(f"{p.name}={binding[p.name]}"
                            for p in self.rule.params if p.name in binding)
            label = self._label = f"{self.motif}/{self.rule.name}[{bind}]"
        return label

    def fire(self):
        """The successor of applying this instance to `source`.

        Computed once and kept; a failing effect is not kept and raises
        `EffectError` on every call.
        """
        if self._fired is None:
            self._fired = apply(self.source, self.motif, self.rule, self.binding)
        return self._fired

    def is_controllable(self, ego):
        return ego in self.controlled_by


_NO_OWNERS = frozenset()


def step_candidates(cfg):
    """Every enabled rule, controller-transition and dynamics instance.

    Deterministic order: motif id, rule declaration order, lexicographic
    binding; per motif, declared rules come first (owned by the agents
    their agent-typed parameters bind, or by no one when a rule has none:
    `_NO_OWNERS`), then each member's own rules by member id: an agent's
    controller transitions (owned by it), an object's dynamics (owned by
    no one).
    """
    cands = []
    for mid in sorted(cfg.motifs):
        motif = cfg.motifs[mid]
        for rule in motif.rules:
            agents = rule.agents(cfg.types)
            for binding in enabled_bindings(cfg, mid, rule):
                owners = frozenset([binding[n] for n in agents if n in binding]) \
                    if agents else _NO_OWNERS
                cands.append(Candidate(cfg, mid, rule, binding, owners))
        for cid in sorted(motif.members):
            comp = cfg.components[cid]
            ctrl = comp.type.controller if comp.type.kind == AGENT else None
            if ctrl is not None:
                own, owners = ctrl.transitions, frozenset([cid])
            else:
                own, owners = comp.type.dynamics, _NO_OWNERS
            for rule in own:
                for binding in enabled_bindings(cfg, mid, rule, fixed={"self": cid}):
                    cands.append(Candidate(cfg, mid, rule, binding, owners))
    return cands
