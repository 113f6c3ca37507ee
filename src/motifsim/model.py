"""Static and dynamic structure of a system.

Component types, component instances, maps, partial address functions,
motifs and configurations.  Configurations have value semantics: the only
way to change one is a rule's effects (`rules.apply`), which run on a
private clone and return it, leaving the argument untouched.  The
mutating helpers (prefixed ``_``) are reserved for those effects and for
the agents' belief revision, which likewise work on clones.

Clones share their unchanged components, motifs and maps.  Copy before
mutate: code that changes a component's state, a motif's members or a
motif's map first takes a private copy through
`Configuration._touch_component` or `Configuration._touch_motif`
(``copy_map=True`` / ``copy_members=True``), and changes only that copy,
before any hash of its configuration is taken.  Each `Map`,
`ComponentInstance` and `Motif` caches its canonical tuple and that
tuple's ``repr`` on first use; ``copy()`` and the `Map` mutators reset
the cache, and the rule is what keeps every other cache valid.
`Configuration.state_hash` joins the cached fragments, so a change made
in place on a shared object would leave the hash stale.
"""

import heapq
import math
from fractions import Fraction
from hashlib import blake2b

from .errors import (
    DomainError,
    NotAMember,
    UnknownComponent,
    UnknownEdge,
    UnknownMotif,
    UnknownNode,
)

#: Returned by `Map.distance` when no directed path exists.  Comparisons
#: against finite bounds behave as expected (``UNREACHABLE < k`` is false).
UNREACHABLE = math.inf


def node_sort_key(n):
    # maps may use int or str node ids; never mix orderings
    return (0, n, "") if isinstance(n, int) else (1, 0, str(n))


class Map:
    """A directed graph of abstract coordinates with integer edge weights."""

    __slots__ = ("nodes", "out", "_dist", "_canon", "_text")

    def __init__(self, nodes=(), edges=()):
        self.nodes = set(nodes)
        self.out = {n: {} for n in self.nodes}
        self._dist = {}
        self._canon = self._text = None
        for e in edges:
            if len(e) == 2:
                a, b = e
                w = 1
            else:
                a, b, w = e
            self.add_edge(a, b, w)

    def copy(self):
        m = Map.__new__(Map)
        m.nodes = set(self.nodes)
        m.out = {n: dict(d) for n, d in self.out.items()}
        m._dist = {}
        m._canon = m._text = None
        return m

    def _changed(self):
        self._dist.clear()
        self._canon = self._text = None

    def edge_list(self):
        return sorted(
            ((a, b, w) for a, d in self.out.items() for b, w in d.items()),
            key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])),
        )

    def has_edge(self, a, b):
        return a in self.out and b in self.out[a]

    def add_node(self, n):
        self.nodes.add(n)
        self.out.setdefault(n, {})
        self._changed()

    def remove_node(self, n):
        if n not in self.nodes:
            raise UnknownNode(f"no node {n!r}")
        self.nodes.discard(n)
        self.out.pop(n, None)
        for d in self.out.values():
            d.pop(n, None)
        self._changed()

    def add_edge(self, a, b, w=1):
        if a not in self.nodes or b not in self.nodes:
            raise UnknownNode(f"edge endpoint missing: {a!r} -> {b!r}")
        if w < 0:
            raise ValueError("edge weight must be nonnegative")
        self.out[a][b] = int(w)
        self._changed()

    def remove_edge(self, a, b):
        if not self.has_edge(a, b):
            raise UnknownEdge(f"no edge {a!r} -> {b!r}")
        del self.out[a][b]
        self._changed()

    def succ(self, n):
        """The unique out-neighbor of `n`, or None if out-degree != 1."""
        if n not in self.nodes:
            raise UnknownNode(f"no node {n!r}")
        outs = self.out[n]
        if len(outs) != 1:
            return None
        return next(iter(outs))

    def distance(self, a, b):
        """Minimum-weight directed path length a -> b, or UNREACHABLE."""
        if a not in self.nodes:
            raise UnknownNode(f"no node {a!r}")
        if b not in self.nodes:
            raise UnknownNode(f"no node {b!r}")
        dist = self._dist.get(a)
        if dist is None:
            dist = self._dijkstra(a)
            self._dist[a] = dist
        return dist.get(b, UNREACHABLE)

    def _dijkstra(self, src):
        dist = {src: 0}
        heap = [(0, 0, src)]
        tick = 0
        while heap:
            d, _, n = heapq.heappop(heap)
            if d > dist.get(n, UNREACHABLE):
                continue
            for m, w in self.out[n].items():
                nd = d + w
                if nd < dist.get(m, UNREACHABLE):
                    dist[m] = nd
                    tick += 1
                    heapq.heappush(heap, (nd, tick, m))
        return dist

    def hops_from(self, src, radius=UNREACHABLE):
        """Undirected unit-weight hop counts from `src` to every node at
        most `radius` hops away (used for sensing radii)."""
        if src not in self.nodes:
            raise UnknownNode(f"no node {src!r}")
        adj = {n: set() for n in self.nodes}
        for x, d in self.out.items():
            for y in d:
                adj[x].add(y)
                adj[y].add(x)
        hops = {src: 0}
        frontier = [src]
        k = 0
        while frontier and k < radius:
            k += 1
            nxt = []
            for n in frontier:
                for m in adj[n]:
                    if m not in hops:
                        hops[m] = k
                        nxt.append(m)
            frontier = nxt
        return hops

    def hop_distance(self, a, b):
        """Undirected unit-weight distance (used for sensing radii)."""
        if b not in self.nodes:
            raise UnknownNode(f"no node {b!r}")
        return self.hops_from(a).get(b, UNREACHABLE)

    def canonical(self):
        if self._canon is None:
            self._canon = (
                tuple(sorted(self.nodes, key=node_sort_key)),
                tuple(self.edge_list()),
            )
        return self._canon

    def canonical_repr(self):
        if self._text is None:
            self._text = repr(self.canonical())
        return self._text


def line_map(k):
    """0 -> 1 -> ... -> k-1."""
    return Map(range(k), [(i, i + 1) for i in range(k - 1)])


def ring_map(k):
    return Map(range(k), [(i, (i + 1) % k) for i in range(k)])


def grid_map(w, h):
    """w*h nodes indexed y*w+x, bidirectional 4-neighborhood."""
    edges = []
    for y in range(h):
        for x in range(w):
            n = y * w + x
            if x + 1 < w:
                edges += [(n, n + 1), (n + 1, n)]
            if y + 1 < h:
                edges += [(n, n + w), (n + w, n)]
    return Map(range(w * h), edges)


# ---------------------------------------------------------------------------
# variable domains


class BoolDomain:
    __slots__ = ()

    def contains(self, v):
        return isinstance(v, bool)

    def canon(self, v):
        if not isinstance(v, bool):
            raise DomainError(f"expected bool, got {v!r}")
        return v

    def __eq__(self, other):
        return isinstance(other, BoolDomain)

    def __repr__(self):
        return "bool"


class IntRange:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty int range [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)

    def contains(self, v):
        return isinstance(v, int) and not isinstance(v, bool) and self.lo <= v <= self.hi

    def canon(self, v):
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise DomainError(f"{v} is not an integer")
            v = int(v)
        if not self.contains(v):
            raise DomainError(f"{v!r} outside int[{self.lo}, {self.hi}]")
        return v

    def __eq__(self, other):
        return isinstance(other, IntRange) and (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return f"int[{self.lo}, {self.hi}]"


class RealRange:
    """Exact decimal-step reals: admissible values are lo + k*step.

    Values are carried as `Fraction` so traces and replays are bit-exact.
    """

    __slots__ = ("lo", "hi", "step")

    def __init__(self, lo, hi, step=Fraction(1, 10)):
        lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
        if lo > hi:
            raise ValueError(f"empty real range [{lo}, {hi}]")
        if step <= 0:
            raise ValueError("step must be positive")
        self.lo = lo
        self.hi = hi
        self.step = step

    def contains(self, v):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            return False
        v = Fraction(v)
        if not self.lo <= v <= self.hi:
            return False
        return ((v - self.lo) / self.step).denominator == 1

    def canon(self, v):
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise DomainError(f"expected a number, got {v!r}")
        v = Fraction(v)
        if not self.contains(v):
            raise DomainError(f"{v} outside real[{self.lo}, {self.hi}] step {self.step}")
        return v

    def snap(self, x):
        """Nearest grid value to a float/number, clamped to [lo, hi]."""
        k = round((Fraction(x).limit_denominator(10**9) - self.lo) / self.step)
        v = self.lo + k * self.step
        return min(max(v, self.lo), self.hi)

    def __eq__(self, other):
        return isinstance(other, RealRange) and (
            (self.lo, self.hi, self.step) == (other.lo, other.hi, other.step)
        )

    def __repr__(self):
        return f"real[{self.lo}, {self.hi}] step {self.step}"


class EnumDomain:
    __slots__ = ("values",)

    def __init__(self, values):
        values = tuple(values)
        if len(set(values)) != len(values):
            raise ValueError("duplicate enumeration values")
        self.values = values

    def contains(self, v):
        return v in self.values

    def canon(self, v):
        if v not in self.values:
            raise DomainError(f"{v!r} not in enum {{{', '.join(self.values)}}}")
        return v

    def __eq__(self, other):
        return isinstance(other, EnumDomain) and self.values == other.values

    def __repr__(self):
        return "enum {%s}" % ", ".join(self.values)


class VarDecl:
    __slots__ = ("name", "domain")

    def __init__(self, name, domain):
        self.name = name
        self.domain = domain

    def __eq__(self, other):
        return (
            isinstance(other, VarDecl)
            and self.name == other.name
            and self.domain == other.domain
        )


# ---------------------------------------------------------------------------
# component types and instances

AGENT = "agent"
OBJECT = "object"


class ControllerSpec:
    """An explicit automaton for an agent type: modes plus guarded
    mode-transition commands.  Transitions are compiled into rules by the
    coordination module."""

    __slots__ = ("modes", "init", "transitions")

    def __init__(self, modes, init, transitions=()):
        self.modes = tuple(modes)
        if init not in self.modes:
            raise ValueError(f"initial mode {init!r} not declared")
        self.init = init
        self.transitions = list(transitions)


class ComponentType:
    __slots__ = ("name", "kind", "vars", "dynamics", "controller")

    def __init__(self, name, kind, vars=(), dynamics=(), controller=None):
        if kind not in (AGENT, OBJECT):
            raise ValueError(f"bad component kind {kind!r}")
        if kind == OBJECT and controller is not None:
            raise ValueError("objects have no controller")
        if kind == AGENT and dynamics:
            raise ValueError("agents have no internal dynamics")
        self.name = name
        self.kind = kind
        self.vars = {}
        for v in vars:
            if v.name in self.vars:
                raise ValueError(f"duplicate var {v.name!r} in type {name!r}")
            self.vars[v.name] = v
        self.dynamics = list(dynamics)
        self.controller = controller
        if controller is not None:
            if "mode" in self.vars:
                raise ValueError("'mode' is reserved for controller automata")
            self.vars["mode"] = VarDecl("mode", EnumDomain(controller.modes))

    def default_state(self):
        state = {}
        for name, decl in self.vars.items():
            d = decl.domain
            if isinstance(d, BoolDomain):
                state[name] = False
            elif isinstance(d, IntRange):
                state[name] = d.lo
            elif isinstance(d, RealRange):
                state[name] = d.lo
            else:
                state[name] = d.values[0]
        if self.controller is not None:
            state["mode"] = self.controller.init
        return state


class ComponentInstance:
    __slots__ = ("id", "type", "state", "_canon", "_text")

    def __init__(self, cid, ctype, state=None):
        self.id = cid
        self.type = ctype
        full = ctype.default_state()
        if state:
            for k, v in state.items():
                if k not in ctype.vars:
                    raise DomainError(f"type {ctype.name!r} has no var {k!r}")
                full[k] = ctype.vars[k].domain.canon(v)
        self.state = full
        self._canon = self._text = None

    def copy(self):
        c = ComponentInstance.__new__(ComponentInstance)
        c.id = self.id
        c.type = self.type
        c.state = dict(self.state)
        c._canon = c._text = None
        return c

    def canonical(self):
        if self._canon is None:
            self._canon = (self.id, self.type.name, tuple(sorted(self.state.items())))
        return self._canon

    def canonical_repr(self):
        if self._text is None:
            self._text = repr(self.canonical())
        return self._text


class Motif:
    """A world bundling a map, member components and coordination rules."""

    __slots__ = ("id", "map", "members", "interaction_rules", "configuration_rules",
                 "_canon", "_text")

    def __init__(self, mid, map, members=(), interaction_rules=(), configuration_rules=()):
        self.id = mid
        self.map = map
        self.members = set(members)
        self.interaction_rules = list(interaction_rules)
        self.configuration_rules = list(configuration_rules)
        names = set()
        for r in self.interaction_rules + self.configuration_rules:
            if r.name in names:
                raise ValueError(f"duplicate rule {r.name!r}")
            names.add(r.name)
        self._canon = self._text = None

    def copy(self, copy_map=False, copy_members=False):
        m = Motif.__new__(Motif)
        m.id = self.id
        m.map = self.map.copy() if copy_map else self.map
        m.members = set(self.members) if copy_members else self.members
        m.interaction_rules = self.interaction_rules
        m.configuration_rules = self.configuration_rules
        m._canon = m._text = None
        return m

    def canonical(self):
        if self._canon is None:
            self._canon = (self.id, self.map.canonical(), tuple(sorted(self.members)))
        return self._canon

    def canonical_repr(self):
        if self._text is None:
            self._text = "(%r, %s, %r)" % (
                self.id, self.map.canonical_repr(), tuple(sorted(self.members)))
        return self._text


class Configuration:
    """Global system state: components, motifs, and the partial address
    function mapping (component id, motif id) to a map node."""

    __slots__ = ("components", "motifs", "addresses", "types", "counters", "_hash")

    def __init__(self, components=(), motifs=(), types=None):
        self.components = {}
        for c in components:
            if c.id in self.components:
                raise ValueError(f"duplicate component id {c.id!r}")
            self.components[c.id] = c
        self.motifs = {}
        for m in motifs:
            if m.id in self.motifs:
                raise ValueError(f"duplicate motif id {m.id!r}")
            self.motifs[m.id] = m
        self.addresses = {}
        self.types = dict(types or {})
        self.counters = {}
        self._hash = None
        self.check()

    # -- invariants ---------------------------------------------------------

    def check(self):
        for m in self.motifs.values():
            for cid in m.members:
                if cid not in self.components:
                    raise UnknownComponent(
                        f"motif {m.id!r} references missing component {cid!r}"
                    )
        for (cid, mid), n in self.addresses.items():
            m = self.motifs.get(mid)
            if m is None:
                raise UnknownMotif(f"address entry for missing motif {mid!r}")
            if cid not in m.members:
                raise NotAMember(f"{cid!r} addressed in {mid!r} but not a member")
            if n not in m.map.nodes:
                raise UnknownNode(f"address of {cid!r} in {mid!r} is off-map: {n!r}")

    # -- cloning ------------------------------------------------------------

    def clone(self):
        c = Configuration.__new__(Configuration)
        c.components = dict(self.components)
        c.motifs = dict(self.motifs)
        c.addresses = dict(self.addresses)
        c.types = self.types
        c.counters = dict(self.counters)
        c._hash = None
        return c

    # -- queries ------------------------------------------------------------

    def motif(self, mid):
        m = self.motifs.get(mid)
        if m is None:
            raise UnknownMotif(f"no motif {mid!r}")
        return m

    def component(self, cid):
        c = self.components.get(cid)
        if c is None:
            raise UnknownComponent(f"no component {cid!r}")
        return c

    def address(self, cid, mid):
        """Node of `cid` in motif `mid`, or None when undefined."""
        return self.addresses.get((cid, mid))

    def occupied(self, mid, n):
        """Member ids of motif `mid` addressed at node `n`."""
        m = self.motif(mid)
        if n not in m.map.nodes:
            raise UnknownNode(f"no node {n!r} in motif {mid!r}")
        return {cid for cid in m.members if self.addresses.get((cid, mid)) == n}

    def fresh_id(self, type_name):
        k = self.counters.get(type_name, 0)
        self.counters[type_name] = k + 1
        return f"{type_name}#{k}"

    # -- mutating helpers (rule engine only, on clones) ---------------------

    def _touch_component(self, cid):
        c = self.component(cid).copy()
        self.components[cid] = c
        self._hash = None
        return c

    def _touch_motif(self, mid, copy_map=False, copy_members=False):
        m = self.motif(mid).copy(copy_map=copy_map, copy_members=copy_members)
        self.motifs[mid] = m
        self._hash = None
        return m

    def _place(self, cid, mid, n):
        m = self.motif(mid)
        if cid not in m.members:
            raise NotAMember(f"{cid!r} is not a member of {mid!r}")
        if n not in m.map.nodes:
            raise UnknownNode(f"no node {n!r} in motif {mid!r}")
        self.addresses[(cid, mid)] = n
        self._hash = None

    def _unplace(self, cid, mid):
        self.addresses.pop((cid, mid), None)
        self._hash = None

    def _dirty(self):
        self._hash = None

    # -- canonical form -----------------------------------------------------

    def canonical_key(self):
        return (
            tuple(self.components[cid].canonical() for cid in sorted(self.components)),
            tuple(self.motifs[mid].canonical() for mid in sorted(self.motifs)),
            tuple(sorted(self.addresses.items())),
            tuple(sorted(self.counters.items())),
        )

    def state_hash(self):
        """blake2b-64 of ``repr(self.canonical_key())``, joined from the
        fragments each component and motif caches."""
        if self._hash is None:
            comps, motifs = self.components, self.motifs
            text = "(%s, %s, %r, %r)" % (
                _tuple_repr([comps[cid].canonical_repr() for cid in sorted(comps)]),
                _tuple_repr([motifs[mid].canonical_repr() for mid in sorted(motifs)]),
                tuple(sorted(self.addresses.items())),
                tuple(sorted(self.counters.items())),
            )
            self._hash = blake2b(text.encode(), digest_size=8).hexdigest()
        return self._hash


def _tuple_repr(items):
    """``repr`` of a tuple whose items have the reprs `items`."""
    if len(items) == 1:
        return "(%s,)" % items[0]
    return "(%s)" % ", ".join(items)


def remember(memo, key, value, bound):
    """Store `memo[key] = value` and return `value`, evicting the oldest
    entry once `memo` holds more than `bound`: the one eviction policy of
    the engine's memos keyed by state hash."""
    memo[key] = value
    if len(memo) > bound:
        del memo[next(iter(memo))]
    return value
