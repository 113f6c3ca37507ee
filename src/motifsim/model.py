"""Static and dynamic structure of a system.

Component types, component instances, maps, partial address functions,
motifs and configurations.  Configurations have value semantics: a
`Configuration`'s edit methods are the only way to change one (`fresh_id`,
`set_var`, `add_component`, `remove_component`, `join`, `leave`, `place`,
`set_map`, `put_motif` and `drop_motif`), and their callers, a rule's
effects (`rules.apply`), the agents' belief revision and model building,
run them on a configuration of their own: `apply` on a private clone,
which it returns, leaving the argument untouched.

Clones share their unchanged components, motifs and maps.  No edit
changes a component or motif in place: it puts a ``copy()`` with the
change in the configuration's own dict.  Motif members (a frozenset) and
maps (`Map`) are values, so a changed motif gets new ones.  Each `Map`, `ComponentInstance` and `Motif` caches its canonical tuple on
first use, a `Map` that tuple's ``repr``, and a component or motif the
64-bit digest of its ``repr`` (`_digest`); ``copy()`` resets the cache.
A map also keeps its undirected adjacency and its distances from each
node asked about; its caches live as long as the map, which no edit
changes.

The state hash (version `HASH_VERSION`) is the XOR of one digest per
fragment of the canonical key: each component, each motif, each address
entry and each counter (Zobrist 1970; Holzmann, *The SPIN Model
Checker*, 2003).  Address entries and counters take theirs from a
bounded memo (`_entry_digest`).  A step thus pays one digest per
component or motif it touched and one XOR per fragment; the untouched
fragments are shared objects whose digest is cached.  A change made in
place on a shared object would leave the hash stale.  Equal hashes are
confirmed fragment by fragment (`Configuration.same_key`), where a
shared fragment is equal without a look.
"""

import heapq
import math
from fractions import Fraction
from hashlib import blake2b
from itertools import islice

from .errors import (
    DomainError,
    EffectError,
    NotAMember,
    UnknownComponent,
    UnknownEdge,
    UnknownMotif,
    UnknownNode,
)

#: The version of `Configuration.state_hash` that traces and controller
#: tables record; version 1 was blake2b-64 of the canonical key's text.
HASH_VERSION = 2


def _digest(text):
    """blake2b-64 of `text`, as an int."""
    return int.from_bytes(blake2b(text.encode(), digest_size=8).digest(), "big")


#: Digests of address entries ``((cid, mid), node)`` and counters
#: ``(type name, count)``, cleared when full: runs move their components
#: over the same few nodes, so a hash rarely formats and digests an
#: entry.  The memo only saves time: its keys hold the value's type,
#: since equal nodes (``1``, ``True``, ``Fraction(1)``) have other texts,
#: so no entry's digest depends on what was memoized before.
_ENTRY_DIGESTS = {}
ENTRY_DIGESTS = 4096


def _entry_digest(tag, entry):
    """blake2b-64 of `tag` and ``repr(entry)``, memoized."""
    k = (tag, entry, entry[1].__class__)
    d = _ENTRY_DIGESTS.get(k)
    if d is None:
        if len(_ENTRY_DIGESTS) >= ENTRY_DIGESTS:
            _ENTRY_DIGESTS.clear()
        d = _ENTRY_DIGESTS[k] = _digest(tag + repr(entry))
    return d


#: Returned by `Map.distance` when no directed path exists.  Comparisons
#: against finite bounds behave as expected (``UNREACHABLE < k`` is false).
UNREACHABLE = math.inf


def node_sort_key(n):
    # maps may use int or str node ids; never mix orderings
    return (0, n, "") if isinstance(n, int) else (1, 0, str(n))


class Map:
    """A directed graph of abstract coordinates with integer edge weights.

    A value: `nodes` is a frozenset, and each edit returns a new map.  What
    a map derives from its edges is made on first use and kept with it:
    its canonical tuple and text, the distances from each source
    (`distance`) and the undirected adjacency (`hops_from`), whose size
    is bounded by its edges.  `succ`, `distance`, `hops_from` and
    `hop_distance` raise `UnknownNode` on a node the map lacks."""

    __slots__ = ("nodes", "out", "_dist", "_adj", "_canon", "_text")

    def __init__(self, nodes=(), edges=()):
        out = {n: {} for n in nodes}
        for e in edges:
            a, b, w = e if len(e) == 3 else (*e, 1)
            if a not in out or b not in out:
                raise UnknownNode(f"edge endpoint missing: {a!r} -> {b!r}")
            if w < 0:
                raise ValueError("edge weight must be nonnegative")
            out[a][b] = int(w)
        self.nodes = frozenset(out)
        self.out = out
        self._dist = {}
        self._adj = self._canon = self._text = None

    def edge_list(self):
        return sorted(
            ((a, b, w) for a, d in self.out.items() for b, w in d.items()),
            key=lambda e: (node_sort_key(e[0]), node_sort_key(e[1])),
        )

    def has_edge(self, a, b):
        return a in self.out and b in self.out[a]

    def add_node(self, n):
        return Map(self.nodes | {n}, self.edge_list())

    def remove_node(self, n):
        if n not in self.nodes:
            raise UnknownNode(f"no node {n!r}")
        return Map(self.nodes - {n}, [e for e in self.edge_list() if n not in e[:2]])

    def add_edge(self, a, b, w=1):
        return Map(self.nodes, self.edge_list() + [(a, b, w)])

    def remove_edge(self, a, b):
        if not self.has_edge(a, b):
            raise UnknownEdge(f"no edge {a!r} -> {b!r}")
        return Map(self.nodes, [e for e in self.edge_list() if e[:2] != (a, b)])

    def succ(self, n):
        """The unique out-neighbor of node `n`, or None if out-degree != 1."""
        outs = self.out.get(n)
        if outs is None:
            raise UnknownNode(f"no node {n!r}")
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
        most `radius` hops away (used for sensing radii).  The BFS runs
        over the map's undirected adjacency, made on first use and kept
        as long as the map, like its canonical tuple."""
        if src not in self.nodes:
            raise UnknownNode(f"no node {src!r}")
        adj = self._adj
        if adj is None:
            adj = self._adj = {n: set() for n in self.nodes}
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
# variable domains: each one's `static` is its values' static type (`expr`)


class BoolDomain:
    __slots__ = ()
    static = "bool"

    def canon(self, v):
        if not isinstance(v, bool):
            raise DomainError(f"expected bool, got {v!r}")
        return v


class IntRange:
    __slots__ = ("lo", "hi")
    static = "int"

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


class RealRange:
    """Exact decimal-step reals: admissible values are lo + k*step.

    Values are carried as `Fraction` so traces and replays are bit-exact.
    """

    __slots__ = ("lo", "hi", "step")
    static = "real"

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
        """Whether the number `v` is a value of this range."""
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


class EnumDomain:
    __slots__ = ("values",)
    static = "enum"

    def __init__(self, values):
        values = tuple(values)
        if len(set(values)) != len(values):
            raise ValueError("duplicate enumeration values")
        self.values = values

    def canon(self, v):
        if v not in self.values:
            raise DomainError(f"{v!r} not in enum {{{', '.join(self.values)}}}")
        return v


class VarDecl:
    __slots__ = ("name", "domain")

    def __init__(self, name, domain):
        self.name = name
        self.domain = domain


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
    __slots__ = ("id", "type", "state", "_canon", "_digest")

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
        self._canon = self._digest = None

    def copy(self):
        c = ComponentInstance.__new__(ComponentInstance)
        c.id = self.id
        c.type = self.type
        c.state = dict(self.state)
        c._canon = c._digest = None
        return c

    def canonical(self):
        if self._canon is None:
            self._canon = (self.id, self.type.name, tuple(sorted(self.state.items())))
        return self._canon

    def digest(self):
        if self._digest is None:
            self._digest = _digest("c" + repr(self.canonical()))
        return self._digest


class Motif:
    """A world bundling a map, member components and coordination rules.

    `members` is a frozenset and `map` a `Map`: both are values, so an
    edit puts a copy with a new one in the configuration's place
    (`Configuration.join`, `leave`, `remove_component` and `set_map`), as
    ``cfg.join(cid, mid)`` does.  `rules` holds
    the interaction rules, then the configuration rules, each in
    declaration order; a rule's `kind` says which it is."""

    __slots__ = ("id", "map", "members", "rules", "_canon", "_digest", "_by_type")

    def __init__(self, mid, map, members=(), rules=()):
        self.id = mid
        self.map = map
        self.members = frozenset(members)
        self.rules = list(rules)
        names = set()
        for r in self.rules:
            if r.name in names:
                raise ValueError(f"duplicate rule {r.name!r}")
            names.add(r.name)
        self._canon = self._digest = None
        self._by_type = (None, None)

    def copy(self):
        m = Motif.__new__(Motif)
        m.id = self.id
        m.map = self.map
        m.members = self.members
        m.rules = self.rules
        m._canon = m._digest = None
        m._by_type = self._by_type
        return m

    def members_by_type(self, types, components):
        """A dict from each type name in `types` to the sorted ids of the
        members of that type in `components`, their configuration's.  The
        lists are kept for the `members` object they were made from, and
        shared with copies, so a new members value makes new ones; a
        component's type is fixed by its id (`create` makes fresh ids)."""
        members, lists = self._by_type
        if members is not self.members:
            members, lists = self._by_type = (self.members, {})
        for t in types:
            if t not in lists:
                lists[t] = [cid for cid in sorted(members)
                            if components[cid].type.name == t]
        return lists

    def canonical(self):
        if self._canon is None:
            self._canon = (self.id, self.map.canonical(), tuple(sorted(self.members)))
        return self._canon

    def digest(self):
        if self._digest is None:
            self._digest = _digest("m(%r, %s, %r)" % (
                self.id, self.map.canonical_repr(), tuple(sorted(self.members))))
        return self._digest


class Configuration:
    """Global system state: components, motifs, and the partial address
    function mapping (component id, motif id) to a map node."""

    __slots__ = ("components", "motifs", "addresses", "types", "counters", "_hash")

    def __init__(self, components=(), motifs=(), types=None):
        self.components = {c.id: c for c in components}
        self.motifs = {}
        self.addresses = {}
        self.types = dict(types or {})
        self.counters = {}
        self._hash = None
        for m in motifs:
            self.put_motif(m)

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

    # -- edits --------------------------------------------------------------
    #
    # The only ways to change a configuration.  Rule effects, belief
    # revision and model building call them on a configuration no one else
    # holds (`apply`'s clone).  Each edit checks what it needs, keeps the
    # configuration well-formed (every member is a component; every address
    # belongs to a member and lies on its motif's map) and resets the cached
    # hash.  It puts a new component or motif in place of the one it
    # changes, which other clones may share: none is changed in place.

    def fresh_id(self, type_name):
        """A new id for a component of type `type_name`, counted in the
        type's counter, which is part of the state."""
        k = self.counters.get(type_name, 0)
        self.counters[type_name] = k + 1
        self._hash = None
        return f"{type_name}#{k}"

    def set_var(self, cid, var, value):
        """Set var `var` of component `cid` to `value` as given: an effect
        gives the value its var's domain makes of what it computed
        (`canon`), belief revision the one a sensor reported."""
        c = self.component(cid).copy()
        c.state[var] = value
        self.components[cid] = c
        self._hash = None

    def add_component(self, comp):
        """Add the component `comp`, a member of no motif; its id is new."""
        if comp.id in self.components:
            raise ValueError(f"component {comp.id!r} already exists")
        self.components[comp.id] = comp
        self._hash = None

    def remove_component(self, cid):
        """Remove component `cid`, with its memberships and addresses."""
        if cid not in self.components:
            raise UnknownComponent(f"delete of nonexistent component {cid!r}")
        del self.components[cid]
        for m in list(self.motifs.values()):
            if cid in m.members:
                self.leave(cid, m.id)
        self._hash = None

    def join(self, cid, mid):
        """Make component `cid` a member of motif `mid`."""
        self._known(cid, mid)
        m = self.motif(mid)
        self._put(m, m.members | {cid}, m.map)

    def leave(self, cid, mid):
        """Drop member `cid` of motif `mid`, with its address there."""
        m = self._member(cid, mid)
        self._put(m, m.members - {cid}, m.map)
        self.addresses.pop((cid, mid), None)

    def place(self, cid, mid, n):
        """Address member `cid` of motif `mid` at node `n` of its map."""
        m = self._member(cid, mid)
        if n not in m.map.nodes:
            raise UnknownNode(f"no node {n!r} in motif {mid!r}")
        self.addresses[(cid, mid)] = n
        self._hash = None

    def set_map(self, mid, map):
        """Give motif `mid` the map `map`, which keeps every node of the
        old one that a member is addressed at."""
        m = self.motif(mid)
        for n in m.map.nodes - map.nodes:
            occ = self.occupied(mid, n)
            if occ:
                raise EffectError(f"node {n!r} of {mid!r} is occupied by {sorted(occ)}")
        self._put(m, m.members, map)

    def put_motif(self, motif):
        """Put the motif `motif`, its members unaddressed, in place of any
        motif of its id; each member must be a component."""
        for cid in motif.members:
            self._known(cid, motif.id)
        if motif.id in self.motifs:
            self.drop_motif(motif.id)
        self.motifs[motif.id] = motif
        self._hash = None

    def drop_motif(self, mid):
        """Remove motif `mid`, with its members' addresses there."""
        for cid in self.motif(mid).members:
            self.addresses.pop((cid, mid), None)
        del self.motifs[mid]
        self._hash = None

    def _known(self, cid, mid):
        """Reject `cid`, a member of motif `mid`, unless it is a component."""
        if cid not in self.components:
            raise UnknownComponent(f"motif {mid!r} references missing component {cid!r}")

    def _member(self, cid, mid):
        """Motif `mid`, which must have `cid` as a member."""
        m = self.motif(mid)
        if cid not in m.members:
            raise NotAMember(f"{cid!r} is not a member of {mid!r}")
        return m

    def _put(self, m, members, map):
        """Put a copy of motif `m` with `members` and `map` in its place."""
        m = m.copy()
        m.members = members
        m.map = map
        self.motifs[m.id] = m
        self._hash = None

    # -- canonical form -----------------------------------------------------

    def canonical_key(self):
        return (
            tuple(self.components[cid].canonical() for cid in sorted(self.components)),
            tuple(self.motifs[mid].canonical() for mid in sorted(self.motifs)),
            tuple(sorted(self.addresses.items())),
            tuple(sorted(self.counters.items())),
        )

    def same_key(self, other):
        """``self.canonical_key() == other.canonical_key()``, without
        building either: the same component and motif ids, each fragment
        the same object or of an equal `canonical()`, and equal addresses
        and counters."""
        if self.addresses != other.addresses or self.counters != other.counters:
            return False
        for mine, theirs in ((self.components, other.components),
                             (self.motifs, other.motifs)):
            if mine.keys() != theirs.keys():
                return False
            for k, a in mine.items():
                b = theirs[k]
                if a is not b and a.canonical() != b.canonical():
                    return False
        return True

    def state_hash(self):
        """The XOR of the digests of the canonical key's fragments, as 16
        hex digits: a function of the fragments' texts alone, so the same
        configuration hashes alike in every process."""
        if self._hash is None:
            h = 0
            for c in self.components.values():
                h ^= c.digest()
            for m in self.motifs.values():
                h ^= m.digest()
            for e in self.addresses.items():
                h ^= _entry_digest("a", e)
            for e in self.counters.items():
                h ^= _entry_digest("n", e)
            self._hash = "%016x" % h
        return self._hash


#: Per-state records a `World` keeps between steps, truth and believed
#: states alike.  The bundled runs come back to at most 18 states (the
#: thermostat 18, soccer 2; platoon and shuttle never revisit one, 3,000
#: steps at seeds 0-1).  Plans reuse the records of earlier plans: the
#: ten traced `agent_platoon` worlds (seed 10) list 2,959 times with 1,950
#: planner expansions at 64, and 2,948 and 1,939 at both 128 and 1024
#: (`py.gc_s` 0.003, 0.006 and 0.011 s), under the trim of each step
#: below: a larger bound saves under 0.4% of the listings.  Each
#: record keeps its fired successors and its plans alive, so a larger
#: bound costs memory, and collector time: reference counting frees an
#: evicted record, but the collector traverses every live one.  In the benchmark (2-vCPU VM,
#: three 30 s runs per bound, taken when records were evicted on insert),
#: `sim_fresh` `round_s` read 0.95-0.97 s at 64 and 1.04-1.09 at 1024
#: (`peak_rss_mb` 56.4 and 58.2-59.5; traced once each, `py.gc_s` 0.03
#: and 0.11 s), and `agent_platoon` `peak_rss_mb` 22.5-22.8 MB at 64 and
#: 24.4-24.7 at 1024, with `round_s` 0.39-0.40 s and 0.38-0.41 s.  The
#: bound holds between steps only (`trim`): a step's plans may add any
#: number of records, and none is evicted while they run.
RECORDS = 64


class Record:
    """What the engine derives from one state hash.  Each part is a pure
    function of it: a `World`'s configurations give each motif name one
    set of rules (the `platoon_chain` pattern leaves a ruled motif
    alone), the deliberative egos are fixed per `World`, and a table
    controller looks its command up by state hash.  The listing does not
    depend on an ego either: `Candidate.controlled_by` records who owns
    each candidate.  It is shared with the agents' planner, so no caller
    may change a fired successor (configurations are copy-on-write).

    `plans` holds the planner's AND-OR values at the state's agent turns
    that the planner expands (`games._Search.agent_step`): whether the
    goals can be met, the best pessimistic value and the best move,
    under the ego, the goals, the agent turns left and the goal flags.
    A state the planner reaches only as a leaf, after its last agent
    turn, gets no record.  A decision is the value at its root, so
    deciding again on the same belief and goals plans nothing.

    `pools` and `pool` hold the scheduler's moves (`sim._SUCC`), one per
    candidate: its event's fields and, once it has fired, its successor
    and that successor's state hash.  `pools` splits them as the
    scheduler's pools, and `pool` is the first nonempty one, which a
    random step draws from when no runtime chose a command.  A step on a
    known state thus reads what it commits and fires nothing again."""

    __slots__ = ("cands", "pool", "pools", "failing", "plans")

    def __init__(self):
        self.cands = None    # sim.World._fill, the planner: the state's `step_candidates`
        self.pool = None     # sim.World._fill: the moves a random step draws from
        self.pools = None    # sim.World._fill: (by_label, p1, p2, p3) of the moves
        self.failing = None  # sim.World._failing: results of failing `always` checks
        self.plans = {}      # games._Search.agent_step: key -> (ok, value, action)


def record(records, h):
    """The record of state hash `h` in `records`, a dict from state hash
    to `Record`, made when it has none.  It evicts nothing (`trim` does),
    so a record stays in `records` while a plan uses it.  The caller
    passes the hash it took, so that a caller which needs the hash too
    takes it once."""
    rec = records.get(h)
    if rec is None:
        rec = records[h] = Record()
    return rec


def trim(records):
    """Evict the oldest records of `records` until at most `RECORDS`
    remain: the one bound of the engine's per-state memos, which a
    `World` applies at the end of a step that exceeded it.  k excess
    records take one pass over the k oldest keys: deleting the front
    key k times would walk past the deleted slots on each new iterator."""
    excess = len(records) - RECORDS
    if excess == 1:
        del records[next(iter(records))]
    elif excess > 1:
        for h in list(islice(records, excess)):
            del records[h]
