"""Outside-in layer tracing.

`install` replaces each layer's public functions at the name the caller
looks them up by: `from .rules import step_candidates` binds the
function in the importing module, so the wrapper goes on
`motifsim.sim.step_candidates` and `motifsim.games.step_candidates`, not
only on `motifsim.rules`.  Methods are wrapped on their class.  Nothing
in the engine changes.

While the recorder is on, which is only while a workload's clock runs, a
wrapper records one span: (id, name, parent id, start, end), appended to
flat arrays when the call returns, so that children precede parents.
Only the wrapped call itself lies between start and end.  Layer self
time is a span's duration minus its child spans' durations; the
wrapper's own cost, measured by `calibrate`, is then subtracted, because
many layer calls (a cached `state_hash`, a guard) take well under a
microsecond.  Garbage-collector pauses are read through `gc.callbacks`.
"""

import array
import gc
import gzip
import itertools
import json
import statistics
import time
from collections import Counter

from motifsim import agents, games, model, rules, sim

# Layers wrapped on a module: (module, attribute, span name).
_FUNCTIONS = (
    (sim, "run", "sim.run"),
    (sim, "step_candidates", "rules.step_candidates"),
    (games, "step_candidates", "rules.step_candidates"),
    (rules, "apply", "rules.apply"),
    (games, "solve_safety", "games.solve_safety"),
    (games, "solve_reach", "games.solve_reach"),
    (agents, "plan_horizon", "games.plan_horizon"),
    (agents, "perceive", "agents.perceive"),
    (agents, "reflect", "agents.reflect"),
    (agents, "adapt", "agents.adapt"),
    (agents, "manage_goals", "agents.manage_goals"),
    (agents, "decide", "agents.decide"),
)

# Layers wrapped on a class: (class, method, span name).
_METHODS = (
    (sim.World, "advance", "sim.advance"),
    (sim.Trace, "text", "sim.trace_text"),
    (agents.AgentRuntime, "step", "agents.step"),
    (model.Configuration, "state_hash", "model.state_hash"),
    (model.Configuration, "canonical_key", "model.canonical_key"),
    (model.Configuration, "clone", "model.clone"),
)


class Recorder:
    """Spans of the current round, kept in memory."""

    def __init__(self):
        self.on = False
        self.names = []
        self._ids = {}
        self._guards = {}
        self._gc_t0 = None
        self.reset()

    def reset(self):
        self.sid = array.array("i")
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.next_id = itertools.count()
        self.stack = [-1]
        self.tally = Counter()
        self.gc_ns = 0
        self.gc_full = 0

    def intern(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn, on_result=None):
        nid = self.intern(name)
        clock = time.perf_counter_ns
        rec = self

        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            i = next(rec.next_id)
            stack = rec.stack
            parent = stack[-1]
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.sid.append(i)
                rec.name.append(nid)
                rec.parent.append(parent)
                rec.start.append(t0)
                rec.end.append(t1)
            if on_result is not None:
                on_result(rec.tally, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def wrap_guard(self, guard):
        w = self._guards.get(guard)
        if w is None:
            w = self._guards[guard] = self.wrap("expr.guard", guard)
        return w

    def gc_callback(self, phase, info):
        if not self.on:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter_ns()
        elif self._gc_t0 is not None:
            self.gc_ns += time.perf_counter_ns() - self._gc_t0
            self._gc_t0 = None
            if info["generation"] == 2:
                self.gc_full += 1

    def snapshot(self):
        """The current round's raw spans, for writing out later."""
        return {"names": list(self.names), "id": self.sid, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end}


def _count_bindings(tally, bindings):
    tally["bindings"] += len(bindings)


def _count_game(tally, game):
    tally["ground.states"] += len(game.states)
    tally["ground.edges"] += sum(len(s.actions) for s in game.states)


def install(rec):
    """Wrap every layer boundary; the wrappers stay for the process."""
    for mod, attr, name in _FUNCTIONS:
        setattr(mod, attr, rec.wrap(name, getattr(mod, attr)))
    for cls, attr, name in _METHODS:
        setattr(cls, attr, rec.wrap(name, getattr(cls, attr)))
    rules.enabled_bindings = rec.wrap(
        "rules.enabled_bindings", rules.enabled_bindings, _count_bindings)
    games.ground = rec.wrap("games.ground", games.ground, _count_game)

    # A rule's compiled guard is cached on the rule, so each guard handed
    # out is wrapped instead of the compiler.
    guard_fn = rules.Rule.guard_fn

    def traced_guard_fn(self):
        return rec.wrap_guard(guard_fn(self))

    rules.Rule.guard_fn = traced_guard_fn
    gc.callbacks.append(rec.gc_callback)


def uninstall_gc(rec):
    gc.callbacks.remove(rec.gc_callback)


def calibrate(calls=10000, trials=5):
    """The wrapper's own cost per span, in ns: (inside it, outside it).

    The host's speed drifts, so this is measured next to every traced
    round, on a recorder of its own."""
    def noop(x):  # most wrapped calls pass one argument, often `self`
        return x

    rec = Recorder()
    traced = rec.wrap("calibration", noop)
    inner, outer = [], []
    for _ in range(trials):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop(rec)
        plain = (time.perf_counter_ns() - t0) / calls
        rec.reset()
        rec.on = True
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            traced(rec)
        wrapped = (time.perf_counter_ns() - t0) / calls
        rec.on = False
        span = statistics.median(e - s for s, e in zip(rec.start, rec.end))
        inner.append(max(span - plain, 0.0))
        outer.append(max(wrapped - span, 0.0))
    return statistics.median(inner), statistics.median(outer)


def layer_metrics(rec, inner, outer):
    """Per-layer numbers of one traced round, with the wrapper's cost per
    span (`inner` inside it, `outer` outside it, in ns) subtracted."""
    names = rec.names
    ids = {n: i for i, n in enumerate(names)}
    sid, name, parent, start, end = rec.sid, rec.name, rec.parent, rec.start, rec.end
    n = len(sid)
    k = len(names)
    # children are recorded before their parent, so one pass suffices
    child_ns = [0] * n
    kids = [0] * n
    desc = [0] * n
    name_of = [0] * n  # by span id
    parent_of = [-1] * n
    calls = [0] * k
    incl = [0.0] * k
    selft = [0.0] * k
    for j in range(n):
        i, nm, p = sid[j], name[j], parent[j]
        d = end[j] - start[j]
        name_of[i] = nm
        parent_of[i] = p
        calls[nm] += 1
        incl[nm] += d - inner - desc[i] * (inner + outer)
        selft[nm] += d - child_ns[i] - inner - kids[i] * outer
        if p >= 0:
            child_ns[p] += d
            kids[p] += 1
            desc[p] += desc[i] + 1

    def c(s):
        return calls[ids[s]] if s in ids else 0

    def self_s(s):
        return max(selft[ids[s]], 0.0) / 1e9 if s in ids else 0.0

    def incl_s(s):
        return max(incl[ids[s]], 0.0) / 1e9 if s in ids else 0.0

    def within(p, target):
        """Whether span `p` or one of its ancestors is named `target`."""
        while p >= 0:
            if name_of[p] == target:
                return True
            p = parent_of[p]
        return False

    advance = ids.get("sim.advance", -1)
    planner = ids.get("games.plan_horizon", -1)
    agent_step = ids.get("agents.step", -1)
    cands = ids.get("rules.step_candidates", -1)
    apply_ = ids.get("rules.apply", -1)
    cand_in_advance = apply_in_advance = expansions = plans_in_step = 0
    for j in range(n):
        nm, p = name[j], parent[j]
        direct = p >= 0 and name_of[p] == advance
        if nm == cands:
            cand_in_advance += direct
            expansions += within(p, planner)
        elif nm == apply_:
            apply_in_advance += direct
        elif nm == planner:
            plans_in_step += within(p, agent_step)

    def ratio(a, b):
        return a / b if b else 0.0

    ground_s = incl_s("games.ground")
    return {
        "model.state_hash.calls": c("model.state_hash"),
        "model.state_hash.self_s": self_s("model.state_hash"),
        "model.canonical_key.calls": c("model.canonical_key"),
        "model.canonical_key.self_s": self_s("model.canonical_key"),
        "model.clone.calls": c("model.clone"),
        "expr.guard.evals": c("expr.guard"),
        "expr.guard.self_s": self_s("expr.guard"),
        "expr.guard.pass_ratio": ratio(rec.tally["bindings"], c("expr.guard")),
        "rules.step_candidates.calls": c("rules.step_candidates"),
        "rules.step_candidates.self_s": self_s("rules.step_candidates"),
        "rules.enabled_bindings.calls": c("rules.enabled_bindings"),
        "rules.enabled_bindings.self_s": self_s("rules.enabled_bindings"),
        "rules.apply.calls": c("rules.apply"),
        "rules.apply.self_s": self_s("rules.apply"),
        "sim.advance.calls": c("sim.advance"),
        "sim.advance.self_s": self_s("sim.advance"),
        "sim.run.self_s": self_s("sim.run"),
        "sim.trace_text_s": incl_s("sim.trace_text"),
        "sim.cand_miss_ratio": ratio(cand_in_advance, c("sim.advance")),
        "sim.apply_miss_ratio": ratio(apply_in_advance, c("sim.advance")),
        "games.ground.s": ground_s,
        "games.ground.states": rec.tally["ground.states"],
        "games.ground.edges": rec.tally["ground.edges"],
        "games.ground.states_per_s": ratio(rec.tally["ground.states"], ground_s),
        "games.solve_safety.s": incl_s("games.solve_safety"),
        "games.solve_reach.s": incl_s("games.solve_reach"),
        "games.plan_horizon.calls": c("games.plan_horizon"),
        "games.plan_horizon.self_s": self_s("games.plan_horizon"),
        "games.plan_horizon.expansions": expansions,
        "agents.step.calls": c("agents.step"),
        "agents.perceive.self_s": self_s("agents.perceive"),
        "agents.reflect.calls": c("agents.reflect"),
        "agents.reflect.self_s": self_s("agents.reflect"),
        "agents.adapt.self_s": self_s("agents.adapt"),
        "agents.manage_goals.s": incl_s("agents.manage_goals"),
        "agents.decide.calls": c("agents.decide"),
        "agents.decide.s": incl_s("agents.decide"),
        "agents.plan_per_step": ratio(plans_in_step, c("agents.step")),
        "py.gc_s": rec.gc_ns / 1e9,
        "py.gc_full": rec.gc_full,
        "trace.spans": n,
        "trace.wrapper_s": n * (inner + outer) / 1e9,
    }


def write_spans(path, snapshot, meta):
    """Write one round's spans once, as gzipped JSON; times in ns from
    the round's first span."""
    t0 = min(snapshot["start"], default=0)
    doc = dict(meta)
    doc.update({
        "names": snapshot["names"],
        "fields": ["id", "name", "parent", "start_ns", "end_ns"],
        "id": snapshot["id"].tolist(),
        "name": snapshot["name"].tolist(),
        "parent": snapshot["parent"].tolist(),
        "start_ns": [s - t0 for s in snapshot["start"]],
        "end_ns": [e - t0 for e in snapshot["end"]],
    })
    with gzip.open(path, "wt", compresslevel=1) as f:
        json.dump(doc, f, separators=(",", ":"))
