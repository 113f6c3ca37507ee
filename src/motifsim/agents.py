"""The deliberative agent loop.

Five cooperating modules around a knowledge repository: perceive,
reflect, adapt, manage_goals, decide.  An agent never reads the ground
truth directly; it plans on the believed model its reflection maintains,
so belief/truth divergence under weak sensors is observable.
"""

import random
from fractions import Fraction

from .errors import EgoUnplaced, NoSafePlan
from .goals import AVOID, CRITICAL
from .model import Configuration, ComponentInstance, RealRange, record
from .games import IDLE, plan_horizon

DEFAULT_THRESHOLDS = {
    "alpha": Fraction(1, 5),
    "theta_hi": Fraction(3, 2),
    "theta_lo": Fraction(2, 3),
    "k_stale": 5,
    "horizon_cap": 6,
}


def checked_thresholds(overrides=None):
    """`DEFAULT_THRESHOLDS` updated with `overrides`, each in its range:
    the EWMA weight `alpha` in [0, 1], the ratios `theta_hi`/`theta_lo`
    nonnegative, the step counts `k_stale`/`horizon_cap` integers >= 1."""
    th = dict(DEFAULT_THRESHOLDS)
    th.update(overrides or {})
    if not 0 <= th["alpha"] <= 1:
        raise ValueError("threshold alpha outside [0, 1]")
    for k in ("theta_hi", "theta_lo"):
        if th[k] < 0:
            raise ValueError(f"threshold {k} must be nonnegative")
    for k in ("k_stale", "horizon_cap"):
        if th[k] != int(th[k]) or th[k] < 1:
            raise ValueError(f"threshold {k} must be an integer >= 1")
    return th


# ---------------------------------------------------------------------------
# sensing


class SensorSpec:
    """What an agent can observe of the motif it is placed in.

    `visible` maps type name to the tuple of observable vars (None =
    all); `noise` maps (type, var) to a Gaussian stdev.
    """

    __slots__ = ("motif", "radius", "visible", "identity", "noise", "detect")

    def __init__(self, motif, radius="inf", visible=None, identity=True,
                 noise=None, detect=Fraction(1)):
        if not (0 <= detect <= 1):
            raise ValueError("detect probability outside [0, 1]")
        if radius != "inf" and radius < 0:
            raise ValueError("sensor radius must be nonnegative")
        self.motif = motif
        self.radius = radius
        self.visible = dict(visible or {})
        self.identity = identity
        self.noise = dict(noise or {})
        for sd in self.noise.values():
            if sd < 0:
                raise ValueError("noise stdev must be nonnegative")
        self.detect = Fraction(detect)

    @classmethod
    def from_def(cls, sd, default_motif=None):
        """Build from a parsed sensor block."""
        if sd is None:
            return cls(default_motif)
        return cls(
            sd.motif if sd.motif is not None else default_motif,
            radius=sd.radius,
            visible={t: (None if attrs is None else tuple(attrs))
                     for t, attrs in sd.see},
            identity=sd.identity,
            noise={(t, v): s for t, v, s in sd.noise},
            detect=sd.detect,
        )


class Detection:
    __slots__ = ("type", "id", "node", "state")

    def __init__(self, type, id, node, state):
        self.type = type
        self.id = id
        self.node = node
        self.state = state

    def canonical(self):
        return (self.type, self.id, self.node, tuple(sorted(self.state.items())))


class Percept:
    """What a sensor saw: its motif's id and map (the truth's `Map`, a
    value), the detections and the nodes in range."""

    __slots__ = ("step", "motif", "map", "detections", "visible_nodes")

    def __init__(self, step, motif, map, detections, visible_nodes):
        self.step = step
        self.motif = motif
        self.map = map
        self.detections = detections
        self.visible_nodes = visible_nodes

    def canonical(self):
        return (self.motif, self.map.canonical(),
                tuple(d.canonical() for d in self.detections),
                tuple(sorted(self.visible_nodes, key=lambda n: (str(type(n)), str(n)))))


def perceive(truth, ego, spec, step=0, rng=None):
    """Sense the motif around the ego's address.

    Components of visible types addressed within `spec.radius` hops are
    detected with probability `spec.detect`; real-valued visible attrs
    are perturbed by seeded Gaussian noise, snapped back to their decimal
    grid and clamped.  Raises `EgoUnplaced` when the ego has no address
    in the sensed motif.
    """
    mid = spec.motif
    here = truth.address(ego, mid)
    if here is None:
        raise EgoUnplaced(f"{ego!r} has no address in {mid!r}")
    m = truth.motif(mid)
    rng = rng or random.Random(0)

    if spec.radius == "inf":
        visible_nodes = set(m.map.nodes)
    else:
        visible_nodes = set(m.map.hops_from(here, spec.radius))

    detections = []
    for cid in sorted(m.members):
        comp = truth.components[cid]
        if comp.type.name not in spec.visible:
            continue
        node = truth.address(cid, mid)
        if node is None or node not in visible_nodes:
            continue
        if spec.detect < 1 and not rng.random() < spec.detect:
            continue
        attrs = spec.visible[comp.type.name]
        names = sorted(comp.state) if attrs is None else [
            a for a in attrs if a in comp.state]
        state = {}
        for a in names:
            v = comp.state[a]
            sd = spec.noise.get((comp.type.name, a), 0)
            if sd:
                dom = comp.type.vars[a].domain
                noisy = float(v) + rng.gauss(0.0, float(sd))
                v = dom.snap(noisy) if isinstance(dom, RealRange) else v
            state[a] = v
        detections.append(Detection(comp.type.name,
                                    cid if spec.identity else None,
                                    node, state))
    return Percept(step, mid, m.map, detections, visible_nodes)


# ---------------------------------------------------------------------------
# reflection


class EnvModel:
    """The agent's believed configuration plus per-component staleness."""

    __slots__ = ("cfg", "motif", "staleness", "hypo")

    def __init__(self, cfg, motif, staleness=None, hypo=0):
        self.cfg = cfg
        self.motif = motif
        self.staleness = dict(staleness or {})
        self.hypo = hypo

    def digest(self):
        return self.cfg.state_hash()

    @classmethod
    def blank(cls, truth, motif):
        """An initial believed model: the design-time motif structure
        with no tracked components."""
        motifs = [m.copy() for m in truth.motifs.values()]
        for m in motifs:
            m.members = frozenset()
        return cls(Configuration((), motifs, truth.types), motif)


def reflect(model, percept, repo=None, k_stale=5):
    """Fold one percept into the believed model.

    The sensed motif takes the percept's map, so the truth's map edits
    reach the belief; a tracked component on a node the new map lacks is
    dropped (the truth removes only unoccupied nodes).  Identity-bearing
    detections update their tracked component; anonymous ones associate
    to the nearest tracked same-type component within 1 hop (ties by
    lexicographic id) or spawn a hypothesis.  Tracked components that
    stay unseen inside the visible region for `k_stale` steps are
    dropped.  Repository motif patterns then rebuild believed motifs over
    the updated model.
    """
    cfg = model.cfg.clone()
    mid = model.motif
    m = cfg._touch_motif(mid)
    stale = dict(model.staleness)
    hypo = model.hypo
    seen = set()

    def drop(cid):
        m.members -= {cid}
        cfg._unplace(cid, mid)
        if not any(cid in mm.members for mm in cfg.motifs.values()):
            del cfg.components[cid]
        stale.pop(cid, None)
        cfg._dirty()

    if m.map is not percept.map:
        m.map = percept.map
        for cid in sorted(m.members):
            if cfg.address(cid, mid) not in m.map.nodes:
                drop(cid)

    def upsert(cid, det):
        comp = cfg.components.get(cid)
        if comp is None:
            cfg.components[cid] = ComponentInstance(
                cid, cfg.types[det.type], det.state)
            cfg._dirty()
        else:
            comp = cfg._touch_component(cid)
            for k, v in det.state.items():
                comp.state[k] = v
        m.members |= {cid}
        cfg._place(cid, mid, det.node)
        stale[cid] = 0
        seen.add(cid)

    anonymous = []
    for det in percept.detections:
        if det.id is not None:
            upsert(det.id, det)
        else:
            anonymous.append(det)

    for det in anonymous:
        best = None
        for cid in sorted(m.members):  # each placed by `upsert`
            if cid in seen or cfg.components[cid].type.name != det.type:
                continue
            at = cfg.address(cid, mid)
            d = 0 if at == det.node else m.map.hop_distance(at, det.node)
            if d <= 1 and (best is None or d < best[0]):
                best = (d, cid)
        if best is not None:
            upsert(best[1], det)
        else:
            cid = f"{det.type}?{hypo}"
            hypo += 1
            upsert(cid, det)

    for cid in sorted(m.members):
        if cid in seen:
            continue
        at = cfg.address(cid, mid)
        if at is not None and at in percept.visible_nodes:
            stale[cid] = stale.get(cid, 0) + 1
            if stale[cid] >= k_stale:
                drop(cid)

    out = EnvModel(cfg, mid, stale, hypo)
    if repo is not None:
        for name in repo.patterns:
            out = PATTERNS[name](out)
    return out


# ---------------------------------------------------------------------------
# motif patterns


def _chain_pattern(model):
    """Group addressed components of the sensed motif into platoon
    motifs: maximal runs with consecutive gaps <= 2, two or more
    members, named after the frontmost member (the leader).  A believed
    platoon has no rules, so a motif that has some is left alone: a
    rule-less motif of its name could make a believed state hash like a
    true one whose `step_candidates` differ, and a `World` shares its
    records by state hash."""
    cfg = model.cfg
    m = cfg.motif(model.motif)
    ruled = {mid for mid, mm in cfg.motifs.items()
             if mm.interaction_rules or mm.configuration_rules}
    placed = []
    for cid in m.members:
        at = cfg.address(cid, model.motif)
        if isinstance(at, int):
            placed.append((at, cid))
    placed.sort()

    chains = []
    run = []
    last = None
    for at, cid in placed:
        if last is not None and at - last > 2:
            chains.append(run)
            run = []
        run.append((at, cid))
        last = at
    if run:
        chains.append(run)

    wanted = {}
    for chain in chains:
        if len(chain) < 2:
            continue
        pid = f"platoon_{chain[-1][1]}"
        if pid not in ruled:
            wanted[pid] = chain

    out = cfg.clone()
    changed = False
    for pid in [p for p in out.motifs if p.startswith("platoon_")]:
        if pid not in wanted and pid not in ruled:
            for cid in list(out.motifs[pid].members):
                out._unplace(cid, pid)
            del out.motifs[pid]
            out._dirty()
            changed = True
    for pid, chain in wanted.items():
        members = frozenset(cid for _, cid in chain)
        old = out.motifs.get(pid)
        if old is not None and old.members == members and all(
                out.address(cid, pid) == at for at, cid in chain):
            continue
        if old is not None:
            for cid in old.members:
                out._unplace(cid, pid)
        pm = m.copy()
        pm.id = pid
        pm.members = members
        pm.interaction_rules = []
        pm.configuration_rules = []
        out.motifs[pid] = pm
        for at, cid in chain:
            out._place(cid, pid, at)
        out._dirty()
        changed = True
    if not changed:
        return model
    return EnvModel(out, model.motif, model.staleness, model.hypo)


PATTERNS = {"platoon_chain": _chain_pattern}


# ---------------------------------------------------------------------------
# knowledge repository and directives


class Record:
    __slots__ = ("step", "kind", "detail")

    def __init__(self, step, kind, detail):
        self.step = step
        self.kind = kind
        self.detail = detail


class KnowledgeRepository:
    """Design-time and run-time agent knowledge.

    Design time: the goal catalog, pattern names, library controllers
    (name -> (goal name set, Controller)), and exceptional-event rules
    (name, predicate over the believed cfg, directives to emit).  Run
    time: provenance-stamped records.
    """

    def __init__(self, goals=None, patterns=(), controllers=None,
                 exceptional=()):
        self.goals = dict(goals or {})
        self.patterns = list(patterns)
        self.controllers = dict(controllers or {})
        self.exceptional = list(exceptional)
        self.records = []

    def record(self, step, kind, detail):
        self.records.append(Record(step, kind, detail))


class Directive:
    __slots__ = ("kind", "arg")

    def __init__(self, kind, arg=None):
        self.kind = kind
        self.arg = arg


def SetHorizon(k):
    return Directive("set_horizon", k)


def EnterRecovery(goal_name):
    return Directive("enter_recovery", goal_name)


# ---------------------------------------------------------------------------
# adaptation


def adapt(repo, model, window, active_goals, recovery=None, horizon=3,
          thresholds=None, step=0):
    """Supervise the other modules; emit directives.

    - every active critical avoid predicate true on the believed model
      appends a monitor record and emits EnterRecovery (the
      detect-isolate-recover hook);
    - the uncontrollable-event-rate EWMA (`window` is its history,
      newest last) shrinks the horizon when it rises above theta_hi
      times its value 10 steps ago and grows it below theta_lo times;
    - repository exceptional-event rules fire their directives.
    """
    th = checked_thresholds(thresholds)
    out = []
    for g in active_goals:
        if g.criticality == CRITICAL and g.kind == AVOID and g.holds(model.cfg):
            repo.record(step, "violation", g.name)
            if recovery is not None:
                out.append(EnterRecovery(recovery))
    if len(window) >= 11:
        now = window[-1]
        ref = window[-11]
        if now > th["theta_hi"] * ref:
            out.append(SetHorizon(max(1, horizon - 1)))
        elif now < th["theta_lo"] * ref and horizon < th["horizon_cap"]:
            out.append(SetHorizon(horizon + 1))
    for name, pred, directives in repo.exceptional:
        if pred(model.cfg):
            repo.record(step, "exceptional", name)
            out.extend(directives)
    return out


# ---------------------------------------------------------------------------
# goal management


def manage_goals(repo, directives, active_goals, horizon, feasible, step=0):
    """Apply directives, order goals, keep a maximal feasible prefix.

    Goals sort critical-first, then priority, then declaration order.  A
    goal is kept iff it is jointly satisfiable with everything already
    kept (`feasible(goal list, horizon)`, at the horizon the directives
    set); dropped goals are recorded.  Returns `(kept goals, horizon)`.
    """
    goals = list(active_goals)
    recovery_first = []
    for d in directives:
        if d.kind == "set_horizon":
            horizon = d.arg
        elif d.kind == "enter_recovery":
            g = repo.goals.get(d.arg)
            if g is not None and all(x.name != g.name for x in recovery_first):
                goals = [x for x in goals if x.name != g.name]
                recovery_first.append(g)

    goals.sort(key=lambda g: g.sort_key())
    goals = recovery_first + goals

    kept = []
    for g in goals:
        if feasible(kept + [g], horizon):
            kept.append(g)
        else:
            repo.record(step, "dropped", g.name)
    return kept, horizon


# ---------------------------------------------------------------------------
# decision


def decide(cfg, goals, repo, ego, horizon, records=None):
    """One controllable command label, or None for idle.

    The first library controller (by name) whose goals are among `goals`
    and which wins at `cfg` plays its command there; otherwise a
    finite-horizon plan is computed on `cfg`, through `records` (see
    `plan_horizon`).  Raises `NoSafePlan` when the goals cannot be met.
    """
    if not goals:
        return None
    names = {g.name for g in goals}
    for _, (gnames, ctrl) in sorted(repo.controllers.items()):
        if gnames <= names and (cmd := ctrl.command(cfg)) is not None:
            break
    else:
        cmd = plan_horizon(cfg, ego, goals, horizon, records).first_action
    return None if cmd == IDLE else cmd


# ---------------------------------------------------------------------------
# the composed loop


# the memoized outcome of a `decide` that raised `NoSafePlan`
_NO_PLAN = object()


class AgentRuntime:
    """Per-agent mutable state threaded through the simulation.  The agent
    plans on its believed model `model.cfg`, which `reflect` maintains,
    and lists and keeps its decisions in bounded per-state `records`
    (`model.record`): its `World`'s, or by default a dict of its own."""

    def __init__(self, ego, spec, goals, truth, repo=None, horizon=3,
                 recovery=None, thresholds=None, records=None):
        self.ego = ego
        self.spec = spec
        self.repo = repo if repo is not None else KnowledgeRepository(
            goals={g.name: g for g in goals})
        self.active = list(goals)
        self.horizon = horizon
        self.recovery = recovery
        self.thresholds = checked_thresholds(thresholds)
        self.model = EnvModel.blank(truth, spec.motif)
        self.records = {} if records is None else records
        self.window = []
        self.ewma = Fraction(0)
        self._last_percept = None

    def observe_event(self, uncontrollable):
        """Feed the committed event's controllability into the EWMA."""
        a = self.thresholds["alpha"]
        self.ewma = a * (1 if uncontrollable else 0) + (1 - a) * self.ewma
        self.window.append(self.ewma)
        if len(self.window) > 64:
            del self.window[:-16]

    def _decide(self, cfg, goals, horizon):
        """`decide`, memoized in the believed state's record under the ego
        (a `World`'s runtimes share their records), goal names and
        horizon; `_NO_PLAN` stands for `NoSafePlan` (the exception is not
        kept: its traceback pins the planner's frames).  The outcome is
        stored through a second lookup: the plan's own listings may have
        evicted the record the first one found."""
        key = (self.ego, tuple(g.name for g in goals), horizon)
        h = cfg.state_hash()
        decided = record(self.records, h).decided
        if key in decided:
            return decided[key]
        try:
            label = decide(cfg, goals, self.repo, self.ego, horizon,
                           self.records)
        except NoSafePlan:
            label = _NO_PLAN
        record(self.records, h).decided[key] = label
        return label

    def step(self, truth, step, seed):
        """perceive -> reflect -> adapt -> manage_goals -> decide.

        Returns a candidate label (or None for idle).  Deterministic in
        `(truth, state, seed)`: the step RNG is derived from all three.
        The command is never `_NO_PLAN`: the same memoized `decide`
        found the kept goals feasible.
        """
        rng = random.Random(f"{seed}:{self.ego}:{step}")
        percept = perceive(truth, self.ego, self.spec, step, rng)
        pc = percept.canonical()
        if pc != self._last_percept or any(self.model.staleness.values()):
            self.model = reflect(self.model, percept, self.repo,
                                 k_stale=self.thresholds["k_stale"])
            self._last_percept = pc
        directives = adapt(self.repo, self.model, self.window, self.active,
                           recovery=self.recovery, horizon=self.horizon,
                           thresholds=self.thresholds, step=step)
        cfg = self.model.cfg
        goals, self.horizon = manage_goals(
            self.repo, directives, self.active, self.horizon,
            lambda gs, h: self._decide(cfg, gs, h) is not _NO_PLAN, step=step)
        return self._decide(cfg, goals, self.horizon)

