"""The deliberative agent loop.

Five cooperating modules around a knowledge repository: perceive,
reflect, adapt, manage_goals, decide.  An agent never reads the ground
truth directly; it plans on the believed model its reflection maintains,
so belief/truth divergence under weak sensors is observable.
"""

import math
import random
from collections import deque
from fractions import Fraction

from .errors import EgoUnplaced, NoSafePlan
from .goals import AVOID, CRITICAL
from .model import Configuration, ComponentInstance, Motif, RealRange, node_sort_key
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
    all); `noise` maps (type, var) to a Gaussian stdev.  With `detect`
    below 1, a component is detected when a draw ``x`` is below `detect`,
    which `perceive` tests as ``x < cutoff``: `cutoff` is the
    smallest double >= `detect`, so for every double ``x`` the float
    comparison gives the exact one's verdict.
    """

    __slots__ = ("motif", "radius", "visible", "identity", "noise", "detect",
                 "cutoff")

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
        t = float(self.detect)
        self.cutoff = t if t >= self.detect else math.nextafter(t, math.inf)

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


class Percept:
    """What a sensor saw: its motif's map (the truth's `Map`, a value), the
    detections and the nodes in range."""

    __slots__ = ("map", "detections", "visible_nodes")

    def __init__(self, map, detections, visible_nodes):
        self.map = map
        self.detections = detections
        self.visible_nodes = visible_nodes


def perceive(truth, ego, spec, rng=None):
    """Sense the motif around the ego's address.

    Components of visible types addressed within `spec.radius` hops are
    detected with probability `spec.detect`; real-valued visible attrs
    are perturbed by seeded Gaussian noise, snapped back to their decimal
    grid and clamped.  Components are sensed, and the draws made, in id
    order; with `spec.identity` off the detections are then listed in an
    order they carry themselves, by type, node (`node_sort_key`) and
    sensed state, so the hidden ids do not steer the association in
    `reflect`.  Raises `EgoUnplaced` when the ego has no address in the
    sensed motif.
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

    draw = spec.detect < 1
    detections = []
    for cid in sorted(m.members):
        comp = truth.components[cid]
        if comp.type.name not in spec.visible:
            continue
        node = truth.address(cid, mid)
        if node is None or node not in visible_nodes:
            continue
        if draw and not rng.random() < spec.cutoff:
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
    if not spec.identity:
        detections.sort(key=lambda d: (d.type, node_sort_key(d.node),
                                       sorted(d.state.items())))
    return Percept(m.map, detections, visible_nodes)


# ---------------------------------------------------------------------------
# reflection


class EnvModel:
    """The agent's believed configuration plus per-component staleness.
    `declared` names the motifs the model declares, which no motif
    pattern replaces or deletes: by default, the motifs `cfg` has."""

    __slots__ = ("cfg", "motif", "staleness", "hypo", "declared")

    def __init__(self, cfg, motif, staleness=None, hypo=0, declared=None):
        self.cfg = cfg
        self.motif = motif
        self.staleness = dict(staleness or {})
        self.hypo = hypo
        self.declared = frozenset(cfg.motifs) if declared is None else declared

    def digest(self):
        return self.cfg.state_hash()

    @classmethod
    def blank(cls, truth, motif):
        """An initial believed model: the design-time motif structure
        with no tracked components.  Its motifs are the declared ones."""
        motifs = [Motif(m.id, m.map, rules=m.rules) for m in truth.motifs.values()]
        return cls(Configuration((), motifs, truth.types), motif)


def reflect(model, percept, patterns=(), k_stale=5):
    """Fold one percept into the believed model.

    The sensed motif takes the percept's map, so the truth's map edits
    reach the belief; a tracked component on a node the new map lacks is
    dropped (the truth removes only unoccupied nodes).  Identity-bearing
    detections update their tracked component; anonymous ones associate
    to the nearest tracked same-type component within 1 hop (ties by
    lexicographic id) or spawn a hypothesis.  Tracked components that
    stay unseen inside the visible region for `k_stale` steps are
    dropped.  The motif `patterns`, names in `PATTERNS`, then rebuild
    believed motifs over the updated model.

    The revision is copy-on-write, through the belief's edit methods
    (`Configuration.set_var`, `add_component`, `remove_component`,
    `join`, `leave`, `place` and `set_map`).  The sensed motif is copied
    only when its members or map change, a tracked component only when a
    detected value differs from the belief's, in value or in class, and
    an address entry is set only when it moves.  So a percept that
    changes nothing gives a belief sharing every component and motif,
    each with its cached digest, with the one before.
    """
    cfg = model.cfg.clone()
    mid = model.motif
    stale = dict(model.staleness)
    hypo = model.hypo
    seen = set()

    def drop(cid):
        cfg.leave(cid, mid)
        if not any(cid in mm.members for mm in cfg.motifs.values()):
            cfg.remove_component(cid)
        stale.pop(cid, None)

    if cfg.motif(mid).map is not percept.map:
        for cid in sorted(cfg.motif(mid).members):
            if cfg.address(cid, mid) not in percept.map.nodes:
                drop(cid)
        cfg.set_map(mid, percept.map)

    def upsert(cid, det):
        comp = cfg.components.get(cid)
        if comp is None:
            cfg.add_component(ComponentInstance(cid, cfg.types[det.type], det.state))
        else:
            # `1` and `Fraction(1)` are equal, but their texts differ
            for k, v in det.state.items():
                if type(comp.state[k]) is not type(v) or comp.state[k] != v:
                    cfg.set_var(cid, k, v)
        if cid not in cfg.motif(mid).members:
            cfg.join(cid, mid)
        if cfg.address(cid, mid) != det.node:
            cfg.place(cid, mid, det.node)
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
        for cid in sorted(cfg.motif(mid).members):  # each placed by `upsert`
            if cid in seen or cfg.components[cid].type.name != det.type:
                continue
            at = cfg.address(cid, mid)
            d = 0 if at == det.node else percept.map.hop_distance(at, det.node)
            if d <= 1 and (best is None or d < best[0]):
                best = (d, cid)
        if best is not None:
            upsert(best[1], det)
        else:
            cid = f"{det.type}?{hypo}"
            hypo += 1
            upsert(cid, det)

    for cid in sorted(cfg.motif(mid).members):
        if cid in seen:
            continue
        at = cfg.address(cid, mid)
        if at is not None and at in percept.visible_nodes:
            stale[cid] = stale.get(cid, 0) + 1
            if stale[cid] >= k_stale:
                drop(cid)

    out = EnvModel(cfg, mid, stale, hypo, model.declared)
    for name in patterns:
        out = PATTERNS[name](out)
    return out


# ---------------------------------------------------------------------------
# motif patterns


def _chain_pattern(model):
    """Group addressed components of the sensed motif into platoon
    motifs: maximal runs with consecutive gaps <= 2, two or more
    members, named after the frontmost member (the leader).  A motif
    the model declares (`EnvModel.declared`) is left alone, whatever its
    name: goals and checks may read it, and a rule-less believed platoon
    of a ruled motif's name could make a believed state hash like a true
    one whose `step_candidates` differ, and a `World` shares its records
    by state hash."""
    cfg = model.cfg
    m = cfg.motif(model.motif)
    declared = model.declared
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
        if pid not in declared:
            wanted[pid] = chain

    out = cfg.clone()
    changed = False
    for pid in [p for p in out.motifs if p.startswith("platoon_")]:
        if pid not in wanted and pid not in declared:
            out.drop_motif(pid)
            changed = True
    for pid, chain in wanted.items():
        members = frozenset(cid for _, cid in chain)
        old = out.motifs.get(pid)
        if old is not None and old.members == members and all(
                out.address(cid, pid) == at for at, cid in chain):
            continue
        out.put_motif(Motif(pid, m.map, members))
        for at, cid in chain:
            out.place(cid, pid, at)
        changed = True
    if not changed:
        return model
    return EnvModel(out, model.motif, model.staleness, model.hypo, declared)


PATTERNS = {"platoon_chain": _chain_pattern}


# ---------------------------------------------------------------------------
# knowledge repository


class Record:
    __slots__ = ("step", "kind", "detail")

    def __init__(self, step, kind, detail):
        self.step = step
        self.kind = kind
        self.detail = detail


class KnowledgeRepository:
    """Run-time agent knowledge: provenance-stamped records.  What an
    agent knows at design time, its goals, patterns and library
    controller, its `AgentRuntime` takes at construction."""

    def __init__(self):
        self.records = []

    def record(self, step, kind, detail):
        self.records.append(Record(step, kind, detail))


# ---------------------------------------------------------------------------
# adaptation


def adapt(repo, model, window, active_goals, horizon, thresholds, step=0):
    """Supervise the other modules; returns `(horizon, violated)`.

    - every active critical avoid predicate true on the believed model
      appends a monitor record, and sets `violated` (the
      detect-isolate-recover hook);
    - the uncontrollable-event-rate EWMA (`window` is its history,
      newest last, of which only the last 11 values are read) shrinks
      the horizon when it rises above theta_hi times its value 10 steps
      ago and grows it below theta_lo times.

    `thresholds` is a dict `checked_thresholds` returned.
    """
    violated = False
    for g in active_goals:
        if g.criticality == CRITICAL and g.kind == AVOID and g.holds(model.cfg):
            repo.record(step, "violation", g.name)
            violated = True
    if len(window) >= 11:
        now = window[-1]
        ref = window[-11]
        if now > thresholds["theta_hi"] * ref:
            horizon = max(1, horizon - 1)
        elif now < thresholds["theta_lo"] * ref and horizon < thresholds["horizon_cap"]:
            horizon += 1
    return horizon, violated


# ---------------------------------------------------------------------------
# goal management


def manage_goals(repo, active_goals, horizon, feasible, recovery=None, step=0):
    """Order goals, keep a maximal feasible prefix.

    Goals sort critical-first, then priority, then declaration order,
    after the `recovery` goal when one is given.  A goal is kept iff it
    is jointly satisfiable with everything already kept
    (`feasible(goal list, horizon)`); dropped goals are recorded.
    Returns the kept goals.
    """
    goals = sorted(active_goals, key=lambda g: g.sort_key())
    if recovery is not None:
        goals = [recovery] + [g for g in goals if g.name != recovery.name]

    kept = []
    for g in goals:
        if feasible(kept + [g], horizon):
            kept.append(g)
        else:
            repo.record(step, "dropped", g.name)
    return kept


# ---------------------------------------------------------------------------
# decision


def decide(cfg, goals, library, ego, horizon, records=None):
    """One controllable command label, or None for idle.

    The `library` controller, a `(goal names, Controller)` pair or None,
    plays its command at `cfg` when its goals are among `goals` and it
    wins there; otherwise a finite-horizon plan is computed on `cfg`,
    through `records` (see `plan_horizon`).  Raises `NoSafePlan` when
    the goals cannot be met.
    """
    if not goals:
        return None
    cmd = None
    if library is not None:
        gnames, ctrl = library
        if gnames <= {g.name for g in goals}:
            cmd = ctrl.command(cfg)
    if cmd is None:
        cmd = plan_horizon(cfg, ego, goals, horizon, records).first_action
    return None if cmd == IDLE else cmd


# ---------------------------------------------------------------------------
# the composed loop


class AgentRuntime:
    """Per-agent mutable state threaded through the simulation.  It is
    given all it knows at design time when it is built: its `goals`, the
    `recovery` goal it pursues first while a critical avoid goal is
    violated, the checked `thresholds`, the motif `patterns` (names in
    `PATTERNS`) `reflect` applies, and its `library` controller, a
    `(goal names, Controller)` pair or None.  Its `repo` holds the
    records it makes at run time.

    The agent plans on its believed model `model.cfg`, which `reflect`
    maintains, through per-state `records` (`model.record`): its
    `World`'s, which hold its listings and plan values and which the
    `World` trims between steps.  Deciding again on the same belief and
    goals plans nothing: the plan's value is in the belief's record.
    Its adaptation state is fixed-size however long it runs: the EWMA is
    a float, and `window` keeps the 11 newest values, all `adapt` reads.
    The EWMA's `weights` are ``float(alpha)`` and ``float(1 - alpha)``,
    the operands a `Fraction` alpha falls back to with a float, so the
    EWMA has the bits that exact-`alpha` arithmetic on a float gives."""

    def __init__(self, ego, spec, goals, truth, records, horizon=3,
                 recovery=None, thresholds=None, patterns=(), library=None):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.thresholds = checked_thresholds(thresholds)
        self.ego = ego
        self.spec = spec
        self.repo = KnowledgeRepository()
        self.active = list(goals)
        self.horizon = horizon
        self.recovery = recovery
        self.patterns = tuple(patterns)
        self.library = library
        self.model = EnvModel.blank(truth, spec.motif)
        self.records = records
        self.window = deque(maxlen=11)
        self.ewma = 0.0
        a = self.thresholds["alpha"]
        self.weights = (float(a), float(1 - a))

    def observe_event(self, uncontrollable):
        """Feed the committed event's controllability into the EWMA."""
        a, keep = self.weights
        self.ewma = (a if uncontrollable else 0.0) + keep * self.ewma
        self.window.append(self.ewma)

    def step(self, truth, step, seed):
        """perceive -> reflect -> adapt -> manage_goals -> decide.

        Returns a candidate label (or None for idle).  Deterministic in
        `(truth, state, seed)`: the step RNG is derived from all three.
        A goal list is feasible when `decide` finds a command for it, and
        the last one found feasible is the kept list, so its command is
        the step's: each goal list is planned once, and no goal kept
        means idle.
        """
        rng = random.Random(f"{seed}:{self.ego}:{step}")
        percept = perceive(truth, self.ego, self.spec, rng)
        self.model = reflect(self.model, percept, self.patterns,
                             k_stale=self.thresholds["k_stale"])
        self.horizon, violated = adapt(self.repo, self.model, self.window,
                                       self.active, self.horizon,
                                       self.thresholds, step=step)
        cfg = self.model.cfg
        command = None

        def feasible(gs, h):
            nonlocal command
            try:
                command = decide(cfg, gs, self.library, self.ego, h, self.records)
            except NoSafePlan:
                return False
            return True

        manage_goals(self.repo, self.active, self.horizon, feasible,
                     self.recovery if violated else None, step=step)
        return command
