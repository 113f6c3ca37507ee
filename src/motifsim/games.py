"""Turn-based two-player games over grounded configurations.

`moves` is the one expansion of a configuration into a turn's moves;
grounding and finite-horizon AND-OR planning both read the game through
it.  The greatest-fixpoint safety solver (maximally permissive) and the
least-fixpoint reachability solver, whose ranks count game moves to
target at agent and env turns alike, share one O(|V|+|E|) backward
attractor pass, run for opposite players.  Also: the tabular
controller file format, and `Controller.command`, the one way a
controller picks the command to play.
"""

from collections import deque

from .errors import EffectError, InvariantViolation, NoSafePlan, StateBudgetExceeded
from .goals import AVOID, BEST_EFFORT, CRITICAL, REACH, UTILITY
from .model import listing
from .rules import step_candidates

AGENT_TURN = "agent"
ENV_TURN = "env"

IDLE = "idle"
PASS = "pass"


class GameState:
    __slots__ = ("key", "world", "turn", "bad", "target", "actions")

    def __init__(self, key, world, turn, bad=False, target=False):
        self.key = key
        self.world = world
        self.turn = turn
        self.bad = bad
        self.target = target
        self.actions = []


class GameAction:
    __slots__ = ("label", "dst", "controllable")

    def __init__(self, label, dst, controllable):
        self.label = label
        self.dst = dst
        self.controllable = controllable


class GameModel:
    """A finite turn-based game graph.

    Agent-turn states carry only controllable actions (including an
    explicit `idle` where applicable); env-turn states only uncontrollable
    ones (including an explicit `pass` when the environment is quiescent).
    """

    def __init__(self):
        self.states = []
        self.index = {}
        self.initial = 0

    def add_state(self, key, world, turn, bad=False, target=False):
        """Add a state under `key`, which no state of the game has yet."""
        i = len(self.states)
        self.states.append(GameState(key, world, turn, bad, target))
        self.index[key] = i
        return i

    def add_action(self, src, label, dst, controllable):
        self.states[src].actions.append(GameAction(label, dst, controllable))

    def __len__(self):
        return len(self.states)


class Controller:
    """Winning region plus allowed actions (and ranks for reachability).

    - `winning`: state keys the agent wins from;
    - `kept`: per winning agent-turn state, the allowed action labels;
    - `rank`: distance-to-target class per winning state; empty for
      pure-safety controllers.
    """

    __slots__ = ("winning", "kept", "rank")

    def __init__(self, winning, kept, rank=None):
        self.winning = frozenset(winning)
        self.kept = dict(kept)
        self.rank = dict(rank or {})

    def covers(self, key):
        return key in self.winning

    def kept_actions(self, key):
        return self.kept.get(key, ())

    def command(self, cfg):
        """The action this controller plays at `cfg`'s agent-turn state:
        its first kept action, or `idle` when none is kept; None when
        that state is not winning."""
        key = cfg.state_hash() + ":a"
        if key not in self.winning:
            return None
        kept = self.kept.get(key)
        return kept[0] if kept else IDLE

    def validate(self, game):
        """Check the controller invariants against `game`.

        Raises `InvariantViolation` naming the offending state.
        """
        for key in self.winning:
            if key not in game.index:
                raise InvariantViolation(f"unknown state {key!r}")
        for key in self.kept:
            if key not in self.winning:
                raise InvariantViolation(f"kept actions at non-winning state {key!r}")
        for key in self.winning:
            s = game.states[game.index[key]]
            if s.bad:
                raise InvariantViolation(f"bad state {key!r} marked winning")
            if s.turn == ENV_TURN:
                for a in s.actions:
                    if game.states[a.dst].key not in self.winning:
                        raise InvariantViolation(
                            f"uncontrollable exit from winning state {key!r}")
                if self.rank and self.rank[key] > 0:
                    if not s.actions:
                        raise InvariantViolation(f"deadlocked ranked env state {key!r}")
                    for a in s.actions:
                        dk = game.states[a.dst].key
                        if self.rank.get(dk, 10**9) >= self.rank[key]:
                            raise InvariantViolation(
                                f"non-decreasing env branch at {key!r}")
            else:
                kept = self.kept.get(key, ())
                labels = {a.label: a for a in s.actions}
                for lab in kept:
                    a = labels.get(lab)
                    if a is None:
                        raise InvariantViolation(f"unknown kept action {lab!r} at {key!r}")
                    dk = game.states[a.dst].key
                    if dk not in self.winning:
                        raise InvariantViolation(
                            f"kept action {lab!r} at {key!r} leaves the winning set")
                    if self.rank and self.rank.get(dk, 10**9) >= self.rank[key]:
                        raise InvariantViolation(
                            f"kept action {lab!r} at {key!r} does not decrease rank")
                if not kept and (not self.rank or self.rank[key] > 0):
                    raise InvariantViolation(f"winning agent state {key!r} has no kept action")


# ---------------------------------------------------------------------------
# grounding


def _always_false(cfg):
    return False


def moves(cfg, cands, ego, turn):
    """One turn's `(label, successor)` moves from `cfg`, in candidate order.

    `cands` is `step_candidates(cfg)`.  At an agent turn the moves are
    the ego's candidates that fire, then `idle`; at an env turn, every
    other candidate that fires, or `pass` when none does.  A candidate
    whose effect raises `EffectError` is not a move.  `idle` and `pass`
    keep the configuration: their successor is `cfg` itself.
    """
    agent = turn == AGENT_TURN
    out = []
    for cand in cands:
        if cand.is_controllable(ego) == agent:
            try:
                out.append((cand.label, cand.fire()))
            except EffectError:
                pass
    if agent:
        out.append((IDLE, cfg))
    elif not out:
        out.append((PASS, cfg))
    return out


def ground(cfg, ego, max_states=10000, bad=None, target=None):
    """BFS-explore the configuration space into a turn-based game.

    Each reached configuration contributes an agent-turn and an env-turn
    state, whose actions are its `moves` at that turn: the ego's rule
    instances and controller moves are controllable; object dynamics and
    other components' candidates are uncontrollable.  The state budget
    `max_states` is the only bound: raises `StateBudgetExceeded` when it
    truncates the reachable space, signalling callers to plan on a
    finite horizon instead.  A configuration whose state hash was
    reached before is the same state only if `Configuration.same_key`
    confirms it; otherwise the hashes collide, and `InvariantViolation`
    is raised rather than merging two states.
    """
    if ego not in cfg.components:
        raise KeyError(f"no ego component {ego!r}")
    bad = bad or _always_false
    target = target or _always_false
    game = GameModel()
    # state hash -> (configuration, its agent-turn state); the env-turn
    # state is the next index
    worlds = {}
    queue = deque()

    def intern(c):
        w = c.state_hash()
        prev = worlds.get(w)
        if prev is not None:
            if not prev[0].same_key(c):
                raise InvariantViolation(f"state hash collision at {w!r}")
            return prev[1]
        if len(game.states) + 2 > max_states:
            raise StateBudgetExceeded(
                f"state budget {max_states} exceeded", frontier=len(queue) + 1)
        b, t = bad(c), target(c)
        i = game.add_state(w + ":a", w, AGENT_TURN, b, t)
        game.add_state(w + ":e", w, ENV_TURN, b, t)
        worlds[w] = (c, i)
        queue.append((c, i))
        return i

    game.initial = intern(cfg)
    while queue:
        c, i = queue.popleft()
        cands = step_candidates(c)
        # an agent move lands on an env turn, an env move on an agent turn
        for turn, src, to in ((AGENT_TURN, i, 1), (ENV_TURN, i + 1, 0)):
            for label, nxt in moves(c, cands, ego, turn):
                dst = (i if nxt is c else intern(nxt)) + to
                game.add_action(src, label, dst, turn == AGENT_TURN)
    return game


# ---------------------------------------------------------------------------
# solvers


def _attractor(preds, count, seeds):
    """One player's attractor to `seeds`, one backward pass, O(|V|+|E|).

    `preds[d]` lists the source of every counted edge into `d`, once
    per edge.  A state joins the attractor once `count` of its counted
    edges lead into it: 1 at the attracting player's turns, all of them
    at the opponent's.  Returns each state's rank, the least number of
    moves in which the attracting player forces a seed (FIFO order finds
    it), or None outside the attractor.  `count` is consumed.
    """
    rank = [None] * len(count)
    for i in seeds:
        rank[i] = 0
    queue = deque(seeds)
    while queue:
        d = queue.popleft()
        for p in preds[d]:
            if rank[p] is None:
                count[p] -= 1
                if not count[p]:
                    rank[p] = rank[d] + 1
                    queue.append(p)
    return rank


def solve_safety(game):
    """Greatest fixpoint: the maximally permissive safety controller.

    A state is winning iff it is not bad and (agent turn) some
    controllable action stays winning / (env turn) every action stays
    winning.  `kept` retains every winning-preserving controllable
    action.  An env-turn state with no actions cannot be spoiled and
    counts as winning when not bad.

    The winning set is the complement of the environment's attractor to
    the bad states and the agent-turn states without a controllable
    action: an agent-turn state falls once all its controllable actions
    have, an env-turn state with its first fallen successor.
    """
    states = game.states
    preds = [[] for _ in states]
    count = []
    for i, s in enumerate(states):
        agent = s.turn == AGENT_TURN
        for a in s.actions:
            if a.controllable or not agent:
                preds[a.dst].append(i)
        count.append(sum(a.controllable for a in s.actions) if agent else 1)
    seeds = [i for i, s in enumerate(states) if s.bad or not count[i]]
    lost = _attractor(preds, count, seeds)
    winning = {s.key for i, s in enumerate(states) if lost[i] is None}
    kept = {s.key: tuple(a.label for a in s.actions
                         if a.controllable and lost[a.dst] is None)
            for i, s in enumerate(states)
            if lost[i] is None and s.turn == AGENT_TURN}
    return Controller(winning, kept)


def solve_reach(game, within=None):
    """Least fixpoint attractor with rank = guaranteed game moves to target.

    A rank counts moves at both agent and env turns: a target has rank
    0, an agent-turn state one more than its best controllable
    successor, an env-turn state one more than its worst successor.
    With `within`, the game is first restricted to that controller's
    winning set and kept actions.  Kept actions strictly decrease rank,
    so following them reaches the target within `rank(initial)` moves
    under every environment branch.

    The agent's attractor to the targets: an agent-turn state is ranked
    by its first ranked successor, an env-turn state once all its
    successors are.
    """
    states = game.states

    def usable(s):
        # an agent turn's controllable actions, restricted to `within`'s kept
        kept = None if within is None else within.kept.get(s.key, ())
        return [a for a in s.actions
                if a.controllable and (kept is None or a.label in kept)]

    preds = [[] for _ in states]
    count = [0] * len(states)
    seeds = []
    for i, s in enumerate(states):
        if within is not None and s.key not in within.winning:
            continue
        if s.target:
            seeds.append(i)
        else:
            succs = usable(s) if s.turn == AGENT_TURN else s.actions
            count[i] = 1 if s.turn == AGENT_TURN else len(succs)
            for a in succs:
                preds[a.dst].append(i)
    rank = _attractor(preds, count, seeds)
    ranks = {s.key: rank[i] for i, s in enumerate(states) if rank[i] is not None}
    kept = {s.key: tuple(a.label for a in usable(s)
                         if rank[a.dst] is not None and rank[a.dst] < rank[i])
            for i, s in enumerate(states)
            if rank[i] is not None and s.turn == AGENT_TURN}
    return Controller(ranks, kept, ranks)


# ---------------------------------------------------------------------------
# finite-horizon planning


class PlanNode:
    """One node of a finite plan tree.

    Agent nodes keep the single chosen action; env nodes branch over all
    enabled uncontrollable successors."""

    __slots__ = ("turn", "action", "children", "value")

    def __init__(self, turn, action=None, children=(), value=None):
        self.turn = turn
        self.action = action
        self.children = list(children)
        self.value = value

    def render(self, indent=0):
        pad = "  " * indent
        lines = []
        if self.turn == AGENT_TURN:
            act = self.action if self.action is not None else "(leaf)"
            lines.append(f"{pad}agent: {act}")
            for _, child in self.children:
                lines.extend(child.render(indent + 1))
        else:
            lines.append(f"{pad}env:")
            for label, child in self.children:
                lines.append(f"{pad}  [{label}]")
                lines.extend(child.render(indent + 2))
        return lines


class Plan:
    __slots__ = ("root", "first_action", "value")

    def __init__(self, root, first_action, value):
        self.root = root
        self.first_action = first_action
        self.value = value

    def render(self):
        return "\n".join(self.root.render())


def plan_horizon(cfg, ego, goals, horizon, records=None):
    """Depth-limited AND-OR search over the grounded transitions.

    Hard constraint: no branch reaches a state violating a critical avoid
    goal, and every critical reach goal is met on every branch, within
    `horizon` agent turns.  Among surviving agent choices the plan
    maximizes the pessimistic (min over env branches) tuple of
    best-effort goal scores, lexicographically in goal order.  Raises
    `NoSafePlan` when no first action survives.

    Each configuration the search expands is listed through its record
    in `records` (`model.listing`).  A `World` passes its own
    (`sim.World`), which its scheduler and its other plans share, so
    listings and their fired successors carry over between steps.
    Without them, the search lists through a fresh dict of records.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    search = _Search(ego, goals, horizon, {} if records is None else records)
    reached0, clean0 = search.update_flags(
        cfg, frozenset(), frozenset(g.name for g in search.best if g.kind == AVOID))
    ok, val, root = search.agent_step(cfg, 0, reached0, clean0)
    if not ok:
        raise NoSafePlan(
            "every first action admits an env branch that enters a "
            "critical-avoid state or misses a critical reach goal within "
            f"horizon {horizon}")
    return Plan(root, root.action, val)


class _Search:
    """The AND-OR search of one `plan_horizon` call, with its memo.

    It is an object rather than closures: `agent_step` and `env_step`
    call each other, and closures that did so through their cells would
    make a reference cycle holding the memo and every configuration the
    search listed, which only the cycle collector could free."""

    __slots__ = ("ego", "horizon", "records", "memo", "crit_avoid",
                 "crit_reach", "best")

    def __init__(self, ego, goals, horizon, records):
        self.ego = ego
        self.horizon = horizon
        self.records = records
        self.memo = {}
        self.crit_avoid = [g for g in goals
                           if g.criticality == CRITICAL and g.kind == AVOID]
        self.crit_reach = [g for g in goals
                           if g.criticality == CRITICAL and g.kind == REACH]
        self.best = [g for g in goals if g.criticality == BEST_EFFORT]

    def leaf_value(self, c, reached, clean):
        vals = []
        for g in self.best:
            if g.kind == UTILITY:
                vals.append(g.score(c))
            elif g.kind == REACH:
                vals.append(1 if g.name in reached else 0)
            else:
                vals.append(1 if g.name in clean else 0)
        return tuple(vals)

    def violated(self, c):
        return any(g.holds(c) for g in self.crit_avoid)

    def update_flags(self, c, reached, clean):
        for g in self.crit_reach:
            if g.name not in reached and g.holds(c):
                reached = reached | {g.name}
        for g in self.best:
            if g.kind == REACH and g.name not in reached and g.holds(c):
                reached = reached | {g.name}
            elif g.kind == AVOID and g.name in clean and g.holds(c):
                clean = clean - {g.name}
        return reached, clean

    def agent_step(self, c, depth, reached, clean):
        memo = self.memo
        key = (c.state_hash(), depth, reached, clean)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if depth == self.horizon:
            if all(g.name in reached for g in self.crit_reach):
                val = self.leaf_value(c, reached, clean)
                res = (True, val, PlanNode(AGENT_TURN, value=val))
            else:
                res = (False, None, None)
            memo[key] = res
            return res
        best_val = None
        best_node = None
        cands = listing(self.records, c, step_candidates)
        for label, nxt in moves(c, cands, self.ego, AGENT_TURN):
            ok, val, node = self.env_step(nxt, depth, reached, clean)
            if not ok:
                continue
            if best_val is None or val > best_val:
                best_val = val
                best_node = PlanNode(AGENT_TURN, action=label,
                                     children=[(label, node)], value=val)
        if best_node is None:
            res = (False, None, None)
        else:
            res = (True, best_val, best_node)
        memo[key] = res
        return res

    def env_step(self, c, depth, reached, clean):
        # `c` is the state after the agent's move at level `depth`
        if self.violated(c):
            return (False, None, None)
        reached, clean = self.update_flags(c, reached, clean)
        children = []
        worst = None
        cands = listing(self.records, c, step_candidates)
        for label, nxt in moves(c, cands, self.ego, ENV_TURN):
            if self.violated(nxt):
                return (False, None, None)
            r2, c2 = self.update_flags(nxt, reached, clean)
            ok, val, node = self.agent_step(nxt, depth + 1, r2, c2)
            if not ok:
                return (False, None, None)
            children.append((label, node))
            if worst is None or val < worst:
                worst = val
        return (True, worst, PlanNode(ENV_TURN, children=children, value=worst))


# ---------------------------------------------------------------------------
# controller table format

# v2 keys states by version-2 state hashes (`model.HASH_VERSION`); v1
# tables key them by version 1, which no state hashes to any more
_TABLE, _VERSION = "# controller-table ", "v2"
_HEADER = _TABLE + _VERSION


def export_controller(ctrl):
    """Tabular text: one line per (state key, kept action, rank)."""
    lines = [_HEADER]
    for key in sorted(ctrl.winning):
        rank = ctrl.rank.get(key)
        rtxt = "-" if rank is None else str(rank)
        kept = ctrl.kept.get(key, ())
        if kept:
            for lab in kept:
                lines.append(f"{key}\t{rtxt}\t{lab}")
        else:
            lines.append(f"{key}\t{rtxt}\t-")
    return "\n".join(lines) + "\n"


def import_controller(text, game=None):
    """Parse a controller table; validate against `game` when given."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].strip() if lines else ""
    if head != _HEADER:
        if head.startswith(_TABLE + "v"):
            raise InvariantViolation(
                f"controller table {head[len(_TABLE):]} keys states by an "
                f"older state hash; this engine reads {_VERSION}")
        raise InvariantViolation("missing controller-table header")
    written = {}  # winning state key -> its rank as written, "-" for none
    kept = {}
    rank = {}
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 3:
            raise InvariantViolation(f"malformed line: {ln!r}")
        key, rtxt, lab = parts
        # `export_controller` repeats a state's rank on each kept action
        if written.setdefault(key, rtxt) != rtxt:
            raise InvariantViolation(f"second rank for state {key!r} in line: {ln!r}")
        if rtxt != "-":
            try:
                rank[key] = int(rtxt)
            except ValueError:
                raise InvariantViolation(f"non-integer rank in line: {ln!r}") from None
            if rank[key] < 0:
                raise InvariantViolation(f"negative rank in line: {ln!r}")
        if lab != "-":
            kept.setdefault(key, []).append(lab)
    if rank and len(rank) != len(written):
        raise InvariantViolation(
            f"unranked state {min(written.keys() - rank.keys())!r} in a ranked table")
    ctrl = Controller(set(written), {k: tuple(v) for k, v in kept.items()}, rank)
    if game is not None:
        ctrl.validate(game)
    return ctrl
