"""World scheduler, traces, replay and check evaluation.

One event per step.  Each step freezes the truth, lets every
deliberative agent pick a command on its believed model, then commits a
single event chosen from the first nonempty pool:

  1. commands chosen by deliberative agents,
  2. controller transitions of non-deliberative agents,
  3. everything uncontrolled (object dynamics and motif rules with no
     deliberative participant).

Rules involving a deliberative agent fire only when that agent chose
them, so an idle agent withholds its own actions.  The pool ordering
keeps explicit controllers ahead of environment dynamics, which is what
makes their guarantees carry over from the game abstraction (an agent
that must react is never outrun by the plant).

What a step derives from the state alone is kept in its `model.Record`,
filled on first use: the `step_candidates` listing, its moves (a
candidate's event fields and, once it has fired, its successor and that
successor's state hash; see `_SUCC`), those moves split into the pools
with the table-driven controllers' commands, the draw pool (the first
nonempty pool), and the `always` checks that fail there.  A `World` holds the
current state's record and state hash, looked up once per state
entered: at construction, and in the step that fires a successor, whose
event's `post` is that hash.  So a random step without runtimes, on a
state whose record is filled and by a move that has fired before, draws
once, looks up one record and builds its event, and calls no function of
the engine.  The event dict is the one container such a step allocates:
it shares its move's `binding`, and its `beliefs` is `NO_BELIEFS`, the
one read-only empty dict of every event of a `World` without runtimes.
A `World` with runtimes gives each event its own dict of the egos'
belief digests.  A new state costs its listing and one move per
candidate, which shares the candidate's binding dict; only a `World`
with runtimes or table controllers indexes the moves by label
(`_fill`), so no other makes a candidate's label.  The draw is
`random.Random.choice` written out over `getrandbits`, bound once per
`World`, so a trace depends on the seed's Mersenne Twister stream
alone.  Runtimes, `round_robin` and `script` take their moves from the
same pools.  A `World` hands its records to its runtimes, which plan
through them and keep their plans' values in the records of the states
the plans reach (`model.Record.plans`), so what the scheduler or a plan
derived is not derived again while its record is kept, and a decision
on a belief already planned for plans nothing.  Nothing is evicted
during a step: a step that leaves more than `model.RECORDS` records
trims them, the oldest first, as it returns (`model.trim`), so the
memory of a run does not grow with its steps.
"""

import json
import random

from .agents import AgentRuntime
from .errors import EffectError, EngineError, ReplayDivergence
from .expr import Ctx
from .games import IDLE
from . import model
from .model import HASH_VERSION, record, trim
from .rules import CONTROLLER, step_candidates


class CheckResult:
    __slots__ = ("name", "when", "ok", "first_fail")

    def __init__(self, name, when):
        self.name = name
        self.when = when
        self.ok = True
        self.first_fail = None

    def fail(self, step):
        if self.ok:
            self.ok = False
            self.first_fail = step


class Trace:
    """A replayable run: header, one JSON line per event, check results."""

    def __init__(self, header):
        self.header = header
        self.events = []   # dicts
        self.checks = []   # CheckResult

    def text(self):
        # one encoder for every line: `json.dumps` with an option builds
        # a new one per call
        encode = json.JSONEncoder(sort_keys=True).encode
        lines = [encode(self.header)]
        lines.extend(map(encode, self.events))
        return "\n".join(lines) + "\n"

    @property
    def steps(self):
        return len(self.events)

    def summary(self):
        rows = []
        for c in self.checks:
            state = "pass" if c.ok else f"FAIL@{c.first_fail}"
            rows.append(f"{c.name:<24} {c.when:<8} {state}")
        return "\n".join(rows)


def _model_hash(system):
    from .lang import print_model
    from hashlib import blake2b
    text = print_model(system.model)
    return blake2b(text.encode(), digest_size=8).hexdigest()


#: The scheduler policies: a seeded random draw from the first nonempty
#: pool, a round robin over it, or the scenario's script.
POLICIES = ("random", "round_robin", "script")


class _ReadOnlyDict(dict):
    """A dict that refuses every change: its mutators raise `TypeError`.
    `json` writes it as it writes a dict."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = setdefault = pop = popitem = clear = _refuse


#: The `beliefs` of every event of a `World` without runtimes: one empty
#: dict shared by all of them, read-only so that no event's change shows
#: in another's.  A trace writes it as `{}`.
NO_BELIEFS = _ReadOnlyDict()


#: A move is a candidate as the scheduler commits it, kept in the record
#: of the state it was listed on: ``[candidate, motif, rule name, event
#: binding, unc, successor, post]``, the last two None until it has fired
#: (a failing effect keeps nothing, and fails again on each draw).  A list,
#: not an object, because every new state makes one per candidate.
_SUCC, _POST = 5, 6


class World:
    """Mutable run state: truth configuration plus agent runtimes.

    `policy` is one of `POLICIES` (`script` plays the scenario's
    `policy script(...)`), and each key of `controllers` names a
    component; anything else raises `ValueError`.  A deliberative ego's
    `(goal names, Controller)` pair is its runtime's library controller;
    any other ego plays its controller as a table.  `cfg` is the truth.
    Its state hash and its `model.Record` are looked up when the `World`
    is made and when a step enters a successor, and kept until the next
    one: the pools and the failing checks read that record.  A step that
    stutters or whose effect fails stays in its state, and in its
    record.  The seeded stream is kept as its bound `getrandbits`, the
    random draw's one call.  The events `advance` returns share what a
    step need not build anew: a move's `binding` and, without runtimes,
    `NO_BELIEFS`."""

    def __init__(self, system, seed=0, policy="random", controllers=None):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected {', '.join(POLICIES)}")
        controllers = controllers or {}
        for ego in controllers:
            if ego not in system.cfg.components:
                raise ValueError(f"controller for {ego!r}, which names no component")
        self.system = system
        self.cfg = system.cfg
        self.seed = seed
        self.policy = policy
        self.script = list(system.scenario.script if system.scenario else ())
        self._getrandbits = random.Random(f"run:{seed}").getrandbits
        self.step_no = 0
        self.rr = 0
        # state hash -> model.Record, shared with the runtimes; `_hash` and
        # `_rec` are the current state's
        self._records = {}
        self._hash = self.cfg.state_hash()
        self._rec = record(self._records, self._hash)
        self.runtimes = {}
        for ego, ad in system.agent_defs.items():
            lib = controllers.get(ego)
            self.runtimes[ego] = AgentRuntime(
                ego, system.sensors[ego], [system.goals[n] for n in ad.goals],
                self.cfg, self._records, horizon=ad.horizon,
                recovery=system.goals[ad.recovery] if ad.recovery else None,
                thresholds=ad.thresholds, patterns=ad.patterns,
                library=None if lib is None else (frozenset(lib[0]), lib[1]))
        self._deliberative = frozenset(self.runtimes)
        # a table-driven ego does not deliberate: it plays its synthesized
        # controller on the truth state
        self.tables = {ego: ctrl for ego, (_, ctrl) in controllers.items()
                       if ego not in self.runtimes}

    # -- the per-state record -----------------------------------------------

    def _fill(self, rec):
        """Fill the current state's record `rec` with its moves: `pools`,
        `(by_label, p1 of the table controllers, p2, p3)`, and `pool`, the
        first nonempty of the three; returns `pool`.  A move shares its
        candidate's binding dict.  Only the runtimes and the table
        controllers look moves up by label, so `by_label` is None in a
        `World` with neither, and no candidate's label is made."""
        steered, table = set(self.runtimes), []
        for ego, ctrl in self.tables.items():
            cmd = ctrl.command(self.cfg)
            if cmd is None:
                continue  # coverage gap: leave the ego's own moves free
            steered.add(ego)
            if cmd != IDLE:
                table.append(cmd)
        if rec.cands is None:
            rec.cands = step_candidates(self.cfg)
        deliberative = self._deliberative
        by_label = {} if self.runtimes or self.tables else None
        p2, p3 = [], []
        for c in rec.cands:
            owners = c.controlled_by
            controller = c.rule.kind == CONTROLLER
            move = [c, c.motif, c.rule.name, c.binding,
                    not controller and deliberative.isdisjoint(owners), None, None]
            if by_label is not None:
                by_label[c.label] = move
            if steered and not steered.isdisjoint(owners):
                continue  # withheld unless its agent chose it
            (p2 if controller else p3).append(move)
        p1 = [by_label[lab] for lab in table if lab in by_label] if table else []
        rec.pools = (by_label, p1, p2, p3)
        rec.pool = p1 or p2 or p3
        return rec.pool

    def _failing(self, always):
        """Which of the run's `always` checks, `(fn, result)` pairs, fail
        at the current state: their results, kept in its record."""
        rec = self._rec
        if rec.failing is None:
            rec.failing = [res for fn, res in always if not _holds(fn, self.cfg)]
        return rec.failing

    # -- one step -----------------------------------------------------------

    def advance(self):
        """Run one step; returns the event dict or None at quiescence.

        The pool is the record's draw pool, or, when a runtime chose a
        command, the chosen moves before the table controllers' (p1).  The
        random draw makes the `getrandbits` calls `random.Random.choice`
        makes.  A move's first draw fires it and hashes its successor; a
        later one reads both from the move.  The records are trimmed only
        when the step left more than `model.RECORDS`.  The runtimes are
        stepped and told the event only when there are some.  The event
        dict is new on every call, but it shares its candidate's
        `binding` dict with its move and the move's other events: read
        it, do not change it.  Its `beliefs` maps each ego to the digest
        of its believed model, a dict of its own; without runtimes it is
        the shared, read-only `NO_BELIEFS`."""
        step = self.step_no
        rec = self._rec
        pool = rec.pool
        if pool is None:
            pool = self._fill(rec)
        records = self._records
        beliefs = NO_BELIEFS
        chosen = ()
        if self.runtimes:
            beliefs, labels = {}, []
            for ego, rt in self.runtimes.items():  # declaration order
                label = rt.step(self.cfg, step, self.seed)
                beliefs[ego] = rt.model.digest()
                if label is not None:
                    labels.append(label)
            by_label, p1 = rec.pools[0], rec.pools[1]
            chosen = [by_label[lab] for lab in labels if lab in by_label]
            if chosen:
                pool = chosen + p1
        policy = self.policy
        move = None
        if policy == "random":
            n = len(pool)
            if n:
                bits = self._getrandbits
                k = n.bit_length()
                r = bits(k)
                while r >= n:
                    r = bits(k)
                move = pool[r]
        elif policy == "round_robin":
            if pool:
                move = pool[self.rr % len(pool)]
                self.rr += 1
        elif step < len(self.script):
            want = self.script[step]
            _, p1, p2, p3 = rec.pools
            for m in (*chosen, *p1, *p2, *p3):
                if m[2] == want or f"{m[1]}/{m[2]}" == want:  # motif, rule
                    move = m
                    break
        error = None
        if move is None:
            if policy != "script" or step >= len(self.script):
                if len(records) > model.RECORDS:
                    trim(records)
                return None
            # scripted rule not enabled: an explicit stutter step
            motif = rule = None
            binding = {}
            unc = False
        else:
            cand, motif, rule, binding, unc, succ, post = move
            if succ is None:
                try:
                    succ = cand.fire()
                except EffectError as e:
                    # a command that fails to execute consumes the step
                    error = str(e)
                else:
                    move[_SUCC] = succ
                    move[_POST] = post = succ.state_hash()
            if succ is not None:
                rec = records.get(post)
                if rec is None:
                    rec = record(records, post)
                    if len(records) > model.RECORDS:
                        trim(records)
                self.cfg, self._hash, self._rec = succ, post, rec
        self.step_no = step + 1
        if self.runtimes:
            for rt in self.runtimes.values():
                rt.observe_event(unc)
            if len(records) > model.RECORDS:
                trim(records)
        event = {"step": step, "motif": motif, "rule": rule, "binding": binding,
                 "post": self._hash, "unc": unc, "beliefs": beliefs}
        if error is not None:
            event["error"] = error
        return event


def _holds(fn, cfg):
    """A check's verdict at `cfg`: an evaluation error is a failure."""
    try:
        return fn(Ctx(cfg))
    except EngineError:
        return False


def run(system, steps=None, seed=None, policy=None, controllers=None):
    """Simulate and record a trace.

    Defaults come from the model's scenario block.  The same arguments
    always produce a byte-identical trace.  An unknown `policy` raises
    `ValueError` (`World`).
    """
    sc = system.scenario
    steps = steps if steps is not None else (sc.steps if sc else 100)
    seed = seed if seed is not None else (sc.seed if sc else 0)
    policy = policy or (sc.policy if sc else "random")
    world = World(system, seed=seed, policy=policy, controllers=controllers)
    trace = Trace({"model": _model_hash(system), "hash": HASH_VERSION,
                   "seed": seed, "policy": policy, "steps": steps})
    checks = [(cd, cd.holds, CheckResult(cd.name, cd.when))
              for cd in (sc.checks if sc else ())]
    always = [(fn, res) for cd, fn, res in checks if cd.when == "always"]
    for res in world._failing(always):
        res.fail(-1)
    # a fresh world's step numbers count from 0, as `i` does; the failing
    # checks are read from the current state's record once it has them
    advance, append = world.advance, trace.events.append
    for i in range(steps):
        e = advance()
        if e is None:
            break
        append(e)
        failing = world._rec.failing
        if failing is None:
            failing = world._failing(always)
        for res in failing:
            res.fail(i)
    for cd, fn, res in checks:
        if cd.when == "finally" and not _holds(fn, world.cfg):
            res.fail(world.step_no)
    trace.checks = [res for _, _, res in checks]
    trace.final = world.cfg
    return trace


def replay(system, trace_text):
    """Re-apply a trace's events; returns the final configuration.

    Every event but a stutter (no rule) names a rule instance, which must
    be enabled and is fired: its effect must fail with exactly the
    recorded `error`, or succeed when none is recorded.  Raises
    `ReplayDivergence` at the first event where this does not hold or
    whose post-state hash differs from the recording.  A trace whose
    header records no `hash` version, or another one than
    `model.HASH_VERSION`, diverges at step 0: its hashes cannot match.
    So does a header that is not a JSON object.  An event line that is
    not a JSON object with a `step`, a `post` and, unless it is a
    stutter, a `motif` and a `binding` diverges at its own step: the
    `i`-th event line is step `i`, and so does one whose `step` is not
    the int `i`.
    """
    lines = [ln for ln in trace_text.splitlines() if ln.strip()]
    if not lines:
        raise ReplayDivergence("empty trace file", step=0)
    try:
        header = json.loads(lines[0])
    except ValueError:
        header = None
    if not isinstance(header, dict):
        raise ReplayDivergence("trace header is not a JSON object", step=0)
    written = header.get("hash", 1)
    if written != HASH_VERSION:
        raise ReplayDivergence(
            f"trace was written with an older state hash (version {written}); "
            f"this engine replays version {HASH_VERSION}", step=0)
    if header.get("model") != _model_hash(system):
        raise ReplayDivergence("trace header does not match this model", step=0)
    cfg = system.cfg
    for i, ln in enumerate(lines[1:]):
        try:
            e = json.loads(ln)
            step, rule, post = e["step"], e.get("rule"), e["post"]
            if rule is not None:
                motif, binding = e["motif"], e["binding"]
        except (ValueError, LookupError, TypeError) as exc:
            raise ReplayDivergence(f"malformed event at step {i}: {exc!r}", step=i) from exc
        if type(step) is not int or step != i:
            raise ReplayDivergence(f"event {i} records step {step!r}", step=i)
        if rule is not None:
            cand = None
            for c in step_candidates(cfg):
                if c.motif == motif and c.rule.name == rule and c.binding == binding:
                    cand = c
                    break
            if cand is None:
                raise ReplayDivergence(
                    f"recorded event not enabled at step {step}", step=step)
            error = None
            try:
                cfg = cand.fire()
            except EffectError as exc:
                error = str(exc)
            if error != e.get("error"):
                raise ReplayDivergence(
                    f"effect outcome differs from the recording at step {step}",
                    step=step)
        if cfg.state_hash() != post:
            raise ReplayDivergence(f"state mismatch at step {step}", step=step)
    return cfg
