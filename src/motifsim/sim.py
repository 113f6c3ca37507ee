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

What a step derives from the state alone is kept in one record per
state hash, filled on first use: the `step_candidates` listing (each
candidate keeps its fired successor), that listing split into pools
with the table-driven controllers' commands, and the `always` checks
that fail there.  The deliberative agents plan through the same
listings: a `World` hands its listing function to its runtimes, so a
configuration that the scheduler or an earlier plan listed is not
listed again.  Only the deliberative agents' commands are worked out
every step.  A `World` keeps at most `RECORDS` records and evicts the
oldest, so the memory of a run does not grow with its steps.
"""

import json
import random
from functools import partial

from .agents import AgentRuntime
from .errors import EffectError, EngineError, ReplayDivergence
from .expr import Ctx
from .games import IDLE
from .model import remember
from .rules import CONTROLLER, step_candidates

#: Per-state records a `World` keeps, truth and believed states alike.
#: The bundled runs come back to at most 18 states (the thermostat 18,
#: soccer 2; platoon and shuttle never revisit one, 3,000 steps at seeds
#: 0-1), and a plan mostly reuses listings of the last few plans: the ten
#: `agent_platoon` worlds list 2,960 times at 64, 2,948 at 128 or more.
#: Each record keeps its fired successors alive, so a larger bound costs
#: memory and collector time.  In the benchmark (2-vCPU VM, one run per
#: bound), `agent_platoon` `peak_rss_mb` read 23.5 MB at 64, 25.7 at 128
#: and 30.2 at 1024, and `sim_fresh` `round_s` 1.16 s at 64, 1.30 at 1024.
RECORDS = 64


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


class _Record:
    """What a step derives from one state hash.  Each part is a pure
    function of it: a `World`'s configurations give each motif name one
    set of rules (the `platoon_chain` pattern leaves a ruled motif
    alone), the deliberative egos are fixed per `World`, and a table
    controller looks its command up by state hash.  The listing does not
    depend on an ego either: `Candidate.controlled_by` records who owns
    each candidate.  It is shared with the agents' planner, so no caller
    may change a fired successor (configurations are copy-on-write)."""

    __slots__ = ("cands", "pools", "failing")

    def __init__(self):
        self.cands = None    # listing(): the state's `step_candidates`
        self.pools = None    # World._pools: the candidates, split
        self.failing = None  # World._failing: results of failing `always` checks

    def listing(self, cfg, lister):
        """The candidates of `cfg`, this record's state: `lister(cfg)`,
        called on first use only."""
        if self.cands is None:
            self.cands = lister(cfg)
        return self.cands


def _listing(records, cfg, lister):
    """`cfg`'s `step_candidates` listing, kept in its record in `records`,
    which is made when its state hash has none.  A miss calls `lister`,
    the caller's own `step_candidates` name."""
    h = cfg.state_hash()
    rec = records.get(h) or remember(records, h, _Record(), RECORDS)
    return rec.listing(cfg, lister)


class Trace:
    """A replayable run: header, one JSON line per event, check results."""

    def __init__(self, header):
        self.header = header
        self.events = []   # dicts
        self.checks = []   # CheckResult

    def text(self):
        lines = [json.dumps(self.header, sort_keys=True)]
        for e in self.events:
            lines.append(json.dumps(e, sort_keys=True))
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


class World:
    """Mutable run state: truth configuration plus agent runtimes."""

    def __init__(self, system, seed=0, policy="random", script=None,
                 controllers=None):
        self.system = system
        self.cfg = system.cfg
        self.seed = seed
        self.policy = policy
        self.script = list(script if script is not None else
                           (system.scenario.script if system.scenario else ()))
        self.rng = random.Random(f"run:{seed}")
        self.step_no = 0
        self.rr = 0
        # state hash -> _Record, at most RECORDS; the current state's record
        # `_rec` was looked up for the configuration `_at`
        self._records = {}
        self._rec = self._at = None
        # the agents plan through the records' listings; a partial over
        # the records, not a bound method, so that the World and its
        # runtimes form no reference cycle
        listing = partial(_listing, self._records)
        self.runtimes = {}
        for ego, ad in system.agent_defs.items():
            goals = [system.goals[n] for n in ad.goals if n in system.goals]
            rt = AgentRuntime(ego, system.sensors[ego], goals,
                              horizon=ad.horizon, recovery=ad.recovery,
                              thresholds=ad.thresholds, truth=self.cfg,
                              listing=listing)
            rt.repo.patterns = list(ad.patterns)
            if ad.recovery and ad.recovery in system.goals:
                rt.repo.goals.setdefault(ad.recovery, system.goals[ad.recovery])
            self.runtimes[ego] = rt
        self._deliberative = frozenset(self.runtimes)
        self.tables = {}
        if controllers:
            for ego, (gnames, ctrl) in controllers.items():
                if ego in self.runtimes:
                    self.runtimes[ego].repo.controllers["library"] = (
                        frozenset(gnames), ctrl)
                else:
                    # table-driven ego: no deliberation, just play the
                    # synthesized controller on the truth state
                    self.tables[ego] = ctrl

    # -- the per-state record -----------------------------------------------

    def _record(self):
        """The current state's record: looked up once per state entered,
        and made when its hash has none."""
        if self._at is not self.cfg:
            # as in `_listing`, without its call: this runs every step
            h = self.cfg.state_hash()
            self._rec = self._records.get(h) or remember(
                self._records, h, _Record(), RECORDS)
            self._at = self.cfg
        return self._rec

    def _pools(self):
        """`(by_label, p1 of the table controllers, p2, p3)` at the
        current state, kept in its record."""
        rec = self._record()
        if rec.pools is None:
            steered, table = set(self.runtimes), []
            for ego, ctrl in self.tables.items():
                cmd = ctrl.command(self.cfg)
                if cmd is None:
                    continue  # coverage gap: leave the ego's own moves free
                steered.add(ego)
                if cmd != IDLE:
                    table.append(cmd)
            by_label, p2, p3 = {}, [], []
            for c in rec.listing(self.cfg, step_candidates):
                by_label[c.label] = c
                if c.controlled_by & steered:
                    continue  # withheld unless its agent chose it
                (p2 if c.kind == CONTROLLER else p3).append(c)
            rec.pools = (by_label, [by_label[lab] for lab in table if lab in by_label],
                         p2, p3)
        return rec.pools

    def _failing(self, always):
        """Which of the run's `always` checks, `(fn, result)` pairs, fail
        at the current state: their results, kept in its record."""
        rec = self._record()
        if rec.failing is None:
            rec.failing = [res for fn, res in always if not _holds(fn, self.cfg)]
        return rec.failing

    # -- one step -----------------------------------------------------------

    def advance(self):
        """Run one step; returns the event dict or None at quiescence."""
        step = self.step_no
        beliefs = {}
        chosen = []
        for ego in self.runtimes:  # declaration order
            rt = self.runtimes[ego]
            label = rt.step(self.cfg, step, self.seed)
            beliefs[ego] = rt.model.digest()
            if label is not None:
                chosen.append(label)
        by_label, p1, p2, p3 = self._pools()
        if chosen:
            p1 = [by_label[lab] for lab in chosen if lab in by_label] + p1
        pool = p1 or p2 or p3
        cand = None
        if self.policy == "script":
            if step < len(self.script):
                want = self.script[step]
                for c in p1 + p2 + p3:
                    if c.rule.name == want or f"{c.motif}/{c.rule.name}" == want:
                        cand = c
                        break
        elif pool:
            if self.policy == "round_robin":
                cand = pool[self.rr % len(pool)]
                self.rr += 1
            else:
                cand = self.rng.choice(pool)
        error = None
        if cand is None:
            if self.policy != "script" or step >= len(self.script):
                return None
            # scripted rule not enabled: an explicit stutter step
            motif = rule = None
            binding = {}
            unc = False
        else:
            motif, rule, binding = cand.motif, cand.rule.name, dict(cand.binding)
            unc = not (cand.controlled_by & self._deliberative) \
                and cand.kind != CONTROLLER
            try:
                self.cfg = cand.fire()
            except EffectError as e:
                # a command that fails to execute consumes the step
                error = str(e)
        self.step_no += 1
        for rt in self.runtimes.values():
            rt.observe_event(unc)
        event = {"step": step, "motif": motif, "rule": rule, "binding": binding,
                 "post": self.cfg.state_hash(), "unc": unc, "beliefs": beliefs}
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
    always produce a byte-identical trace.
    """
    sc = system.scenario
    steps = steps if steps is not None else (sc.steps if sc else 100)
    seed = seed if seed is not None else (sc.seed if sc else 0)
    policy = policy or (sc.policy if sc else "random")
    world = World(system, seed=seed, policy=policy, controllers=controllers)
    trace = Trace({"model": _model_hash(system), "seed": seed,
                   "policy": policy, "steps": steps})
    checks = [(cd, cd.holds, CheckResult(cd.name, cd.when))
              for cd in (sc.checks if sc else ())]
    always = [(fn, res) for cd, fn, res in checks if cd.when == "always"]
    for res in world._failing(always):
        res.fail(-1)
    for _ in range(steps):
        e = world.advance()
        if e is None:
            break
        trace.events.append(e)
        for res in world._failing(always):
            res.fail(e["step"])
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
    whose post-state hash differs from the recording.
    """
    lines = [ln for ln in trace_text.splitlines() if ln.strip()]
    if not lines:
        raise ReplayDivergence("empty trace file", step=0)
    header = json.loads(lines[0])
    if header.get("model") != _model_hash(system):
        raise ReplayDivergence("trace header does not match this model", step=0)
    cfg = system.cfg
    for ln in lines[1:]:
        e = json.loads(ln)
        step = e["step"]
        if e.get("rule") is not None:
            cand = None
            for c in step_candidates(cfg):
                if c.motif == e["motif"] and c.rule.name == e["rule"] \
                        and dict(c.binding) == e["binding"]:
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
        if cfg.state_hash() != e["post"]:
            raise ReplayDivergence(f"state mismatch at step {step}", step=step)
    return cfg
