"""The benchmark's workloads: model texts, set-up, one round of work, and
the correctness gate every operation passes.

A round is the workload's fixed unit of work.  Rounds of one run are
identical, so their timings can be compared and their layer counts must
repeat exactly.  Only calls into the engine are timed; digests, check
evaluation, `replay` and `Controller.validate` run outside the timed
region.

Engine entry points are looked up as module attributes (`sim.run`,
`games.ground`, ...) at call time, so that the tracer's wrappers, when
installed, see every call.
"""

import functools
import hashlib
import json
import time

import pace
from motifsim import games, sim
from motifsim.expr import Ctx
from motifsim.goals import AVOID
from motifsim.lang import parse
from motifsim.scenarios import PLATOON, SHUTTLE, THERMOSTAT

# `--seed` values never used while the benchmark or a change is tuned;
# a claimed gain is confirmed on these.
HELD_OUT_SEEDS = tuple(range(90, 100))

SIZES = {
    "full": {"fresh_steps": 30000, "revisit_seeds": 10, "revisit_steps": 10000,
             "platoon_seeds": 10, "strip": 20, "laps": 600},
    "toy": {"fresh_steps": 300, "revisit_seeds": 2, "revisit_steps": 200,
            "platoon_seeds": 2, "strip": 8, "laps": 20},
}

# The deliberative platoon: v1 plans on a believed model built from a
# sensor with a finite radius and imperfect detection.
_PLATOON_AGENT = """\
goal ahead best_effort utility (@(v1, road)) priority 0;

agent v1 {
  sensor {
    motif road;
    radius 6;
    see vehicle;
    identity on;
    detect 0.90;
  }
  goals ahead;
  horizon 3;
}

"""

_STRIP = """\
type car agent {{
  var speed: int[0, 3];
}}

motif strip {{
  map line({n});
  config rule advance for a: car if empty(succ(@(a))) then {{ @(a) := succ(@(a)); }}
  config rule match for a: car, b: car if distance(@(a), @(b)) = 1 and a.speed != b.speed then {{ a.speed := b.speed; }}
}}

component a1: car {{ speed = 0; }} in strip at 4;

component a2: car {{ speed = 1; }} in strip at 2;

component a3: car {{ speed = 2; }} in strip at 0;

goal arrive critical reach (@(a1, strip) = {last}) priority 0;
"""

_LAP_GOALS = """\
goal lapped critical reach (bus.laps = {laps}) priority 0;

goal overrun critical avoid (bus.laps = {laps}) priority 0;

"""


def _replace_once(text, old, new):
    if text.count(old) != 1:
        raise ValueError(f"bundled model no longer contains {old!r} once")
    return text.replace(old, new)


def platoon_text():
    return _replace_once(PLATOON, "scenario {", _PLATOON_AGENT + "scenario {")


def strip_text(n):
    return _STRIP.format(n=n, last=n - 1)


def lapcounter_text(laps):
    text = _replace_once(SHUTTLE, "int[0, 100000]", f"int[0, {laps}]")
    return _replace_once(text, "scenario {", _LAP_GOALS.format(laps=laps) + "scenario {")


def seed_block(blocks, seed):
    """The simulation seeds `--seed` selects (see make_references.py)."""
    return blocks[seed % len(blocks)]


def build(text):
    model, diags = parse(text)
    if model is None:
        raise ValueError("model does not parse: " + "; ".join(map(str, diags)))
    return model.build()


def event_digest(events):
    """Digest of the committed (motif, rule, binding) sequence.

    Post-state and belief hashes are left out, so a change of the hash
    format does not change the digest.
    """
    h = hashlib.blake2b(digest_size=8)
    for e in events:
        h.update(json.dumps([e["motif"], e["rule"], e["binding"]],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def verdicts(check_results):
    return [[c.name, c.ok, c.first_fail] for c in check_results]


class Op:
    """One timed operation: a `run()`, a driven run, or a synthesis."""

    __slots__ = ("label", "seconds", "steps", "latencies", "outcome", "error")

    def __init__(self, label):
        self.label = label
        self.seconds = 0.0
        self.steps = 0
        self.latencies = None
        self.outcome = None
        self.error = None


class Clock:
    """Times the engine calls of a round.  A tracer's recorder, when
    given, records spans only while the clock runs."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.t0 = 0.0

    def start(self):
        if self.recorder is not None:
            self.recorder.on = True
        self.t0 = time.perf_counter()

    def stop(self):
        dt = time.perf_counter() - self.t0
        if self.recorder is not None:
            self.recorder.on = False
        return dt


class PacedClock(Clock):
    """A clock that also keeps `ref_s`: timed engine seconds scaled to
    the reference host by the host-speed gauges either side of them
    (`pace.py`).  A gauge runs with the clock paused: between timed
    calls, or inside a long one at a `tick` (see `pace_engine`)."""

    def __init__(self):
        super().__init__()
        self.rate = pace.gauge(pace.PACE_S * pace.SHARE)
        self.running = False
        self.timed = 0.0    # timed seconds of this interval before its last gauge
        self.pending = 0.0  # timed seconds since the last gauge
        self.ref_s = 0.0

    def start(self):
        self.running = True
        self.timed = 0.0
        super().start()

    def tick(self):
        """Gauge, with the clock paused, if one is due."""
        if not self.running:
            return
        dt = time.perf_counter() - self.t0
        if self.pending + dt >= pace.PACE_S:
            self.timed += dt
            self.pending += dt
            self.flush()
            self.t0 = time.perf_counter()

    def stop(self):
        if not self.running:  # an engine call raised outside the clock
            return 0.0
        dt = super().stop()
        self.running = False
        self.pending += dt
        if self.pending >= pace.PACE_S:
            self.flush()
        return self.timed + dt

    def flush(self):
        """Gauge now and scale the engine time since the last gauge."""
        if not self.pending:
            return
        before, self.rate = self.rate, pace.gauge(self.pending * pace.SHARE)
        self.ref_s += self.pending * (before + self.rate) / 2 / pace.REFERENCE_RATE
        self.pending = 0.0


def pace_engine(clock):
    """Tick `clock` inside long engine calls: after each `World.advance`,
    which `sim.run` loops over, and each successor enumeration of
    `games.ground` and the planner.  The solvers' loops call nothing
    that can be wrapped, so they are gauged only before and after."""
    def ticking(fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            result = fn(*args, **kwargs)
            clock.tick()
            return result
        return paced

    sim.World.advance = ticking(sim.World.advance)
    games.step_candidates = ticking(games.step_candidates)


class Workload:
    name = None

    def __init__(self, size, seeds, refs, clock):
        self.clock = clock
        self.size = SIZES[size]
        self.size_name = size
        self.seeds = seeds
        self.refs = refs
        self.models = {}

    def model_texts(self):
        raise NotImplementedError

    def setup(self):
        """Parse, validate and build every model the workload uses."""
        self.models = {k: build(t) for k, t in self.model_texts().items()}

    def round(self):
        """One round of work: a list of `Op`."""
        raise NotImplementedError

    def attempt(self, op, fn):
        """Run `fn(op)`; an exception fails the operation, not the benchmark."""
        try:
            fn(op)
        except Exception as e:  # every engine failure counts in `failed`
            self.clock.stop()
            op.error = f"{type(e).__name__}: {e}"
        return op

    def describe(self):
        return ""


class SimFresh(Workload):
    """The shuttle under the random policy: every state is new."""

    name = "sim_fresh"

    def __init__(self, size, seeds, refs, clock):
        super().__init__(size, seeds, refs, clock)
        self.steps = self.size["fresh_steps"]
        self.run_seed = seeds[0]
        self._replayed = None

    def model_texts(self):
        return {"shuttle": SHUTTLE}

    def describe(self):
        return f"{self.steps} steps, run seed {self.run_seed}"

    def round(self):
        system = self.models["shuttle"]

        def body(op):
            self.clock.start()
            trace = sim.run(system, steps=self.steps, seed=self.run_seed)
            text = trace.text()
            op.seconds = self.clock.stop()
            op.steps = trace.steps
            op.outcome = {"digest": event_digest(trace.events),
                          "checks": verdicts(trace.checks)}
            self._check_replay(system, text, trace)

        return [self.attempt(Op("shuttle"), body)]

    def _check_replay(self, system, text, trace):
        # rounds are identical, so one replay per distinct text suffices
        if text == self._replayed:
            return
        final = sim.replay(system, text)
        if final.canonical_key() != trace.final.canonical_key():
            raise AssertionError("replay rebuilt a different final state")
        self._replayed = text

    def expected(self, op):
        return self.refs[str(self.steps)]


class SimRevisit(Workload):
    """The thermostat, free-running and steered by its synthesized
    safety controller: a few dozen worlds revisited."""

    name = "sim_revisit"

    def __init__(self, size, seeds, refs, clock):
        super().__init__(size, seeds, refs, clock)
        self.steps = self.size["revisit_steps"]
        self.seeds = seeds[:self.size["revisit_seeds"]]

    def model_texts(self):
        return {"thermostat": THERMOSTAT}

    def setup(self):
        super().setup()
        system = self.models["thermostat"]
        band = system.goals["band"]
        game = games.ground(system.cfg, "h1", bad=band.holds)
        ctrl = games.solve_safety(game)
        self.controllers = {"h1": (frozenset({"band"}), ctrl)}

    def describe(self):
        return f"{len(self.seeds)} seeds x {self.steps} steps, free and steered, run seeds {self.seeds}"

    def round(self):
        system = self.models["thermostat"]
        ops = []
        for mode, ctrls in (("free", None), ("steered", self.controllers)):
            for s in self.seeds:
                def body(op, s=s, ctrls=ctrls):
                    self.clock.start()
                    trace = sim.run(system, steps=self.steps, seed=s,
                                    controllers=ctrls)
                    op.seconds = self.clock.stop()
                    op.steps = trace.steps
                    op.outcome = {"digest": event_digest(trace.events),
                                  "checks": verdicts(trace.checks)}
                ops.append(self.attempt(Op(mode), body))
        return ops

    def expected(self, op):
        return self.refs[op.label][str(self.steps)]


class AgentPlatoon(Workload):
    """The platoon with v1 as a deliberative agent, driven step by step
    through `World.advance` to quiescence."""

    name = "agent_platoon"
    MAX_STEPS = 1000

    def __init__(self, size, seeds, refs, clock):
        super().__init__(size, seeds, refs, clock)
        self.seeds = seeds[:self.size["platoon_seeds"]]

    def model_texts(self):
        return {"platoon": platoon_text()}

    def describe(self):
        return f"{len(self.seeds)} seeds to quiescence, run seeds {self.seeds}"

    def round(self):
        return [self.attempt(Op(str(s)), lambda op, s=s: self.drive(op, s))
                for s in self.seeds]

    def drive(self, op, seed):
        system = self.models["platoon"]
        checks = [(cd, cd.expr.compile(frozenset()), sim.CheckResult(cd.name, cd.when))
                  for cd in system.scenario.checks]
        world = sim.World(system, seed=seed, policy="random")
        lat = []
        events = []
        _eval_checks(checks, "always", world.cfg, -1)
        while len(events) < self.MAX_STEPS:
            self.clock.start()
            e = world.advance()
            dt = self.clock.stop()
            if e is None:
                break
            lat.append(dt)
            events.append(e)
            _eval_checks(checks, "always", world.cfg, e["step"])
        _eval_checks(checks, "finally", world.cfg, world.step_no)
        op.seconds = sum(lat)
        op.steps = len(events)
        op.latencies = lat
        op.outcome = {"digest": event_digest(events),
                      "checks": verdicts(res for _, _, res in checks)}

    def expected(self, op):
        return {"digest": self.refs["digests"][op.label], "checks": self.refs["checks"]}


def _eval_checks(checks, when, cfg, step):
    # as in `sim.run`, except that an exception fails the operation
    for cd, fn, res in checks:
        if cd.when == when and not fn(Ctx(cfg)):
            res.fail(step)


class Synth(Workload):
    """Three syntheses, each `ground -> solve_safety -> solve_reach` as the
    `synth` command runs them: one grounding-bound, two solver-bound."""

    name = "synth"
    # (model, ego, goal)
    JOBS = (("strip", "a1", "arrive"), ("lapcounter", "bus", "lapped"),
            ("lapcounter", "bus", "overrun"))

    def model_texts(self):
        return {"strip": strip_text(self.size["strip"]),
                "lapcounter": lapcounter_text(self.size["laps"])}

    def describe(self):
        return "strip/arrive, lapcounter/lapped, lapcounter/overrun (seed-free)"

    def round(self):
        return [self.attempt(Op(f"{m}/{g}"), lambda op, m=m, e=e, g=g: self.synthesize(op, m, e, g))
                for m, e, g in self.JOBS]

    def synthesize(self, op, model, ego, goal_name):
        system = self.models[model]
        goal = system.goals[goal_name]
        is_avoid = goal.kind == AVOID
        # grounding and solving are timed apart, so that a paced clock
        # gauges host speed between them
        self.clock.start()
        game = games.ground(system.cfg, ego,
                            bad=goal.holds if is_avoid else None,
                            target=None if is_avoid else goal.holds)
        op.seconds = self.clock.stop()
        self.clock.start()
        if is_avoid:
            ctrl = games.solve_safety(game)
        else:
            ctrl = games.solve_reach(game, within=games.solve_safety(game))
        op.seconds += self.clock.stop()
        ctrl.validate(game)
        op.outcome = {
            "states": len(game.states),
            "edges": sum(len(s.actions) for s in game.states),
            "winning": len(ctrl.winning),
            "initial": "winning" if ctrl.covers(game.states[game.initial].key) else "losing",
        }

    def expected(self, op):
        return self.refs[self.size_name][op.label]


CLASSES = {c.name: c for c in (SimFresh, SimRevisit, AgentPlatoon, Synth)}


def make(name, size, seeds, refs, clock=None):
    """Workload `name` at `size` on simulation `seeds`, checked against
    `refs` (its part of references.json)."""
    return CLASSES[name](size, seeds, refs, clock or Clock())


def failure(workload, op):
    """None if `op` succeeded and matches its reference, else the reason."""
    if op.error is not None:
        return op.error
    want = workload.expected(op)
    if op.outcome != want:
        return f"outcome {op.outcome} differs from reference {want}"
    return None
