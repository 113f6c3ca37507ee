"""Command-line entry point.

Exit status contract: 0 success, 1 validation/check/synthesis failure,
2 usage error, 3 internal/engine error.
"""

import argparse
import os
import sys
import tempfile

from . import sim
from .errors import EngineError, NoSafePlan, StateBudgetExceeded
from .games import export_controller, ground, plan_horizon, solve_reach, solve_safety
from .goals import AVOID
from .lang import load

OK = 0
FAIL = 1
USAGE = 2
INTERNAL = 3


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path):
    """Returns (system, status); prints diagnostics on failure."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        return None, USAGE
    system, diags = load(text)
    for d in diags:
        print(str(d), file=sys.stderr)
    if system is None:
        return None, FAIL
    return system, OK


def cmd_check(args):
    system, status = _load(args.model)
    return status


def cmd_simulate(args):
    system, status = _load(args.model)
    if system is None:
        return status
    try:
        trace = sim.run(system, steps=args.steps, seed=args.seed,
                        policy=args.policy)
    except EngineError as e:
        print(f"engine error: {e}", file=sys.stderr)
        return INTERNAL
    if args.trace:
        _atomic_write(args.trace, trace.text())
    summary = trace.summary()
    if summary:
        print(summary)
    print(f"steps: {trace.steps}")
    return OK if all(c.ok for c in trace.checks) else FAIL


def cmd_synth(args):
    system, status = _load(args.model)
    if system is None:
        return status
    goal = system.goals.get(args.goal)
    if goal is None:
        print(f"unknown goal {args.goal!r}", file=sys.stderr)
        return USAGE
    if args.agent not in system.cfg.components:
        print(f"unknown agent {args.agent!r}", file=sys.stderr)
        return USAGE
    is_avoid = goal.kind == AVOID
    try:
        game = ground(system.cfg, args.agent, max_states=args.bound,
                      bad=goal.holds if is_avoid else None,
                      target=None if is_avoid else goal.holds)
        if is_avoid:
            ctrl = solve_safety(game)
        else:
            ctrl = solve_reach(game, within=solve_safety(game))
    except StateBudgetExceeded as e:
        print(f"{e}; use the plan command for finite-horizon planning",
              file=sys.stderr)
        return INTERNAL
    init_key = game.states[game.initial].key
    winning = ctrl.covers(init_key)
    print(f"states: {len(game)}")
    print(f"winning: {len(ctrl.winning)}")
    print(f"initial: {'winning' if winning else 'losing'}")
    if args.out:
        _atomic_write(args.out, export_controller(ctrl))
    return OK if winning else FAIL


def cmd_plan(args):
    if args.horizon < 1:
        print("horizon must be >= 1", file=sys.stderr)
        return USAGE
    system, status = _load(args.model)
    if system is None:
        return status
    if args.agent not in system.cfg.components:
        print(f"unknown agent {args.agent!r}", file=sys.stderr)
        return USAGE
    ad = system.agent_defs.get(args.agent)
    if ad is not None:
        goals = [system.goals[n] for n in ad.goals if n in system.goals]
    else:
        goals = sorted(system.goals.values(), key=lambda g: g.sort_key())
    try:
        plan = plan_horizon(system.cfg, args.agent, goals, args.horizon)
    except NoSafePlan as e:
        print(f"no safe plan: {e}", file=sys.stderr)
        return FAIL
    except EngineError as e:
        print(f"engine error: {e}", file=sys.stderr)
        return INTERNAL
    print(plan.render())
    print(f"first action: {plan.first_action}")
    return OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="motifsim",
        description="Motif-based architecture engine: check, simulate, "
                    "synthesize controllers, plan.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a model file")
    p.add_argument("model")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("simulate", help="run a model and its scenario checks")
    p.add_argument("model")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--policy", choices=["random", "round_robin", "script"],
                   default=None)
    p.add_argument("--trace", metavar="OUT", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("synth", help="synthesize a controller for one goal")
    p.add_argument("model")
    p.add_argument("--agent", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--bound", type=int, default=10000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("plan", help="compute a finite-horizon plan")
    p.add_argument("model")
    p.add_argument("--agent", required=True)
    p.add_argument("--horizon", type=int, default=3)
    p.set_defaults(fn=cmd_plan)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except EngineError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
