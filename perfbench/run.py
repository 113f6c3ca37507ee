"""motifsim benchmark: one workload per invocation, one caller, one thread.

    python3 perfbench/run.py --workload sim_fresh --seed 3 --seconds 20 --trace 0

Runs from the root of a checkout and imports the engine from `src/`.  It
repeats the workload's round (its fixed unit of work) until `--seconds`
have passed, checks every operation against `references.json`, prints
each metric with its unit, and ends with one JSON line:
`{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` reports the end-to-end metrics, measured untraced; its
times are host seconds scaled to a reference host by the host-speed
gauge of `pace.py`.
`--trace 1` runs untraced rounds, then installs the layer wrappers of
`tracing.py` and runs traced rounds; it reports the per-layer metrics
and `trace.overhead`, and writes the first traced round's spans under
`perfbench/out/`.

`--size toy` runs a tiny version of every workload (used by
`test_selfcheck.py`).
"""

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 24
UNTRACED_SHARE = 0.4  # of --seconds, in a traced run


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim_fresh", "sim_revisit", "agent_platoon", "synth"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "toy"], default="full")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


class SetupProbes:
    """Set-up time in fresh processes (`probe.py`), spread over the run so
    that the median covers the host's speed over all of it."""

    def __init__(self, name, size):
        self.cmd = [sys.executable, "-I", os.path.join(HERE, "probe.py"), name, size]
        self.host, self.ref = [], []

    def due(self, share):
        """Run probes until `share` of the `SETUP_PROBES` are done."""
        import pace
        while len(self.ref) < math.ceil(SETUP_PROBES * min(share, 1.0)):
            out = subprocess.run(self.cmd, capture_output=True, text=True,
                                 timeout=120, check=True)
            r = json.loads(out.stdout.splitlines()[-1])
            self.host.append(r["setup_s"])
            self.ref.append(r["setup_s"] * r["rate"] / pace.REFERENCE_RATE)


def run_rounds(workload, seconds, after_round=None):
    """Repeat the workload's round for `seconds` of wall time: at least
    once, and then only while the next round, as long as the median one
    so far, ends in time."""
    rounds, walls = [], []
    t_end = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + statistics.median(walls) <= t_end:
        t0 = time.perf_counter()
        gc.collect()
        rounds.append(workload.round())
        if after_round is not None:
            after_round()
        walls.append(time.perf_counter() - t0)
    return rounds


def measure(workload, seconds, size):
    """Untraced rounds timed by the host-speed gauge, with the set-up
    probes in between; returns (rounds, reference seconds of each round,
    probes)."""
    from workloads import PacedClock, pace_engine
    clock = workload.clock = PacedClock()
    pace_engine(clock)
    probes = SetupProbes(workload.name, size)
    ref = []
    t0 = time.perf_counter()

    def after_round():
        clock.flush()
        ref.append(clock.ref_s)
        clock.ref_s = 0.0
        probes.due((time.perf_counter() - t0) / seconds)

    rounds = run_rounds(workload, seconds, after_round)
    probes.due(1)
    return rounds, ref, probes


def round_seconds(ops):
    return sum(op.seconds for op in ops)


def tail(samples):
    """(percentile, value): the highest percentile with at least ten
    samples beyond it (the minimum when there are too few samples)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return 0.0, s[0]
    return 100.0 * (n - 10) / n, s[n - 11]


def check_ops(workload, rounds):
    from workloads import failure
    attempted = failed = 0
    for ops in rounds:
        for op in ops:
            attempted += 1
            why = failure(workload, op)
            if why is not None:
                failed += 1
                print(f"FAILED {workload.name} {op.label}: {why}", file=sys.stderr)
    return attempted, failed


def metric_units(kind):
    """Name -> unit of the `end_to_end` or `per_layer` metrics that
    BENCHMARK.json declares; the result object carries exactly these."""
    with open(SPEC) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def report(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<8} {note}".rstrip())


def end_to_end(workload, rounds, ref, probes):
    """Print the end-to-end metrics; return the ones the result carries.
    Times are in reference-host seconds (`pace.py`); host seconds are
    printed beside them."""
    host = [round_seconds(ops) for ops in rounds]
    round_s = statistics.median(ref)
    setup_s = statistics.median(probes.ref)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report("setup_s", setup_s, "s", f"median of {len(probes.ref)} fresh processes; "
           f"host {statistics.median(probes.host):.4g} s")
    report("round_s", round_s, "s", f"median of {len(ref)} rounds; "
           f"host {statistics.median(host):.4g} s")
    if workload.name == "synth":
        report("synth_s", round_s, "s", "ground -> solve, three syntheses")
    else:
        rates = [sum(op.steps for op in ops) / t for ops, t in zip(rounds, ref) if t > 0]
        report("steps_per_s", statistics.median(rates), "steps/s")
    if workload.name == "agent_platoon":
        p50s, tails = [], []
        for ops in rounds:
            lat = [x for op in ops if op.latencies for x in op.latencies]
            if lat:
                p50s.append(statistics.median(lat) * 1e3)
                pct, v = tail(lat)
                tails.append(v * 1e3)
        report("step_p50_ms", statistics.median(p50s), "ms", "host time")
        report("step_tail_ms", statistics.median(tails), "ms",
               f"host time, p{pct:.4g} of n={len(lat)} steps per round, median of rounds")
    report("peak_rss_mb", peak_mb, "MB")
    values = {"setup_s": setup_s, "round_s": round_s, "peak_rss_mb": peak_mb}
    return {k: (values[k], u) for k, u in metric_units("end_to_end").items()}


def lang_seconds(workload, reps=5):
    """Median parse+validate and build time of the workload's models."""
    from motifsim.lang import parse
    texts = list(workload.model_texts().values())
    parse_t, build_t = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        models = [parse(t)[0] for t in texts]
        t1 = time.perf_counter()
        for m in models:
            m.build()
        parse_t.append(t1 - t0)
        build_t.append(time.perf_counter() - t1)
    return statistics.median(parse_t), statistics.median(build_t)


def per_layer(args, workload, seconds):
    """Untraced rounds, then traced rounds; returns (rounds, metrics)."""
    import tracing
    from workloads import Clock

    parse_s, build_s = lang_seconds(workload)
    plain = run_rounds(workload, seconds * UNTRACED_SHARE)
    rec = tracing.Recorder()
    tracing.install(rec)
    workload.clock = Clock(rec)
    layers, snapshots = [], []
    costs = [tracing.calibrate()]

    def collect():
        # wrapper cost per span: the mean of calibrations either side
        costs.append(tracing.calibrate())
        inner, outer = (statistics.mean(c) for c in zip(*costs[-2:]))
        layers.append(tracing.layer_metrics(rec, inner, outer))
        if not snapshots:
            snapshots.append(rec.snapshot())
        rec.reset()

    try:
        traced = run_rounds(workload, seconds * (1 - UNTRACED_SHARE), collect)
    finally:
        tracing.uninstall_gc(rec)

    # engine call counts are deterministic; collector counts are not
    counts = [{k: v for k, v in m.items() if isinstance(v, int) and not k.startswith("py.")}
              for m in layers]
    repeat = all(c == counts[0] for c in counts)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics.update(counts[0])
    t_plain = statistics.median(round_seconds(ops) for ops in plain)
    t_traced = statistics.median(round_seconds(ops) for ops in traced)
    metrics["lang.parse_s"] = parse_s
    metrics["lang.build_s"] = build_s
    metrics["trace.round_s"] = t_traced
    metrics["trace.overhead"] = (t_traced - t_plain) / t_plain

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.json.gz")
    tracing.write_spans(path, snapshots[0], {"workload": args.workload, "seed": args.seed})

    units = metric_units("per_layer")
    for k in sorted(metrics):
        report(k, metrics[k], units[k])
    print(f"  layer counts repeat across {len(traced)} traced rounds: {repeat}")
    inner, outer = (statistics.median(c) for c in zip(*costs))
    print(f"  wrapper cost per span: {inner:.0f} ns inside, {outer:.0f} ns outside "
          f"(median of {len(costs)} calibrations)")
    _print_shares(metrics)
    print(f"  spans of the first traced round: {os.path.relpath(path, ROOT)}")
    return plain + traced, {k: (metrics[k], u) for k, u in units.items()}


def _print_shares(m):
    base = m["trace.round_s"] - m["trace.wrapper_s"]
    if base <= 0:
        return
    rules_model = sum(m[k] for k in m if k.startswith(("rules.", "model.")) and k.endswith("self_s"))
    solve = m["games.solve_safety.s"] + m["games.solve_reach.s"]
    print(f"  share of traced time less wrapper cost: rules+model self {rules_model / base:.1%}, "
          f"ground {m['games.ground.s'] / base:.1%}, solvers {solve / base:.1%}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "motifsim", "__init__.py")):
        print("perfbench: no engine sources at src/motifsim; run from the root "
              "of a motifsim checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    with open(REFERENCES) as f:
        refs = json.load(f)
    seeds = workloads.seed_block(refs["blocks"], args.seed)
    workload = workloads.make(args.workload, args.size, seeds, refs[args.workload])
    workload.setup()
    held_out = " (held out)" if args.seed % len(refs["blocks"]) in workloads.HELD_OUT_SEEDS else ""
    print(f"workload {args.workload} (size {args.size}, --seed {args.seed}{held_out}): "
          f"{workload.describe()}")
    if args.trace:
        rounds, metrics = per_layer(args, workload, args.seconds)
        attempted, failed = check_ops(workload, rounds)
    else:
        rounds, ref, probes = measure(workload, args.seconds, args.size)
        attempted, failed = check_ops(workload, rounds)
        metrics = end_to_end(workload, rounds, ref, probes)
    report("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
