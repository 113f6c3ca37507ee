"""Regenerate `references.json`: the expected outcome of every operation,
and the seed blocks that `--seed` selects.

    python3 perfbench/make_references.py

Outcomes are recorded from the engine as it is when this runs, so run it
only for a change meant to alter simulated outcomes, and say so where
that change is recorded.  The digests leave out state and belief hashes,
so a change of the hash format needs no new references.

Seed blocks: the platoon's cost per simulation seed is heavy-tailed (the
costliest seed does about ten times the median engine work), so blocks
of consecutive seeds would differ in cost by more than the benchmark's
bounds.  Each of the `BLOCKS` blocks instead takes ten of the pool's
seeds such that every block does nearly the same engine work, counted as
traced spans (calls across layer boundaries), which is deterministic.
Seeds are dealt heaviest first, each to the lightest block with room.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402

BLOCKS = 100
BLOCK_SIZE = 10

SYNTH_EXPECTED = {  # stated by the workload's design; a cross-check
    "strip/arrive": {"states": 9888, "edges": 18285, "initial": "winning"},
    "lapcounter/lapped": {"states": 1202, "initial": "winning"},
    "lapcounter/overrun": {"states": 1202, "initial": "losing"},
}


def outcomes(name, size):
    w = workloads.make(name, size, list(range(BLOCK_SIZE)), {})
    w.setup()
    ops = w.round()
    for op in ops:
        if op.error is not None:
            raise SystemExit(f"{name} {op.label}: {op.error}")
    return ops


def platoon_pool():
    """Digest and engine work (traced spans) of every pool seed, and the
    check verdicts, which every seed shares."""
    rec = tracing.Recorder()
    tracing.install(rec)
    w = workloads.make("agent_platoon", "full", [], {}, workloads.Clock(rec))
    w.setup()
    digests, checks, work = {}, set(), {}
    for seed in range(BLOCKS * BLOCK_SIZE):
        rec.reset()
        op = workloads.Op(str(seed))
        w.drive(op, seed)
        digests[op.label] = op.outcome["digest"]
        checks.add(json.dumps(op.outcome["checks"]))
        work[seed] = len(rec.name)
        print(f"agent_platoon seed {seed}: {work[seed]} spans", file=sys.stderr)
    tracing.uninstall_gc(rec)
    if len(checks) != 1:
        raise SystemExit(f"check verdicts differ across seeds: {checks}")
    return {"checks": json.loads(checks.pop()), "digests": digests}, work


def balanced_blocks(work):
    blocks = [[] for _ in range(BLOCKS)]
    load = [0] * BLOCKS
    for seed in sorted(work, key=lambda s: (-work[s], s)):
        b = min((i for i in range(BLOCKS) if len(blocks[i]) < BLOCK_SIZE),
                key=lambda i: (load[i], i))
        blocks[b].append(seed)
        load[b] += work[seed]
    # Then swap seeds between pairs of blocks while a swap narrows the
    # pair's gap; each swap lowers the sum of squared loads, so this ends.
    swapped = True
    while swapped:
        swapped = False
        for i in range(BLOCKS):
            for j in range(BLOCKS):
                gap = load[i] - load[j]
                if gap <= 0:
                    continue
                best = min(((abs(gap - 2 * (work[a] - work[b])), a, b)
                            for a in blocks[i] for b in blocks[j]
                            if 0 < work[a] - work[b] < gap), default=None)
                if best is None:
                    continue
                _, a, b = best
                blocks[i][blocks[i].index(a)] = b
                blocks[j][blocks[j].index(b)] = a
                load[i] -= work[a] - work[b]
                load[j] += work[a] - work[b]
                swapped = True
    return [sorted(b) for b in blocks]


def main():
    refs = {"sim_fresh": {}, "sim_revisit": {"free": {}, "steered": {}}, "synth": {}}
    for size in ("full", "toy"):
        sz = workloads.SIZES[size]
        op, = outcomes("sim_fresh", size)
        refs["sim_fresh"][str(sz["fresh_steps"])] = op.outcome
        for op in outcomes("sim_revisit", size):
            refs["sim_revisit"][op.label].setdefault(str(sz["revisit_steps"]), op.outcome)
        refs["synth"][size] = {op.label: op.outcome for op in outcomes("synth", size)}
    for label, want in SYNTH_EXPECTED.items():
        got = refs["synth"]["full"][label]
        if any(got[k] != v for k, v in want.items()):
            raise SystemExit(f"synth {label}: {got} differs from {want}")
    refs["agent_platoon"], work = platoon_pool()
    refs["blocks"] = balanced_blocks(work)
    with open(os.path.join(HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
