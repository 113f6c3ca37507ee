"""Host-speed gauge: end-to-end times in reference-host seconds.

The benchmark runs on a few cores of a shared host.  Neighbours slow
this process's CPU by up to 1.7x for stretches of tens of seconds to
minutes, and process CPU time slows with wall time, so no statistic over
one run's rounds removes it: the fastest round of a 25 s run moved by
1.6x between runs of the same code.

The gauge measures that speed next to the engine.  `workloads.PacedClock`,
after every `PACE_S` of timed engine work, runs a fixed pure-Python
kernel (tuples, hashing, dict updates, calls: what the engine's
interpreter loop does) for `SHARE` of that time and records its rate.  Engine time
between two gauges is scaled by the mean of their rates over
`REFERENCE_RATE`, the kernel's rate on a quiet 2-vCPU host, which gives
the time the same work takes on that host.  A change to the engine
moves the scaled time as it moves host time; a change of host speed
moves the engine and the kernel alike and cancels.  The kernel is the
benchmark's own code, so no change to the engine can alter it.
"""

import time

# Kernel iterations per second on a quiet 2-vCPU host (about the fastest
# gauges seen there); only the scale of reported times depends on it.
REFERENCE_RATE = 1.65e6
PACE_S = 0.02   # engine seconds between gauges
SHARE = 0.5     # gauge time per engine second
BATCH = 200     # kernel iterations per timing check

_NAMES = tuple(f"n{i}" for i in range(256))


def kernel(n):
    """Fixed work: `n` iterations of tuple building, hashing, dict
    updates and small calls."""
    d = {}
    acc = 0
    for i in range(n):
        k = (i & 1023, i % 7, _NAMES[i & 255])
        d[k] = d.get(k, 0) + 1
        acc ^= hash(k)
        acc += sum([i, i + 1, i + 2][1:])
    return acc


def gauge(seconds):
    """Kernel iterations per second, measured for about `seconds`."""
    n = 0
    t0 = time.perf_counter()
    while True:
        kernel(BATCH)
        n += BATCH
        dt = time.perf_counter() - t0
        if dt >= seconds:
            return n / dt
