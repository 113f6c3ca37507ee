"""Set-up probe: time, in this fresh process, importing motifsim and then
parsing, validating and building every model a workload uses (for
`sim_revisit` also grounding and solving its controller).

    python3 perfbench/probe.py <workload> <size>

Prints one JSON object with `setup_s` in host seconds and `rate`, the
host-speed gauge of `pace.py` measured just before and just after the
set-up.  `run.py` starts it several times and reports the median.
"""

import os
import sys
import time

GAUGE_S = 0.01


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import pace  # stdlib only: motifsim is not imported yet

    before = pace.gauge(GAUGE_S)
    t0 = time.perf_counter()
    import motifsim  # noqa: F401
    import workloads

    name, size = sys.argv[1], sys.argv[2]
    workloads.make(name, size, list(range(10)), {}).setup()
    setup_s = time.perf_counter() - t0
    after = pace.gauge(GAUGE_S)
    print('{"setup_s": %r, "rate": %r}' % (setup_s, (before + after) / 2))


if __name__ == "__main__":
    main()
