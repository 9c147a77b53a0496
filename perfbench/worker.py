"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC_JSON

SPEC_JSON holds {"src", "p", "f", "calls", "trace"}.  The worker times the
set-up every CLI invocation pays (from before `import wittcycle` until Params,
the field tables and the Teichmuller column exist for the field), then calls
wittcycle.cli.main in-process on each argv of "calls" and times those calls.
Both phases are timed with the speed gauge of gauge.py: setup_s and solve_s
are seconds at its reference speed; the raw CPU and wall seconds go along.
With "trace" set to a file name, the layer wrappers of layertrace.py are
installed before the set-up and their figures are written there.  The last
line of stdout is a JSON object with the timings, the exit codes, peak RSS
and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time

from gauge import Gauge

# CPU seconds between gauge bursts: set-up is short, so it is sampled densely
SETUP_INTERVAL_S = 0.005
SOLVE_INTERVAL_S = 0.04


def main(spec):
    gauge = Gauge()
    gauge.start(SETUP_INTERVAL_S)
    w0 = time.perf_counter()
    m0 = gauge.mark()
    sys.path.insert(0, spec["src"])
    import wittcycle
    from wittcycle import _tables, cli
    from wittcycle.padic import Params

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    params = Params.make(spec["p"], spec["f"])
    _tables.tables_for(params)
    _tables.teich_by_code(params)
    m1 = gauge.mark()
    w1 = time.perf_counter()
    setup_s, setup_cpu_s, setup_bursts = gauge.scaled(m0, m1)

    rcs = []
    gauge.start(SOLVE_INTERVAL_S)
    w2 = time.perf_counter()
    m2 = gauge.mark()
    for argv in spec["calls"]:
        rcs.append(cli.main(argv))
    m3 = gauge.mark()
    w3 = time.perf_counter()
    gauge.stop()
    solve_s, solve_cpu_s, solve_bursts = gauge.scaled(m2, m3)

    out = {
        "module": wittcycle.__file__,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "setup_wall_s": w1 - w0,
        "setup_bursts": setup_bursts,
        "solve_s": solve_s,
        "solve_cpu_s": solve_cpu_s,
        "solve_wall_s": w3 - w2,
        "solve_bursts": solve_bursts,
        "rcs": rcs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = dict(tracer.metrics(), **{"trace.solve_s": solve_s})
        with open(spec["trace"], "w") as fh:
            json.dump(tracer.dump(), fh, indent=1, sort_keys=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
