"""wittcycle benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory.  Each round runs the workload's CLI calls in a fresh
interpreter (worker.py); rounds repeat until their timed phases add up to
--seconds.  Timed phases are in seconds at the reference speed of gauge.py,
which takes out the drift of a shared machine.  With --trace 0 the
end-to-end metrics are reported (set-up is also timed in extra set-up-only
interpreters, so there are at least SETUP_SAMPLES samples); with --trace 1
the layer wrappers are installed and the per-layer metrics are reported
instead.  All checks run after the timed phases.  The last line of stdout is
one JSON object:

    {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}

Reports, the trace file and a summary with the reports' sha256 go to
perfbench/results/<workload>/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import workloads  # noqa: E402

SETUP_SAMPLES = 3
# a run must end within 180 s; a worker past this is killed and the run fails
WORKER_TIMEOUT_S = 170


def _worker(spec, deadline):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError("worker failed (%d):\n%s" % (proc.returncode, proc.stderr[-4000:]))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(out["module"]).startswith(SRC + os.sep):
        raise RuntimeError("imported %s, not the checkout's src/" % out["module"])
    return out


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def declared_metrics(trace):
    """{name: unit} of the end-to-end (trace 0) or per-layer (trace 1)
    metrics that BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload, seed, seconds, trace, outroot):
    """Run whole rounds of the workload; return (result dict, summary dict)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    outdir = os.path.join(outroot, workload.name)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    calls = workload.calls(seed, outdir)
    spec = {"src": SRC, "p": workload.p, "f": workload.f,
            "calls": [argv for _, argv in calls],
            "trace": os.path.join(outdir, "trace.json") if trace else None}

    rounds, digests = [], []
    while not rounds or sum(r["solve_s"] for r in rounds) < seconds:
        rounds.append(_worker(spec, deadline))
        digests.append({name: _sha256(os.path.join(outdir, name + ".json")) for name, _ in calls})
    setups = [r["setup_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_worker(dict(spec, calls=[], trace=None), deadline)["setup_s"])

    # checks, outside every timed phase; the rounds ran identical inputs,
    # so their reports must be byte-identical and one of them is checked
    reports = {}
    for name, _ in calls:
        with open(os.path.join(outdir, name + ".json")) as fh:
            reports[name] = json.load(fh)
    attempted, failed, problems = workload.check(reports, seed)
    if any(d != digests[0] for d in digests):
        problems.append("rounds produced different reports")
    for r in rounds:
        want = [0 if reports[name]["summary"]["fail"] == 0 else 1 for name, _ in calls]
        if r["rcs"] != want:
            problems.append("exit codes %s, reports say %s" % (r["rcs"], want))

    if trace:
        keys = rounds[0]["layers"]
        values = {k: statistics.median(r["layers"][k] for r in rounds) for k in keys}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in rounds),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: %s" % (set(values) ^ set(units)))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    result = {
        "correct": not problems,
        "attempted": attempted * len(rounds),
        "failed": failed * len(rounds),
        "metrics": metrics,
    }
    summary = {"workload": workload.name, "seed": seed, "trace": trace,
               "field": [workload.p, workload.f], "rounds": rounds, "setups": setups,
               "sha256": digests[0], "problems": problems, "result": result}
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return result, summary


def main(argv=None):
    table = workloads()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(table))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittcycle", "cli.py")):
        print("error: %s holds no wittcycle sources; run from a checkout root" % SRC,
              file=sys.stderr)
        return 2
    result, summary = run(table[args.workload], args.seed, args.seconds, args.trace,
                          os.path.join(HERE, "results"))
    for msg in summary["problems"]:
        print("problem: %s" % msg, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
