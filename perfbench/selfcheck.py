"""Fast self-check of the benchmark at q <= 49 (a few seconds).

    python3 perfbench/selfcheck.py

Checks the reference arithmetic against known identities, runs every
workload at a small field with tracing off and on, and feeds each
workload's checks a tampered report to show they catch it.  Exits 0 when
all of that holds.
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import RefField, irreducible, own_modulus, valuation_and_prime_lead  # noqa: E402
from run import declared_metrics, run  # noqa: E402
from workloads import workloads  # noqa: E402


def _least_modulus(p, f):
    for n in range(p ** f):
        poly = [(n // p ** i) % p for i in range(f)] + [1]
        if irreducible(poly, p):
            return poly


def check_reference():
    for p, f in ((7, 1), (7, 2), (11, 2)):
        q = p ** f
        ref = RefField(p, f, 2 * f + 2)
        for a in range(1, q - 1):
            sign = 1 if (a + 1) % 2 == 0 else -1
            want = [sign % ref.pN] + [0] * (f - 1)
            assert ref.jacobi(a, q - 1 - a, "standard") == want, (p, f, a)
        for a in range(0, q, 5):
            for b in range(0, q, 7):
                assert ref.jacobi(a, b, "standard") == ref.jacobi(b, a, "standard"), (p, f, a, b)
        # valuations and prime-field leads do not depend on the modulus
        if f > 1:
            other = RefField(p, f, ref.N, _least_modulus(p, f))
            assert other.modulus != own_modulus(p, f)
            for a in range(1, q - 1, 3):
                for b in range(1, q - 1, 4):
                    if (a + b) % (q - 1):
                        x = valuation_and_prime_lead(ref.jacobi(a, b, "J0"), p, ref.N)
                        y = valuation_and_prime_lead(other.jacobi(a, b, "J0"), p, ref.N)
                        assert x == y and x[1] is not None, (p, f, a, b, x, y)
    print("reference arithmetic: ok")


def _tamper(name, reports):
    """A copy of the reports with one output changed that the checks read."""
    bad = copy.deepcopy(reports)
    if name == "cycle-constants":
        step = bad["irr"]["items"][0]["outputs"]["steps"][0]
        step["lead"][0] = (step["lead"][0] + 1) % 7 or 1
    elif name == "selftest-full":
        for it in bad["selftest"]["items"]:
            if it["provenance"] == "operator product relations":
                it["inputs"]["pairs"] -= 1
    else:
        for it in bad["scan"]["items"]:
            it["outputs"]["valuation"] += 1
    return bad


def check_workloads():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        assert {w["name"] for w in json.load(fh)["workloads"]} == set(workloads())
    outroot = os.path.join(HERE, "results", "selfcheck")
    for name, wl in workloads(small=True).items():
        for trace in (0, 1):
            result, summary = run(wl, 3, 0, trace, outroot)
            assert result["correct"] and result["failed"] == 0, summary["problems"]
            assert set(result["metrics"]) == set(declared_metrics(trace))
            # the end-to-end metrics are times and a size: never 0
            assert trace or all(m["value"] > 0 for m in result["metrics"].values()), result
        reports = {}
        for call, _ in wl.calls(3, os.path.join(outroot, name)):
            with open(os.path.join(outroot, name, call + ".json")) as fh:
                reports[call] = json.load(fh)
        _, _, problems = wl.check(_tamper(name, reports), 3)
        assert problems, "%s: tampered report passed the checks" % name
        print("%s at q = %d: ok (%d items, tamper caught: %s)"
              % (name, wl.p ** wl.f, result["attempted"], problems[0]))


if __name__ == "__main__":
    check_reference()
    check_workloads()
