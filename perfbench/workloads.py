"""The benchmark's workloads: the CLI calls each one makes and the checks
run on their reports.  All checks run after the timed phases.

Each workload is a field (p, f) plus a list of CLI argv lists.  The
self-check reruns the same workloads at a small field; only the size
parameters change, never the checks.
"""

import random

from reference import RefField, valuation_and_prime_lead

# stickelberger-scan sample size at q = 1331: 1-2 ms a pair on a 2-vCPU
# machine, so the timed phase lasts 7-16 s.  Shorter phases drift more; a
# longer one would push a full measurement (70 runs over the three
# workloads) past its 57 minutes.
SCAN_LIMIT = 8000
# jacobi-scan pairs checked against the reference Jacobi sums
SCAN_REFERENCE_SAMPLE = 100


class Workload:
    """A field, the CLI calls of one round and the check over their reports;
    limit is the stickelberger-scan sample size where there is one."""

    def __init__(self, name, p, f, calls, check, limit=None):
        self.name, self.p, self.f, self.limit = name, p, f, limit
        self._calls, self._check = calls, check

    def calls(self, seed, outdir):
        """[(report name, argv)] for one round; argv writes to outdir/name.json."""
        out = []
        for name, args in self._calls(self, seed):
            argv = list(args) + ["--p", str(self.p), "--f", str(self.f), "--jobs", "1",
                                 "--json", "--out", "%s/%s.json" % (outdir, name)]
            out.append((name, argv))
        return out

    def check(self, reports, seed):
        """(attempted, failed, problems) for one round's parsed reports.

        An item fails when one of the program's own checks on it fails;
        problems lists what the benchmark found wrong in the outputs."""
        return self._check(self, reports, seed)


# ------------------------------------------------------------ shared checks


def _item_failed(item):
    return not all(c["pass"] for c in item["checks"])


def _tally(report):
    """Items attempted and failed, and whether the summary matches them."""
    items = report["items"]
    npass = sum(c["pass"] for it in items for c in it["checks"])
    nfail = sum(not c["pass"] for it in items for c in it["checks"])
    problems = []
    if report["summary"] != {"pass": npass, "fail": nfail}:
        problems.append("summary %s does not count the item checks" % report["summary"])
    return len(items), sum(_item_failed(it) for it in items), problems


def delta_orbits(kind, f):
    """The delta orbits of length > 1 on subsets of Z/f, from the shift rule:
    j in delta(J) iff j+1 in J for j < f-1; at the seam j = f-1 the
    reducible shift tests 0 in J and the irreducible one 0 not in J."""

    def shift(J):
        out = {j for j in range(f - 1) if j + 1 in J}
        if (0 in J) == (kind == "red"):
            out.add(f - 1)
        return frozenset(out)

    seen, orbits = set(), []
    for mask in range(1 << f):
        J = frozenset(j for j in range(f) if mask >> j & 1)
        if J in seen:
            continue
        orbit = [J]
        while shift(orbit[-1]) != J:
            orbit.append(shift(orbit[-1]))
        seen.update(orbit)
        if len(orbit) > 1:
            orbits.append(orbit)
    return orbits, shift


def _check_cycle_items(items, kind, f, ref, problems):
    """Constant items for one kind: they cover every delta orbit, walk it by
    the shift rule, carry the three route checks, and every step's
    valuation and leading digit match the reference Jacobi sum."""
    orbits, shift = delta_orbits(kind, f)
    want = {frozenset(o) for o in orbits}
    got = []
    for it in items:
        subsets = [frozenset(J) for J in it["outputs"]["subsets"]]
        got.append(frozenset(subsets))
        if any(shift(subsets[t]) != subsets[(t + 1) % len(subsets)] for t in range(len(subsets))):
            problems.append("%s %s: orbit does not follow the shift rule" % (kind, it["inputs"]))
        names = {c["name"] for c in it["checks"]}
        for need in ("valuation ledger cancels", "routes agree", "theorem form"):
            if need not in names:
                problems.append("%s %s: no '%s' check" % (kind, it["inputs"], need))
        steps = it["outputs"].get("steps") or []
        if len(steps) != len(subsets):
            problems.append("%s %s: %d steps for an orbit of %d" % (kind, it["inputs"], len(steps), len(subsets)))
        for st in steps:
            v, c = valuation_and_prime_lead(ref.jacobi(st["i_psi"], st["jacobi_b"], "standard"), ref.p, ref.N)
            lead = st["lead"]
            if st["valuation"] != v or any(lead[1:]) or lead[0] != c:
                problems.append("%s %s step %d: v=%s lead=%s, reference v=%s lead=%s"
                                % (kind, it["inputs"], st["index"], st["valuation"], lead, v, c))
    if set(got) != want or len(got) != len(want):
        problems.append("%s: items cover %d orbits, the shift rule gives %d" % (kind, len(got), len(want)))


# -------------------------------------------------------------- workloads


def _constant_calls(wl, seed):
    base = ["constant", "--r", "2", "--alpha", "1", "--mode", "stepwise"]
    return [("irr", base + ["--kind", "irr"]),
            ("red", base + ["--kind", "red", "--alpha-prime", "1"])]


def _constant_check(wl, reports, seed):
    f = wl.f
    ref = RefField(wl.p, f, 2 * f + 2)
    attempted = failed = 0
    problems = []
    for kind in ("irr", "red"):
        a, b, extra = _tally(reports[kind])
        attempted, failed = attempted + a, failed + b
        problems += extra
        _check_cycle_items(reports[kind]["items"], kind, f, ref, problems)
    return attempted, failed, problems


def _selftest_calls(wl, seed):
    return [("selftest", ["selftest", "--level", "full", "--seed", str(seed)])]


def _selftest_check(wl, reports, seed):
    report = reports["selftest"]
    attempted, failed, problems = _tally(report)
    by_prov = {}
    for it in report["items"]:
        by_prov.setdefault(it["provenance"], []).append(it)
    # at level full the relations sample 300 pairs (all 25 at q = 7) and
    # the contraction 10 tuples each of length 2 and 3
    want_pairs = 25 if wl.p ** wl.f == 7 else 300
    rel = by_prov.get("operator product relations", [{}])[0].get("inputs", {})
    if rel.get("pairs") != want_pairs:
        problems.append("relations checked %s pairs, want %d" % (rel.get("pairs"), want_pairs))
    con = by_prov.get("operator contraction", [{}])[0].get("inputs", {})
    if con.get("tuples") != 20:
        problems.append("contraction checked %s tuples, want 20" % con.get("tuples"))
    constants = by_prov.get("two-route assembly", [])
    n_orbits = sum(len(delta_orbits(kind, wl.f)[0]) for kind in ("irr", "red"))
    if len(constants) != n_orbits or any(it["inputs"]["mode"] != "stepwise" for it in constants):
        problems.append("%d stepwise constant items, the shift rule gives %d orbits" % (len(constants), n_orbits))
    return attempted, failed, problems


def _scan_calls(wl, seed):
    return [("scan", ["stickelberger-scan", "--limit", str(wl.limit), "--seed", str(seed)])]


def _scan_check(wl, reports, seed):
    p, f, limit = wl.p, wl.f, wl.limit
    report = reports["scan"]
    attempted, failed, problems = _tally(report)
    q = p ** f
    pairs = [(it["inputs"]["a"], it["inputs"]["b"]) for it in report["items"]]
    if len(set(pairs)) != limit:
        problems.append("%d distinct pairs, want %d" % (len(set(pairs)), limit))
    if any(not (0 < a < q - 1 and 0 < b < q - 1 and (a + b) % (q - 1)) for a, b in pairs):
        problems.append("a scanned pair is outside the admissible range")
    ref = RefField(p, f, 2 * f + 2)
    rng = random.Random(seed)
    for it in rng.sample(report["items"], min(SCAN_REFERENCE_SAMPLE, len(report["items"]))):
        a, b = it["inputs"]["a"], it["inputs"]["b"]
        v, c = valuation_and_prime_lead(ref.jacobi(a, b, "J0"), p, ref.N)
        lead = it["outputs"]["lead"]
        if it["outputs"]["valuation"] != v or any(lead[1:]) or lead[0] != c:
            problems.append("J0(%d, %d): v=%s lead=%s, reference v=%s lead=%s"
                            % (a, b, it["outputs"]["valuation"], lead, v, c))
    return attempted, failed, problems


def workloads(small=False):
    """The benchmark's workloads; small=True gives the self-check's fields."""
    return {
        "cycle-constants": Workload(
            "cycle-constants", 7, 2 if small else 3, _constant_calls, _constant_check),
        "selftest-full": Workload(
            "selftest-full", *((7, 1) if small else (11, 2)), _selftest_calls, _selftest_check),
        "jacobi-scan": Workload(
            "jacobi-scan", *((7, 2) if small else (11, 3)), _scan_calls, _scan_check,
            limit=200 if small else SCAN_LIMIT),
    }
