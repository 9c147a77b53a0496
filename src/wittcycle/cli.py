"""Batch front end over the library's verification surfaces.

Each subcommand configures a field (and where needed a residual datum),
runs one surface or the aggregate selftest, and emits a report.  Text
output is for eyeballing; --json emits the stable schema

    {"command", "params": {p, f, N}, "rho", "items", "summary"}

serialized canonically (sorted keys, compact separators), so a report
file parses and re-serializes byte for byte.  Exit status: 0 all checks
pass, 1 some check failed, 2 the request itself was invalid.
"""

import argparse
import errno
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass

from wittcycle._tables import tables_for
from wittcycle.constants import breuil_constant, theorem_form
from wittcycle.group_algebra import (
    check_contract_pre,
    contract_splus,
    contraction_lead,
    contraction_valuation,
    s_operator,
    s_product_closed,
    u_convolve,
)
from wittcycle.jacobi import jacobi_sum, stickelberger_data
from wittcycle.padic import (
    PRECISION_INF,
    Params,
    teichmuller,
    valuation_and_unit,
    witt_from_int,
    witt_neg,
    witt_one,
    witt_pow,
    witt_reduce,
)
from wittcycle.weights import (
    DLType,
    IRREDUCIBLE,
    KIND_ALIASES,
    REDUCIBLE,
    char_of_subset,
    complement,
    cycle_from,
    cycles_of,
    delta,
    formal_weight_of,
    jh_intersect,
    make_rho,
    serre_weight_of,
    sigma_J_table,
    subsets_of,
    survey_orbits,
)


@dataclass
class Report:
    command: str
    params: dict
    rho: dict
    items: list
    summary: dict
    elapsed: float

    def to_json_obj(self):
        # elapsed stays out of the schema so reports are reproducible
        return {
            "command": self.command,
            "params": self.params,
            "rho": self.rho,
            "items": self.items,
            "summary": self.summary,
        }


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# values _ser returns as they are (bool is an int)
_SCALARS = (int, str, type(None))


def _ser(x):
    if isinstance(x, _SCALARS):
        return x
    if isinstance(x, dict):
        return {str(k): v if isinstance(v, _SCALARS) else _ser(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [v if isinstance(v, _SCALARS) else _ser(v) for v in x]
    if isinstance(x, (frozenset, set)):
        return sorted(x)
    if x is PRECISION_INF:
        return None  # a valuation unresolved at the working precision
    return x


def _check(name, expected, got):
    e, g = _ser(expected), _ser(got)
    return {"name": name, "pass": e == g, "expected": e, "got": g}


def _tally(name, cases):
    """One check that no (detail, ok) case fails.

    got is the failure count, paired with the first failure's detail when
    that case has one.
    """
    failed = [detail for detail, ok in cases if not ok]
    first = failed[0] if failed else None
    got = len(failed) if first is None else {"failures": len(failed), "first": first}
    return {"name": name, "pass": not failed, "expected": 0, "got": _ser(got)}


def _item(inputs, outputs, provenance, checks):
    return {
        "inputs": _ser(inputs),
        "outputs": _ser(outputs),
        "provenance": provenance,
        "checks": checks,
    }


def _build_rho(ns, params):
    r = ns.r * params.f if len(ns.r) == 1 else ns.r  # a single value repeats
    return make_rho(ns.kind, r, ns.alpha, params, alpha_prime=ns.alpha_prime)


def _rho_json(rho):
    return {
        "kind": rho.kind,
        "r": list(rho.r),
        "alpha": list(rho.alpha),
        "alpha_prime": list(rho.alpha_prime),
    }


# ---------------------------------------------------------------- field-info


def _cmd_field_info(ns, params):
    t = tables_for(params)
    gen = t.elems[t.generator]
    lift = teichmuller(gen, params)
    item = _item(
        {"p": params.p, "f": params.f},
        {
            "q": params.q,
            "N": params.N,
            "modulus": params.modulus,
            "generator": gen,
            "teichmuller_generator": lift,
        },
        "multiplicative lift of a field generator",
        [
            _check("teichmuller fixed point", lift, witt_pow(lift, params.q, params)),
            _check("generator order q-1", witt_one(params), witt_pow(lift, params.q - 1, params)),
            _check("reduction returns generator", gen, witt_reduce(lift, params)),
        ],
    )
    return None, [item]


# -------------------------------------------------------------------- jacobi


def _complementary_value(a, params):
    """J(a, q-1-a) in the standard convention: (-1)^(a+1)."""
    return witt_from_int(1 if (a + 1) % 2 == 0 else -1, params)


def _jacobi_checks(a, b, convention, value, params):
    q = params.q
    checks = [
        _check(
            "symmetric in (a, b)",
            value,
            jacobi_sum(b, a, convention, params),
        )
    ]
    if 0 < a < q - 1 and 0 < b < q - 1 and a + b != q - 1 and (a + b) % (q - 1):
        # the two conventions differ only when a or b is 0, so value is J0 here
        u, unit = stickelberger_data(a, b, params)
        v, lead = valuation_and_unit(value, params)
        checks.append(_check("valuation equals digit-carry count", u, v))
        checks.append(
            _check("leading digit equals factorial unit", witt_from_int(unit, params.residue), lead)
        )
    if 0 < a < q - 1 and a + b == q - 1 and convention == "standard":
        checks.append(_check("complementary pair value", _complementary_value(a, params), value))
    return checks


def _cmd_jacobi(ns, params):
    a, b, convention = ns.a, ns.b, ns.convention
    value = jacobi_sum(a, b, convention, params)
    v, lead = valuation_and_unit(value, params)
    item = _item(
        {"a": a, "b": b, "convention": convention},
        {"value": value, "valuation": v, "lead": lead},
        "teichmuller character sum",
        _jacobi_checks(a, b, convention, value, params),
    )
    return None, [item]


# --------------------------------------------------------- stickelberger-scan


def _scan_pair_at(pos, q):
    """The pos-th admissible pair (a, b) in lexicographic order.

    Admissible means 0 < a, b < q-1 and a + b != q-1 (the only way a + b can
    be divisible by q-1 in that range), so row a holds q-3 pairs: every b
    but q-1-a.
    """
    a, r = divmod(pos, q - 3)
    a += 1
    b = r + 1
    return (a, b + 1 if b >= q - 1 - a else b)


# the most items one scan builds: each is held, at about 2 KiB, until the
# report is written, so 2^20 of them stay near 2 GiB
MAX_SCAN_ITEMS = 1 << 20


def _scan_pairs(params, limit, rng):
    """All admissible pairs in order, or a sorted sample of `limit` of them.

    Positions are sampled from the population size alone and decoded, so no
    list of all (q-2)(q-3) pairs is built; random.sample draws from the
    length only, so the sample equals that of the list.  A scan of more than
    MAX_SCAN_ITEMS pairs is refused before any is listed.
    """
    q = params.q
    n = (q - 2) * (q - 3)
    count = n if limit is None else min(limit, n)
    if count > MAX_SCAN_ITEMS:
        raise ValueError(
            "a scan of %d pairs is above %d: pass a smaller --limit" % (count, MAX_SCAN_ITEMS)
        )
    if count == n:
        positions = range(n)
    else:
        positions = sorted(rng.sample(range(n), count))
    return [_scan_pair_at(pos, q) for pos in positions]


def _scan_chunk(args):
    params, pairs = args
    residue = params.residue
    items = []
    for a, b in pairs:
        u, unit = stickelberger_data(a, b, params)
        v, lead = valuation_and_unit(jacobi_sum(a, b, "J0", params), params)
        lead = _ser(lead)  # one list (or None) for the output and the check
        items.append(
            _item(
                {"a": a, "b": b},
                {"valuation": v, "lead": lead},
                "digit-carry count and factorial unit",
                [
                    _check("valuation", u, v),
                    _check("lead", witt_from_int(unit, residue), lead),
                ],
            )
        )
    return items


def _pool_size(jobs, ntasks):
    """Worker processes worth starting: no more than tasks or cores."""
    return max(1, min(jobs, ntasks, os.cpu_count() or 1))


def _scan(params, pairs, jobs):
    """Scan items for the pairs, in order, split over at most `jobs` workers."""
    jobs = _pool_size(jobs, len(pairs))
    chunk = max(1, (len(pairs) + jobs - 1) // jobs)
    tasks = [(params, pairs[i : i + chunk]) for i in range(0, len(pairs), chunk)]
    # at most `jobs` tasks, so one worker per task stays within the clamp
    if len(tasks) < 2:
        parts = map(_scan_chunk, tasks)
    else:
        # imported here, so a run that starts no worker never loads it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(tasks)) as pool:
            parts = list(pool.map(_scan_chunk, tasks))
    return [it for part in parts for it in part]


def _cmd_stickelberger_scan(ns, params):
    tables_for(params)  # an oversized field is refused before its pairs are listed
    pairs = _scan_pairs(params, ns.limit, random.Random(ns.seed))
    return None, _scan(params, pairs, ns.jobs)


# ------------------------------------------------------------------ contract


def _contract_checks(indices, res, params):
    """The four identities a contraction must satisfy, as checks."""
    return [
        _check("v_alpha = v_beta - f", res.v_beta - params.f, res.v_alpha),
        _check(
            "lead_alpha = -lead_beta", witt_neg(res.lead_beta, res.params.residue), res.lead_alpha
        ),
        _check("v_beta digit formula", contraction_valuation(indices, params), res.v_beta),
        _check(
            "lead_beta factorial formula",
            witt_from_int(contraction_lead(indices, params), res.params.residue),
            res.lead_beta,
        ),
    ]


def _cmd_contract(ns, params):
    indices = ns.indices
    res = contract_splus(indices, params)
    item = _item(
        {"indices": indices},
        {
            "v_alpha": res.v_alpha,
            "v_beta": res.v_beta,
            "lead_alpha": res.lead_alpha,
            "lead_beta": res.lead_beta,
            "N_used": res.params.N,
        },
        "operator product decomposed against the augmented operator",
        _contract_checks(indices, res, params),
    )
    return None, [item]


# ------------------------------------------------------------------- weights


def _cmd_weights(ns, params):
    rho = _build_rho(ns, params)
    items = []
    chars = []
    for J in subsets_of(params.f):
        fw = formal_weight_of(J, rho)
        sw = serre_weight_of(fw, rho)
        chi = char_of_subset(J, rho)
        chars.append((chi.m1, chi.m2))
        checks = [
            _check("central exponent integral", True, isinstance(sw.e, int)),
        ]
        try:
            sigma_J_table(J, rho)
            checks.append(_check("component table agrees", True, True))
        except ArithmeticError as e:
            checks.append(_check("component table agrees", True, str(e)))
        items.append(
            _item(
                {"J": J},
                {
                    "formal": fw,
                    "s": sw.s,
                    "e": sw.e,
                    "char": [chi.m1, chi.m2],
                },
                "affine weight table",
                checks,
            )
        )
    items.append(
        _item(
            {"family": "all 2^f subsets"},
            {"count": len(chars)},
            "weight characters",
            [_check("characters pairwise distinct", len(chars), len(set(chars)))],
        )
    )
    return _rho_json(rho), items


# -------------------------------------------------------------------- cycles


def _cycle_outputs(cyc):
    return {
        "k": cyc.k,
        "subsets": cyc.subsets,
        "chars": [[x.m1, x.m2] for x in cyc.chars],
        "iplus": cyc.iplus,
        "degenerate": cyc.degenerate,
        "sym_diff_size": cyc.sym_diff_size,
    }


def _cmd_cycles(ns, params):
    rho = _build_rho(ns, params)
    cycles, excluded = survey_orbits(rho)
    items = []
    for cyc in cycles:
        shifts_ok = (
            (None, chi.times_alpha(iplus) == nxt)
            for chi, nxt, iplus in zip(cyc.chars, cyc.chars[1:] + cyc.chars[:1], cyc.iplus)
        )
        items.append(
            _item(
                {"start": cyc.subsets[0]},
                _cycle_outputs(cyc),
                "delta orbit walk",
                [
                    _check("step exponents close up", 0, sum(cyc.iplus) % (params.q - 1)),
                    _tally("digit formula matches character shift", shifts_ok),
                ],
            )
        )
    for exc in excluded:
        items.append(
            _item(
                {"start": exc["orbit"][0]},
                {"orbit": exc["orbit"], "excluded": exc["reason"]},
                "delta orbit walk",
                [],
            )
        )
    return _rho_json(rho), items


# ------------------------------------------------------------------ constant


def _constant_item(cyc, rho, mode, params):
    try:
        rep = breuil_constant(cyc, rho, mode, params)
    except ArithmeticError as e:
        return _item(
            {"start": cyc.subsets[0], "mode": mode},
            _cycle_outputs(cyc),
            "two-route assembly",
            [_check("routes agree", "agreement", str(e))],
        )
    outputs = _cycle_outputs(cyc)
    outputs["g_closed"] = rep.g_closed
    outputs["g_stepwise"] = rep.g_stepwise
    outputs["ledger"] = rep.valuation_ledger
    outputs["pieces"] = rep.pieces
    if rep.steps is not None:
        outputs["steps"] = [asdict(st) for st in rep.steps]
    checks = [_check("valuation ledger cancels", 0, sum(v for _, v in rep.valuation_ledger))]
    if mode == "stepwise":
        checks.append(_check("routes agree", rep.g_closed, rep.g_stepwise))
    form = theorem_form(rep, rho, params)
    if form is not None:
        checks.append(_check("theorem form", form, rep.g_closed))
    return _item(
        {"start": cyc.subsets[0], "mode": mode},
        outputs,
        "two-route assembly",
        checks,
    )


def _cmd_constant(ns, params):
    rho = _build_rho(ns, params)
    cycles = cycles_of(rho) if ns.cycle_start is None else [cycle_from(rho, ns.cycle_start)]
    items = [_constant_item(cyc, rho, ns.mode, params) for cyc in cycles]
    return _rho_json(rho), items


# ---------------------------------------------------------------- jh-intersect


def _cmd_jh_intersect(ns, params):
    rho = _build_rho(ns, params)
    V = DLType(ns.w, ns.w_prime)
    subsets = jh_intersect(V, rho)
    constituents = []
    for J in subsets:
        sw = serre_weight_of(formal_weight_of(J, rho), rho)
        constituents.append({"J": J, "s": sw.s, "e": sw.e})
    n = len(subsets)
    item = _item(
        {"w": V.w, "w_prime": V.w_prime},
        {"count": n, "constituents": constituents},
        "interval in the subset lattice",
        [_check("interval size is 0 or a power of two", True, n == 0 or (n & (n - 1)) == 0)],
    )
    return _rho_json(rho), [item]


# ------------------------------------------------------------------ selftest


def _random_admissible(rng, k, params):
    q = params.q
    while True:
        idx = [rng.randrange(1, q - 1) for _ in range(k - 1)]
        last = (-sum(idx)) % (q - 1)
        if not 0 < last < q - 1:
            continue
        idx.append(last)
        try:
            check_contract_pre(tuple(idx), params)
        except ValueError:
            continue
        return tuple(idx)


def _selftest_jacobi(params):
    q = params.q
    cases = (
        ({"a": a}, jacobi_sum(a, q - 1 - a, "standard", params) == _complementary_value(a, params))
        for a in range(1, q - 1)
    )
    return _item(
        {"pairs": q - 2},
        {},
        "complementary pairs",
        [_tally("J(a, q-1-a) = (-1)^(a+1)", cases)],
    )


def _selftest_stickelberger(ns, params, full):
    q = params.q
    cap = None if q <= 49 else (2000 if full else 200)
    pairs = _scan_pairs(params, cap, random.Random(ns.seed + 1))
    cases = (
        (it["inputs"], all(c["pass"] for c in it["checks"])) for it in _scan(params, pairs, ns.jobs)
    )
    return _item(
        {
            "pairs": len(pairs),
            "exhaustive": cap is None or cap >= (q - 2) * (q - 3),
            "seed": ns.seed,
        },
        {},
        "digit-carry count and factorial unit",
        [_tally("valuation and lead", cases)],
    )


def _frobenius_equivariant(i, j, params):
    """Whether S+_(pi) S+_(pj) at u-(mu) equals S+_i S+_j at u-(mu^p) for
    every mu, indices mod q-1.  [lam]^p = [lam^p] and lam -> lam^p permutes
    F_q, so sum_lam [lam]^(pi) [mu-lam]^(pj) = sum_lam [lam^p]^i [mu^p-lam^p]^j:
    two kernel products, with mu^p read off exp and dlog and no Jacobi sum.
    In the polynomial basis mu -> mu^p mixes the field digits the kernel
    folds separately."""
    q, p = params.q, params.p
    T = tables_for(params)
    frob = [0] + [T.exp[T.dlog[mu] * p % (q - 1)] for mu in range(1, q)]
    lifted = u_convolve(
        s_operator(p * i % (q - 1), params), s_operator(p * j % (q - 1), params), params
    )
    want = u_convolve(s_operator(i, params), s_operator(j, params), params)
    return {(1, 0, frob[key[2]], 1): c for key, c in lifted.items()} == want


def _selftest_relations(ns, params, full):
    q = params.q
    rng = random.Random(ns.seed + 2)
    if q == 7:
        pairs = [(i, j) for i in range(1, q - 1) for j in range(1, q - 1)]
    else:
        n = 300 if full else 50
        pairs = [(rng.randrange(1, q - 1), rng.randrange(1, q - 1)) for _ in range(n)]
    # Frobenius fixes F_p, so at f = 1 both sides of its check are one product
    frobenius = [
        (rng.randrange(1, q - 1), rng.randrange(1, q - 1)) for _ in range(20 if params.f > 1 else 0)
    ]

    def relation(i, j):
        # the paper's S_i S+_j is w (S+_i S+_j), so the S+ form implies it
        prod = u_convolve(s_operator(i, params), s_operator(j, params), params)
        return prod == s_product_closed(i, j, params)

    relations = (({"i": i, "j": j}, relation(i, j)) for i, j in pairs)
    equivariant = (({"i": i, "j": j}, _frobenius_equivariant(i, j, params)) for i, j in frobenius)
    return _item(
        {"pairs": len(pairs), "frobenius_pairs": frobenius, "seed": ns.seed},
        {},
        "operator product relations",
        [
            _tally("products reduce to jacobi multiples", relations),
            _tally("Frobenius-equivariant S+ products", equivariant),
        ],
    )


def _selftest_contraction(ns, params, full):
    rng = random.Random(ns.seed + 3)
    n = 10 if full else 5
    tuples = [_random_admissible(rng, k, params) for k in (2, 3) for _ in range(n)]
    cases = (
        (
            {"indices": t},
            all(c["pass"] for c in _contract_checks(t, contract_splus(t, params), params)),
        )
        for t in tuples
    )
    return _item(
        {"tuples": len(tuples), "indices": tuples, "seed": ns.seed},
        {},
        "operator contraction",
        [_tally("decomposition identities", cases)],
    )


def _shift_identities(f):
    def f_fold(J, kind):
        for _ in range(f):
            J = delta(J, kind, f)
        return J

    for J in subsets_of(f):
        di = delta(J, IRREDUCIBLE, f)
        yield None, delta(complement(J, f), IRREDUCIBLE, f) == complement(di, f)
        yield None, len(J ^ di) % 2 == 1 and len(J ^ delta(J, REDUCIBLE, f)) % 2 == 0
        yield None, f_fold(J, IRREDUCIBLE) == complement(J, f)
        yield None, f_fold(J, REDUCIBLE) == J


def _selftest_combinatorics(params):
    return _item(
        {"subsets": 2 ** params.f},
        {},
        "subset shift maps",
        [_tally("shift identities", _shift_identities(params.f))],
    )


def _selftest_constants(params, full):
    items = []
    stepwise_ok = params.q <= 49 or full
    mode = "stepwise" if stepwise_ok else "closed"
    for kind in (IRREDUCIBLE, REDUCIBLE):
        kw = {"alpha_prime": 1} if kind == REDUCIBLE else {}
        rho = make_rho(kind, (2,) * params.f, 1, params, **kw)
        for cyc in cycles_of(rho):
            items.append(_constant_item(cyc, rho, mode, params))
    return items


def _cmd_selftest(ns, params):
    full = ns.level == "full"
    _, items = _cmd_field_info(ns, params)
    items.append(_selftest_jacobi(params))
    items.append(_selftest_stickelberger(ns, params, full))
    items.append(_selftest_relations(ns, params, full))
    items.append(_selftest_contraction(ns, params, full))
    items.append(_selftest_combinatorics(params))
    items.extend(_selftest_constants(params, full))
    return None, items


def run(ns):
    """The report of one parsed command line (a build_parser() namespace)."""
    t0 = time.monotonic()
    params = Params.make(ns.p, ns.f, N=ns.N)
    try:
        rho_json, items = ns.handler(ns, params)
    except ArithmeticError as e:
        rho_json = None
        items = [
            _item({}, {}, "aborted", [_check("internal invariant", "no error", str(e))])
        ]
    npass = sum(1 for it in items for c in it["checks"] if c["pass"])
    nfail = sum(1 for it in items for c in it["checks"] if not c["pass"])
    return Report(
        command=ns.command,
        params={"p": params.p, "f": params.f, "N": params.N},
        rho=rho_json,
        items=items,
        summary={"pass": npass, "fail": nfail},
        elapsed=time.monotonic() - t0,
    )


def _render_text(report):
    lines = ["command: %s" % report.command]
    lines.append(
        "params: p=%(p)d f=%(f)d N=%(N)d" % report.params
    )
    if report.rho is not None:
        lines.append("rho: %s" % json.dumps(report.rho, sort_keys=True))
    for it in report.items:
        lines.append("- inputs: %s" % json.dumps(it["inputs"], sort_keys=True))
        if it["outputs"]:
            lines.append("  outputs: %s" % json.dumps(it["outputs"], sort_keys=True))
        for c in it["checks"]:
            status = "pass" if c["pass"] else "FAIL"
            line = "  [%s] %s" % (status, c["name"])
            if not c["pass"]:
                line += " (expected %s, got %s)" % (
                    json.dumps(c["expected"], sort_keys=True),
                    json.dumps(c["got"], sort_keys=True),
                )
            lines.append(line)
    lines.append(
        "summary: %d passed, %d failed (%.2fs, N=%d)"
        % (report.summary["pass"], report.summary["fail"], report.elapsed, report.params["N"])
    )
    return "\n".join(lines) + "\n"


def _ints(parts):
    try:
        return tuple(int(x) for x in parts)
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma list of integers") from None


def _int_list(text):
    return _ints(x for x in text.split(",") if x.strip() != "")


def _at_least_1(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError("expected at least 1, got %d" % n)
    return n


def _alpha(text):
    vals = _int_list(text)
    return vals[0] if len(vals) == 1 else vals


def _cycle_start(text):
    """None for 'all' (every cycle), else the starting subset."""
    if text == "all":
        return None
    return frozenset() if text in ("empty", "") else frozenset(_ints(text.split(",")))


def _word(text):
    return tuple(x.strip() for x in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wittcycle",
        description="exact-arithmetic checks for weight cycling over GL2 of a finite field",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, required=True, help="prime, at least 7")
    common.add_argument("--f", type=int, required=True, help="residue degree")
    common.add_argument("--N", type=int, default=None, help="precision override")
    common.add_argument("--json", action="store_true", help="emit the JSON schema")
    common.add_argument("--out", default=None, help="write the report to FILE")
    common.add_argument("--jobs", type=_at_least_1, default=1, help="worker processes")

    sampled = argparse.ArgumentParser(add_help=False, parents=[common])
    sampled.add_argument("--seed", type=int, default=0, help="seed for sampled suites")

    rho = argparse.ArgumentParser(add_help=False, parents=[common])
    rho.add_argument(
        "--kind",
        required=True,
        choices=list(KIND_ALIASES),
    )
    rho.add_argument(
        "--r", type=_int_list, required=True, help="comma list (single value repeats)"
    )
    rho.add_argument("--alpha", type=_alpha, default="1", help="unit, int or comma digit list")
    rho.add_argument("--alpha-prime", type=_alpha, default=None, dest="alpha_prime")

    sp = sub.add_parser("field-info", parents=[common], help="field, modulus, generator lift")
    sp.set_defaults(handler=_cmd_field_info)

    sp = sub.add_parser("jacobi", parents=[common], help="one Jacobi sum with its digit checks")
    sp.set_defaults(handler=_cmd_jacobi)
    sp.add_argument("--a", type=int, required=True)
    sp.add_argument("--b", type=int, required=True)
    sp.add_argument("--convention", choices=["standard", "J0"], default="standard")

    sp = sub.add_parser(
        "stickelberger-scan", parents=[sampled], help="valuations and leads over all pairs"
    )
    sp.set_defaults(handler=_cmd_stickelberger_scan)
    sp.add_argument("--limit", type=_at_least_1, default=None, help="sample this many pairs")

    sp = sub.add_parser("contract", parents=[common], help="decompose an operator chain")
    sp.set_defaults(handler=_cmd_contract)
    sp.add_argument("--indices", type=_int_list, required=True, help="comma list of exponents")

    sp = sub.add_parser("weights", parents=[rho], help="weights, characters, component tables")
    sp.set_defaults(handler=_cmd_weights)

    sp = sub.add_parser("cycles", parents=[rho], help="delta orbits with step exponents")
    sp.set_defaults(handler=_cmd_cycles)

    sp = sub.add_parser("constant", parents=[rho], help="diagram constant by both routes")
    sp.set_defaults(handler=_cmd_constant)
    sp.add_argument(
        "--cycle-start",
        type=_cycle_start,
        default=None,
        dest="cycle_start",
        help="'empty' or comma list; default runs every cycle",
    )
    sp.add_argument("--mode", choices=["stepwise", "closed"], default="stepwise")

    sp = sub.add_parser("jh-intersect", parents=[rho], help="constituents cut out by a type")
    sp.set_defaults(handler=_cmd_jh_intersect)
    sp.add_argument("--w", type=_word, required=True, help="comma list of id/s")
    sp.add_argument("--w-prime", type=_word, required=True, dest="w_prime")

    sp = sub.add_parser("selftest", parents=[sampled], help="aggregate verification battery")
    sp.set_defaults(handler=_cmd_selftest)
    sp.add_argument("--level", choices=["quick", "full"], default="quick")

    return parser


def _unwritable(path):
    """Why an --out path cannot be written, as an OS error message, or None.

    Looks without opening, so a refused path is neither created nor
    truncated; an open that still fails is reported after the run.
    """
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return os.strerror(errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
    if not os.access(parent, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def main(argv=None):
    ns = build_parser().parse_args(argv)
    reason = ns.out and _unwritable(ns.out)
    if reason:
        # refused before the run, which may take minutes
        print("error: cannot write %s: %s" % (ns.out, reason), file=sys.stderr)
        return 2
    try:
        report = run(ns)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    text = canonical_json(report.to_json_obj()) if ns.json else _render_text(report)
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            print("error: cannot write %s: %s" % (ns.out, e.strerror), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0 if report.summary["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
