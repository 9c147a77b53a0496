import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from wittcycle import _tables, cli, group_algebra, padic
from wittcycle.cli import (
    _pool_size,
    _scan_pairs,
    _selftest_stickelberger,
    build_parser,
    canonical_json,
    main,
    run,
)
from wittcycle.group_algebra import s_operator, scale_vector, u_convolve
from wittcycle.padic import Params, witt_add, witt_from_int, witt_one
from wittcycle.principal_series import make_char
from wittcycle.weights import KIND_ALIASES, REDUCIBLE

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(*args):
    """A fresh interpreter run with the package's src first on the path."""
    path = [_SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def _json_report(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_jacobi_example(capsys):
    code, rep = _json_report(
        capsys, ["jacobi", "--p", "7", "--f", "1", "--a", "2", "--b", "4", "--json"]
    )
    assert code == 0
    assert rep["params"] == {"p": 7, "f": 1, "N": 5}
    item = rep["items"][0]
    # -1 mod 7^5
    assert item["outputs"]["value"] == [16806]
    assert item["outputs"]["valuation"] == 0
    assert all(c["pass"] for c in item["checks"])


def test_schema_and_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "stickelberger-scan", "--p", "7", "--f", "1",
            "--json", "--out", str(out),
        ]
    )
    assert code == 0
    raw = out.read_text()
    rep = json.loads(raw)
    assert set(rep) == {"command", "params", "rho", "items", "summary"}
    for item in rep["items"]:
        assert set(item) == {"inputs", "outputs", "provenance", "checks"}
        for c in item["checks"]:
            assert set(c) == {"name", "pass", "expected", "got"}
    assert canonical_json(rep) == raw
    assert rep["summary"]["fail"] == 0


def test_constant_example(capsys):
    code, rep = _json_report(
        capsys,
        [
            "constant", "--p", "7", "--f", "1", "--kind", "irr",
            "--r", "2", "--alpha", "1", "--cycle-start", "empty", "--json",
        ],
    )
    assert code == 0
    item = rep["items"][0]
    assert item["outputs"]["g_closed"] == [1]
    assert item["outputs"]["g_stepwise"] == [1]
    assert [c["name"] for c in item["checks"]] == [
        "valuation ledger cancels",
        "routes agree",
        "theorem form",
    ]
    assert all(c["pass"] for c in item["checks"])


def test_cycles_lists_excluded_orbits(capsys):
    code, rep = _json_report(
        capsys,
        [
            "cycles", "--p", "7", "--f", "2", "--kind", "red",
            "--r", "2", "--alpha", "1", "--alpha-prime", "1", "--json",
        ],
    )
    assert code == 0
    excluded = [it for it in rep["items"] if "excluded" in it["outputs"]]
    assert len(excluded) == 2
    cycles = [it for it in rep["items"] if "k" in it["outputs"]]
    assert [it["outputs"]["k"] for it in cycles] == [2]


def test_cycles_shift_check_reads_the_characters(monkeypatch, capsys):
    # the first character moved by alpha, the step exponents kept: the steps
    # into and out of it no longer match the character shift
    survey = cli.survey_orbits

    def moved_first(rho):
        cycles, excluded = survey(rho)
        cyc = cycles[0]
        chi = cyc.chars[0]
        moved = make_char(chi.m1 + 1, chi.m2 - 1, rho.params)
        return [dataclasses.replace(cyc, chars=(moved,) + cyc.chars[1:])], excluded

    monkeypatch.setattr(cli, "survey_orbits", moved_first)
    code, rep = _json_report(
        capsys, ["cycles", "--p", "7", "--f", "2", "--kind", "irr", "--r", "2", "--json"]
    )
    assert code == 1
    [check] = [
        c
        for c in rep["items"][0]["checks"]
        if c["name"] == "digit formula matches character shift"
    ]
    assert not check["pass"] and check["got"] == 2


def test_cycles_unrelated_characters_fail_the_shift_check(monkeypatch, capsys):
    # a first character that is no power of alpha away from its neighbours
    # fails the shift tally (exit 1); it is not a bad input (exit 2)
    survey = cli.survey_orbits

    def unrelated_first(rho):
        cycles, excluded = survey(rho)
        cyc = cycles[0]
        chi = cyc.chars[0]
        moved = make_char(chi.m1 + 1, chi.m2, rho.params)
        return [dataclasses.replace(cyc, chars=(moved,) + cyc.chars[1:])], excluded

    monkeypatch.setattr(cli, "survey_orbits", unrelated_first)
    code, rep = _json_report(
        capsys, ["cycles", "--p", "7", "--f", "2", "--kind", "irr", "--r", "2", "--json"]
    )
    assert code == 1
    [check] = [
        c
        for c in rep["items"][0]["checks"]
        if c["name"] == "digit formula matches character shift"
    ]
    assert not check["pass"] and check["got"] == 2


def test_route_error_is_a_failing_routes_agree_check(monkeypatch, capsys):
    # a disagreement raised by breuil_constant stays on its cycle's item,
    # with the cycle's outputs, instead of aborting the whole report
    def disagree(cyc, rho, mode, params):
        raise ArithmeticError("route disagreement for cycle %s" % (cyc.subsets,))

    monkeypatch.setattr(cli, "breuil_constant", disagree)
    code, rep = _json_report(
        capsys, ["constant", "--p", "7", "--f", "2", "--kind", "irr", "--r", "2", "--json"]
    )
    assert code == 1
    [item] = rep["items"]
    assert item["provenance"] == "two-route assembly"
    assert item["outputs"]["k"] == 4
    [check] = item["checks"]
    assert check["name"] == "routes agree" and not check["pass"]
    assert check["got"].startswith("route disagreement")


def test_contract_command(capsys):
    code, rep = _json_report(
        capsys, ["contract", "--p", "7", "--f", "1", "--indices", "4,2", "--json"]
    )
    assert code == 0
    assert rep["items"][0]["outputs"]["v_beta"] == 1
    assert len(rep["items"][0]["checks"]) == 4


@pytest.mark.parametrize(
    "field, name", [("v_alpha", "v_alpha = v_beta - f"), ("lead_alpha", "lead_alpha = -lead_beta")]
)
def test_contract_split_checks_catch_a_perturbed_alpha(monkeypatch, capsys, field, name):
    contract = cli.contract_splus

    def perturbed(indices, params):
        res = contract(indices, params)
        fq = res.params.residue
        if field == "v_alpha":
            return dataclasses.replace(res, v_alpha=res.v_alpha + 1)
        return dataclasses.replace(res, lead_alpha=witt_add(res.lead_alpha, witt_one(fq), fq))

    monkeypatch.setattr(cli, "contract_splus", perturbed)
    code, rep = _json_report(
        capsys, ["contract", "--p", "7", "--f", "1", "--indices", "4,2", "--json"]
    )
    assert code == 1
    assert [c["name"] for c in rep["items"][0]["checks"] if not c["pass"]] == [name]


@pytest.mark.parametrize("kind", list(KIND_ALIASES))
def test_weights_reports_the_normalized_kind(capsys, kind):
    argv = ["weights", "--p", "7", "--f", "1", "--kind", kind, "--r", "2", "--alpha", "1"]
    if KIND_ALIASES[kind] == REDUCIBLE:
        argv += ["--alpha-prime", "1"]
    code, rep = _json_report(capsys, argv + ["--json"])
    assert code == 0
    assert rep["rho"]["kind"] == KIND_ALIASES[kind]


def test_unknown_kind_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["weights", "--p", "7", "--f", "1", "--kind", "split", "--r", "2", "--alpha", "1"])
    assert exc.value.code == 2
    assert "--kind" in capsys.readouterr().err


def test_config_error_exit_2(capsys):
    # r = 3 breaks genericity at p = 7
    code = main(
        ["weights", "--p", "7", "--f", "1", "--kind", "irr", "--r", "3", "--alpha", "1"]
    )
    assert code == 2
    assert "genericity" in capsys.readouterr().err


def test_irreducible_accepts_alpha_prime_minus_one(capsys):
    # 6 = -1 in F_7, the one value the irreducible case allows
    argv = ["constant", "--p", "7", "--f", "1", "--kind", "irr", "--r", "2", "--alpha", "1"]
    assert main(argv + ["--json"]) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--alpha-prime", "6", "--json"]) == 0
    assert capsys.readouterr().out == plain


@pytest.mark.parametrize(
    "argv, err",
    [
        ("--f 1 --r 2 --alpha 1 --alpha-prime 1", "fixed to -1"),
        ("--f 2 --r 2,2 --alpha 7,0 --mode closed", "alpha must be a unit"),
        ("--f 2 --r 2,2 --alpha 1,2,3", "one digit per embedding"),
    ],
    ids=["alpha-prime-not-minus-one", "alpha-zero-mod-p", "alpha-too-long"],
)
def test_bad_unit_exit_2(capsys, argv, err):
    assert main(["constant", "--p", "7", "--kind", "irr"] + argv.split()) == 2
    assert err in capsys.readouterr().err


def test_oversized_field_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(padic, "MAX_Q", 100)
    assert main(["field-info", "--p", "11", "--f", "2"]) == 2
    assert "at most 100" in capsys.readouterr().err
    monkeypatch.undo()
    # q = 101 has no tables under this limit, but its combinatorics still run
    assert _tables.MAX_TABLE_Q >= 7**4
    monkeypatch.setattr(_tables, "MAX_TABLE_Q", 100)
    monkeypatch.setattr(cli, "_scan_pairs", None)  # refused before the pair list
    for argv in (["jacobi", "--a", "1", "--b", "2"], ["stickelberger-scan"]):
        assert main(argv + ["--p", "101", "--f", "1"]) == 2
        assert "largest field with tables" in capsys.readouterr().err
    rho = ["--kind", "irr", "--r", "2", "--alpha", "1"]
    assert main(["weights", "--p", "101", "--f", "1"] + rho) == 0


def test_cycle_start_outside_z_mod_f_exit_2(capsys):
    argv = ["constant", "--p", "7", "--f", "2", "--kind", "irr", "--r", "2"]
    assert main(argv + ["--cycle-start", "9"]) == 2
    assert "subset of {0..1}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["weights", "--kind", "irr", "--r", "2,x"], "--r"),
        (["contract", "--indices", "1,x"], "--indices"),
        (["constant", "--kind", "irr", "--r", "2", "--cycle-start", "a"], "--cycle-start"),
        (["stickelberger-scan", "--limit", "-1"], "--limit"),
        (["stickelberger-scan", "--limit", "0"], "--limit"),
        (["stickelberger-scan", "--limit", "x"], "--limit"),
        (["stickelberger-scan", "--jobs", "-2"], "--jobs"),
        (["constant", "--kind", "irr", "--r", "2", "--jobs", "0"], "--jobs"),
    ],
)
def test_malformed_list_exit_2_names_flag(argv, flag):
    # argparse rejects the value, so the message names the flag; counts
    # below 1 are rejected the same way
    argv = argv[:1] + ["--p", "7", "--f", "1"] + argv[1:]
    proc = _python("-m", "wittcycle.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "argument %s: " % flag in proc.stderr


def test_cycle_start_all_is_the_default(capsys):
    argv = ["constant", "--p", "7", "--f", "2", "--kind", "irr", "--r", "2", "--json"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--cycle-start", "all"]) == 0
    assert capsys.readouterr().out == default


def test_precision_bound_exit_2(capsys):
    assert padic.MAX_N == 256
    assert main(["field-info", "--p", "7", "--f", "1", "--N", "257"]) == 2
    assert "at most 256" in capsys.readouterr().err
    assert main(["field-info", "--p", "7", "--f", "1", "--N", "256"]) == 0


def test_inadmissible_type_exit_2(capsys):
    code = main(
        [
            "jh-intersect", "--p", "7", "--f", "1", "--kind", "irr",
            "--r", "2", "--alpha", "1", "--w", "s", "--w-prime", "id",
        ]
    )
    assert code == 2


def test_unknown_type_letter_exit_2(capsys):
    code = main(
        [
            "jh-intersect", "--p", "7", "--f", "2", "--kind", "irr",
            "--r", "2", "--alpha", "1", "--w", "x,s", "--w-prime", "s,s",
        ]
    )
    assert code == 2
    assert "'id' or 's'" in capsys.readouterr().err


def test_contract_escalates_from_N_1(capsys):
    code, rep = _json_report(
        capsys, ["contract", "--p", "7", "--f", "2", "--indices", "5,43", "--N", "1", "--json"]
    )
    assert code == 0
    assert rep["items"][0]["outputs"]["N_used"] > 1


def test_constant_escalates_from_N_1(capsys):
    code, rep = _json_report(
        capsys, ["constant", "--p", "7", "--f", "1", "--kind", "irr", "--r", "2", "--N", "1", "--json"]
    )
    assert code == 0
    assert rep["summary"]["fail"] == 0


def test_invariant_failure_exit_1(capsys):
    # at N = 1 a valuation-one Jacobi sum reduces to zero, so the digit
    # check honestly fails instead of being silently skipped
    code = main(
        ["jacobi", "--p", "7", "--f", "2", "--a", "1", "--b", "6", "--N", "1"]
    )
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def _not_json(name):
    raise ValueError("%s is not JSON" % name)


@pytest.mark.parametrize(
    "argv",
    [
        "stickelberger-scan --p 7 --f 2 --N 1",
        "selftest --p 7 --f 1 --N 1",
        "jacobi --p 7 --f 2 --a 1 --b 6 --N 1",
    ],
)
def test_unresolved_valuation_is_a_failing_check(capsys, argv):
    # at N = 1 some Jacobi sums are 0 mod p^N: their valuation is unresolved,
    # which fails a check instead of crashing, and serializes as null
    assert main(argv.split()) == 1
    out = capsys.readouterr()
    assert "[FAIL]" in out.out
    assert out.err == ""
    assert main(argv.split() + ["--json"]) == 1
    rep = json.loads(capsys.readouterr().out, parse_constant=_not_json)
    assert rep["summary"]["fail"] > 0


# sha256 of 17 --json reports, 15 quick and two at the full level, pinned so
# that a change meant to keep the output byte for byte is checked on every
# test run
_REPORT_DIGESTS = [
    ("selftest --p 7 --f 2 --level full --seed 3",
     "102e9fb37c7a2cd72f62b9f2cedd4756d8e37fa771e7c95937b2fd4934790623"),
    ("selftest --p 7 --f 1 --seed 3",
     "a4c01675c859a62c055e028899917c29459600e29029285ef240b9e9b04f992d"),
    ("selftest --p 7 --f 2 --seed 1",
     "2f9a1daf37d14f58bf3804eb45d1f83b3d4e7330812c5c0139a23035f0963804"),
    ("contract --p 7 --f 2 --indices 5,43 --N 1",
     "3bbdc631d841b0f435912b74df64707658eb873fd58db89deaf353172828733f"),
    ("constant --p 7 --f 2 --kind red --r 2 --alpha-prime 1",
     "a22ddbb888ec9efde831df123e96305bf819949fdbd3d2a9232ab369640bc013"),
    ("stickelberger-scan --p 7 --f 2",
     "f0a8fe10f4e782e986c45f92f3827d720aeb6e1d5af2e343e0db496dad2f449e"),
    # escalates the exchange constants from N = 1 to N = 5
    ("constant --p 7 --f 2 --kind irr --r 2 --N 1",
     "00575d2c9d5f56f12a500cc5c3892c2d26290ab02ba45e5b818540cf0afb9527"),
    ("constant --p 7 --f 3 --kind red --r 2 --alpha 3 --alpha-prime 5 --mode closed",
     "4efe45f569b6769d82768f7ad98e5ef91777386a58720be4f961872789e58c21"),
    # the default moduli and generators at f = 3 and 4
    ("field-info --p 7 --f 4",
     "8162fae8fcdde17e4f49b8addcdeaa24613910df2fca430a6c4678bbda35c3a2"),
    ("field-info --p 11 --f 3",
     "b008ccca4458ef57b4d8c38d5f7be37be5d84816b9116c0f971b038906c7f56a"),
    # the stepwise route at q = 343: the w-map and the proportionality check
    ("constant --p 7 --f 3 --kind irr --r 2 --alpha 1 --mode stepwise",
     "1600c4f0193f1311369886b981c50525cfe92801f479a04e99e0e4d1682697e0"),
    ("constant --p 7 --f 3 --kind red --r 2 --alpha 1 --alpha-prime 1 --mode stepwise",
     "09e5fe7b3a991eb38043f03e2df88d3a679b345f0db98228c8f7f0ac4a9998b9"),
    # the benchmark's selftest-full round at q = 121: 300 sampled relations
    ("selftest --p 11 --f 2 --level full --seed 1",
     "2960b676e3c78ace9025d673a46709636c7859fd4acc61f016b33d8c10244ad7"),
    # the verbs that report cycles, weights and one Jacobi sum; the cycles
    # report lists the two excluded orbits, the jh-intersect one a 4-subset
    # interval
    ("cycles --p 7 --f 4 --kind red --r 2 --alpha-prime 1",
     "0bd136d531c936058dbcfae489926ba08f23d04483319b41a395670c764a6e7c"),
    ("jh-intersect --p 7 --f 4 --kind irr --r 2 --w id,s,id,s --w-prime s,s,id,s",
     "f06fca4e56cb3d3a76eef7d016c51a2b2225ebb0fb1e58c0a292b79ccaec8cbb"),
    ("weights --p 7 --f 3 --kind red --r 2 --alpha-prime 1",
     "2dafb04587d32ecbcbfac61d4b5f70575a9f3d12ca831fb04a354b389c55d39f"),
    ("jacobi --p 7 --f 2 --a 5 --b 11",
     "332edd5db2a1270f0c24297a5bf18d242bd3f8e7a3307ce9ca5cdb9a6f869148"),
]


@pytest.mark.parametrize("argv, digest", _REPORT_DIGESTS, ids=[a for a, _ in _REPORT_DIGESTS])
def test_report_digest_is_pinned(capsys, argv, digest):
    assert main(argv.split() + ["--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_selftest_reproducible(capsys):
    argv = ["selftest", "--p", "7", "--f", "1", "--seed", "9", "--json"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["summary"]["fail"] == 0


def test_jobs_do_not_change_output(capsys):
    base = ["stickelberger-scan", "--p", "7", "--f", "1", "--json"]
    main(base)
    serial = capsys.readouterr().out
    main(base + ["--jobs", "2"])
    parallel = capsys.readouterr().out
    assert serial == parallel


def test_import_leaves_the_process_pool_unloaded():
    # only a scan split over workers imports concurrent.futures
    proc = _python("-c", "import sys, wittcycle.cli; print('concurrent.futures' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# every verb, with the flags it requires beyond --p and --f
_VERB_ARGS = {
    "field-info": "",
    "jacobi": "--a 1 --b 2",
    "stickelberger-scan": "",
    "contract": "--indices 1,5",
    "weights": "--kind irr --r 2",
    "cycles": "--kind irr --r 2",
    "constant": "--kind irr --r 2",
    "jh-intersect": "--kind irr --r 2 --w id --w-prime s",
    "selftest": "",
}


def test_every_verb_dispatches_to_its_handler():
    parser = build_parser()
    assert "{" + ",".join(_VERB_ARGS) + "}" in parser.format_usage()
    for verb, extra in _VERB_ARGS.items():
        ns = parser.parse_args([verb, "--p", "7", "--f", "1"] + extra.split())
        assert ns.handler is getattr(cli, "_cmd_" + verb.replace("-", "_"))


def test_seed_parses_only_where_something_is_sampled(capsys):
    parser = build_parser()
    for verb, extra in _VERB_ARGS.items():
        argv = [verb, "--p", "7", "--f", "1", "--seed", "1"] + extra.split()
        if verb in ("stickelberger-scan", "selftest"):
            assert parser.parse_args(argv).seed == 1
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_run_api_direct():
    report = run(build_parser().parse_args(["field-info", "--p", "7", "--f", "2"]))
    assert report.summary["fail"] == 0
    assert report.params["N"] == 8
    obj = report.to_json_obj()
    assert "elapsed" not in obj


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["frobnicate", "--p", "7", "--f", "1"])
    assert exc.value.code == 2


def test_single_r_value_repeats(capsys):
    code, rep = _json_report(
        capsys,
        [
            "weights", "--p", "7", "--f", "2", "--kind", "irr",
            "--r", "2", "--alpha", "1", "--json",
        ],
    )
    assert code == 0
    assert rep["rho"]["r"] == [2, 2]


def _scan_pairs_by_list(params, limit, seed):
    # the list-based sampler the position decoder replaced, kept as a reference
    q = params.q
    pairs = [
        (a, b)
        for a in range(1, q - 1)
        for b in range(1, q - 1)
        if a + b != q - 1 and (a + b) % (q - 1)
    ]
    if limit is not None and limit < len(pairs):
        pairs = sorted(random.Random(seed).sample(pairs, limit))
    return pairs


@pytest.mark.parametrize("p, f", [(7, 1), (7, 2), (11, 2), (13, 2)])
def test_scan_pairs_sample_equals_list_sample(p, f):
    params = Params.make(p, f)
    n = (params.q - 2) * (params.q - 3)
    for seed in (0, 1, 7, 12345):
        for limit in (None, 0, 1, 10, n // 2, n - 1, n, n + 5):
            got = _scan_pairs(params, limit, random.Random(seed))
            assert got == _scan_pairs_by_list(params, limit, seed), (seed, limit)


@pytest.mark.parametrize("p, f, exhaustive", [(7, 2, True), (11, 2, False)])
def test_selftest_stickelberger_exhaustive_flag(p, f, exhaustive):
    # q = 121 quick samples 200 of its 119 * 118 pairs; q = 49 scans all
    ns = build_parser().parse_args(["selftest", "--p", str(p), "--f", str(f), "--seed", "1"])
    item = _selftest_stickelberger(ns, Params.make(p, f), full=False)
    assert item["inputs"]["exhaustive"] is exhaustive
    assert item["inputs"]["pairs"] == (200 if p == 11 else 47 * 46)


def test_pool_size_is_clamped(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _pool_size(1, 10) == 1
    assert _pool_size(3, 10) == 3
    assert _pool_size(10**9, 10) == 4
    assert _pool_size(8, 2) == 2
    assert _pool_size(0, 5) == 1
    assert _pool_size(-3, 5) == 1
    assert _pool_size(4, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _pool_size(8, 8) == 1


def _relation_checks(p, f):
    ns = build_parser().parse_args(["selftest", "--p", str(p), "--f", str(f), "--seed", "1"])
    item = cli._selftest_relations(ns, Params.make(p, f), full=False)
    return item["inputs"]["pairs"], {c["name"]: c for c in item["checks"]}


def test_relation_check_catches_a_wrong_s_boundary_form(monkeypatch):
    closed = cli.s_product_closed

    def without_q_id(i, j, params):
        # the S+ form at i + j = 0 mod q-1 with its q id term dropped
        if (i + j) % (params.q - 1) == 0:
            sign0 = witt_from_int(-1 if i % 2 == 0 else 1, params)
            return scale_vector(s_operator(0, params), sign0, params)
        return closed(i, j, params)

    monkeypatch.setattr(cli, "s_product_closed", without_q_id)
    _, checks = _relation_checks(7, 1)
    assert checks["products reduce to jacobi multiples"]["got"] == {
        "failures": 5,
        "first": {"i": 1, "j": 5},
    }
    assert checks["s-plus family commutes"]["pass"]


def test_relation_check_catches_a_perturbed_kernel_coefficient(monkeypatch):
    params = Params.make(7, 1)
    prod = u_convolve(s_operator(2, params), s_operator(3, params), params)
    key = min(prod)
    bad = dict(prod)
    bad[key] = witt_add(prod[key], witt_one(params), params)
    assert prod == cli.s_product_closed(2, 3, params) != bad

    kernel = cli.u_convolve

    def perturbed(x, y, params):
        out = kernel(x, y, params)
        k = min(out)
        out[k] = witt_add(out[k], witt_one(params), params)
        return out

    monkeypatch.setattr(cli, "u_convolve", perturbed)
    pairs, checks = _relation_checks(7, 1)
    assert checks["products reduce to jacobi multiples"]["got"]["failures"] == pairs


def test_relation_check_multiplies_each_pair_once(monkeypatch):
    calls = []
    kernel = cli.u_convolve

    def counted(x, y, params):
        calls.append(None)
        return kernel(x, y, params)

    monkeypatch.setattr(cli, "u_convolve", counted)
    pairs, checks = _relation_checks(7, 2)
    # one kernel product per sampled pair, plus the 20 commute products
    assert pairs == 50
    assert len(calls) == pairs + 20
    assert all(c["pass"] for c in checks.values())


def _selftest_samples(monkeypatch, seed):
    """The (i, j) of every S+_i S+_j the relation check multiplies, and
    every tuple the contraction check contracts, at q = 49 under seed."""
    params = Params.make(7, 2)
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    # S+_i is [g]^i at u-(g), g the generator
    index = {teich[T.exp[i]]: i for i in range(params.q - 1)}
    at_g = (1, 0, T.generator, 1)
    products, tuples = [], []

    def product(x, y, params):
        products.append((index[x[at_g]], index[y[at_g]]))
        return group_algebra.u_convolve(x, y, params)

    def contraction(indices, params):
        tuples.append(tuple(indices))
        return group_algebra.contract_splus(indices, params)

    monkeypatch.setattr(cli, "u_convolve", product)
    monkeypatch.setattr(cli, "contract_splus", contraction)
    ns = build_parser().parse_args(["selftest", "--p", "7", "--f", "2", "--seed", str(seed)])
    cli._selftest_relations(ns, params, full=False)
    cli._selftest_contraction(ns, params, full=False)
    return products, tuples


def test_selftest_samples_follow_the_seed(monkeypatch):
    # the report records only pass tallies, so a sampler that ignored
    # --seed would change no digest; the sampled inputs show it
    products, tuples = _selftest_samples(monkeypatch, 1)
    assert len(products) == 50 + 20 and len(tuples) == 10
    assert _selftest_samples(monkeypatch, 1) == (products, tuples)
    other_products, other_tuples = _selftest_samples(monkeypatch, 2)
    assert other_products != products
    assert other_tuples != tuples


def test_selftest_catches_a_column_fold_without_the_constant_term(monkeypatch, capsys):
    # the fold of every column product and of u_convolve, with mod[0] skipped
    fold = padic.witt_fold_columns

    def mutant(cols, params):
        return fold(cols, dataclasses.replace(params, modulus=(0,) + params.modulus[1:]))

    monkeypatch.setattr(padic, "witt_fold_columns", mutant)
    monkeypatch.setattr(group_algebra, "witt_fold_columns", mutant)
    assert main(["selftest", "--p", "7", "--f", "2", "--seed", "1", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    failed = [c["name"] for item in rep["items"] for c in item["checks"] if not c["pass"]]
    assert "internal invariant" in failed
