"""Acceptance battery: eleven numbered checks, one pass/fail line each.

Run with

    pytest tests/test_acceptance.py -v -s

Each check times itself against a fixed wall-clock budget and prints a
single line.  The numeric pieces of the two-route constant that do not
read alpha (the contraction and the per-step constants) are computed once
per field, kind, r and cycle into a module memo shared by checks 8
through 11, and handed to breuil_constant in place of its own calls.
"""

import itertools
import random
import time
from contextlib import contextmanager
from unittest import mock

import pytest

from wittcycle import constants
from wittcycle._tables import tables_for
from wittcycle.cli import (
    _contract_checks,
    _random_admissible,
    _scan,
    _scan_pairs,
    _selftest_jacobi,
    _shift_identities,
)
from wittcycle.constants import (
    beta_by_bruteforce,
    breuil_constant,
    ctilde_closed,
    ctilde_product,
    step_lead_formula,
    theorem_form,
)
from wittcycle.group_algebra import (
    GL2_ID,
    GL2_W,
    check_contract_pre,
    contract_splus,
    ga_multiply,
    s_operator,
    s_product_closed,
    scale_vector,
)
from wittcycle.jacobi import jacobi_sum
from wittcycle.padic import (
    Params,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
)
from wittcycle.principal_series import (
    ExchangeError,
    PSModule,
    exchange_coefficient,
    exchange_constant,
    h_component_characters,
    h_components,
    make_char,
    ps_act,
)
from wittcycle.weights import (
    IRREDUCIBLE,
    REDUCIBLE,
    char_of_subset,
    cycle_from,
    cycles_of,
    delta,
    digits_value,
    e_eval,
    formal_weight_of,
    fw_apply,
    iplus_of_step,
    make_rho,
    subsets_of,
)

from test_group_algebra import ga_act_matrix, s_by_oracle
from test_padic import witt_inv
from test_weights import negative_set, transition_weight


@contextmanager
def criterion(num, name, budget):
    t0 = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.monotonic() - t0
        status = "PASS" if ok and dt < budget else "FAIL"
        print(
            "criterion %02d %s: %s (%.1fs, budget %ds)" % (num, name, status, dt, budget)
        )
    assert dt < budget, "criterion %02d exceeded its %ds budget" % (num, budget)


def _r_for(p, f):
    return (2,) * f if p == 7 else tuple(2 + (j % 3) for j in range(f))


def _rho_for(kind, params, alpha=1, alpha_prime=None):
    r = _r_for(params.p, params.f)
    if kind == REDUCIBLE:
        ap = 1 if alpha_prime is None else alpha_prime
        return make_rho(kind, r, alpha, params, alpha_prime=ap)
    return make_rho(kind, r, alpha, params)


# contractions and step constants, shared by checks 8 through 11 and keyed
# on everything they read: neither reads alpha
_MEMO = {}


def _numeric_pieces(cycle, rho, params):
    key = (params, rho.kind, rho.r, cycle.subsets)
    if key not in _MEMO:
        _MEMO[key] = (beta_by_bruteforce(cycle, params), ctilde_product(cycle, rho, params))
    return _MEMO[key]


def _stepwise(cycle, rho, params):
    beta, ct = _numeric_pieces(cycle, rho, params)
    with mock.patch.object(constants, "beta_by_bruteforce", lambda *_: beta):
        with mock.patch.object(constants, "ctilde_product", lambda *_: ct):
            return breuil_constant(cycle, rho, "stepwise", params)


def _passes(checks):
    return all(c["pass"] for c in checks)


def test_criterion_01_stickelberger_digit_data():
    with criterion(1, "stickelberger digit data", 60):
        for f in (1, 2):
            params = Params.make(7, f)
            for item in _scan(params, _scan_pairs(params, None, None), 1):
                assert _passes(item["checks"]), item


def test_criterion_02_complementary_pairs():
    with criterion(2, "complementary pairs", 10):
        for f in (1, 2):
            params = Params.make(7, f)
            assert params.N >= 3
            item = _selftest_jacobi(params)
            assert _passes(item["checks"]), item


def _relation_holds(i, j, variant, params):
    """S+_i S+_j (variant "S_plus") or S_i S+_j ("S") against its closed form,
    both sides by the generic GL2 product, not the kernel.  The paper's
    S_i is w S+_i, so the closed form of S_i S+_j is w times that of
    S+_i S+_j: J(i, j) S_{i+j}, or (-1)^(i+1) S_0 + (-1)^i q w."""
    left, closed = s_operator(i, params), s_product_closed(i, j, params)
    if variant == "S":
        left, closed = (ga_act_matrix(GL2_W, z, params) for z in (left, closed))
    return ga_multiply(left, s_operator(j, params), params) == closed


def test_criterion_03_operator_relations():
    with criterion(3, "operator product relations", 60):
        p71 = Params.make(7, 1)
        ops = [s_operator(i, p71) for i in range(1, 6)]
        for i in range(1, 6):
            for j in range(1, 6):
                for variant in ("S_plus", "S"):
                    assert _relation_holds(i, j, variant, p71), (i, j, variant)
                lhs = ga_multiply(ops[i - 1], ops[j - 1], p71)
                assert lhs == ga_multiply(ops[j - 1], ops[i - 1], p71), (i, j)
        p72 = Params.make(7, 2)
        rng = random.Random(30301)
        for n in range(200):
            i, j = rng.randrange(1, 48), rng.randrange(1, 48)
            variant = "S_plus" if n % 2 == 0 else "S"
            assert _relation_holds(i, j, variant, p72), (i, j, variant)


def test_criterion_04_contraction():
    with criterion(4, "operator contraction", 180):
        p71 = Params.make(7, 1)
        count = 0
        for k in (2, 3, 4):
            for head in itertools.product(range(1, 6), repeat=k - 1):
                last = (-sum(head)) % 6
                indices = head + (last,)
                try:
                    check_contract_pre(indices, p71)
                except ValueError:
                    continue
                res = contract_splus(indices, p71)
                assert _passes(_contract_checks(indices, res, p71)), indices
                count += 1
        assert count > 50
        p72 = Params.make(7, 2)
        rng = random.Random(40127)
        for n in range(100):
            k = 2 + n % 3
            indices = _random_admissible(rng, k, p72)
            res = contract_splus(indices, p72)
            assert _passes(_contract_checks(indices, res, p72)), indices


def _composition_identity(params, charlist, npairs, rng):
    q = params.q
    for m1, m2 in charlist:
        chi = make_char(m1, m2, params)
        module = PSModule(chi, params)
        phi = {GL2_ID: witt_one(params)}
        s0phi = ps_act(module, s_by_oracle(0, params), phi)
        for v, rprime, eta_exp in [
            (phi, (chi.m1 - chi.m2) % (q - 1), chi.m2),
            (s0phi, (chi.m2 - chi.m1) % (q - 1), chi.m1),
        ]:
            pairs = [
                (i, j)
                for i in range(1, q - 1)
                for j in range(q - 1)
                if (i - j - rprime) % (q - 1) and (i - j) % (q - 1)
            ]
            if npairs is not None:
                pairs = rng.sample(pairs, npairs)
            for i, j in pairs:
                lhs = ps_act(
                    module,
                    s_by_oracle(i, params),
                    ps_act(module, s_by_oracle(j, params), v),
                )
                jac = jacobi_sum(i, (-j - rprime) % (q - 1), "J0", params)
                if eta_exp % 2:
                    jac = witt_neg(jac, params)
                red = (i - j - rprime) % (q - 1)
                rhs = scale_vector(
                    ps_act(module, s_by_oracle(red, params), v), jac, params
                )
                assert lhs == rhs, (params.p, params.f, (m1, m2), i, j)


def test_criterion_05_principal_series_layer():
    with criterion(5, "principal series layer", 180):
        rng = random.Random(50021)
        for p, f in [(7, 1), (7, 2), (11, 1), (11, 2)]:
            params = Params.make(p, f)
            q = params.q
            seen = set()
            for kind in (IRREDUCIBLE, REDUCIBLE):
                rho = _rho_for(kind, params)
                for cyc in cycles_of(rho):
                    for t in range(cyc.k):
                        chi = cyc.chars[t]
                        if (chi.m1, chi.m2) not in seen:
                            seen.add((chi.m1, chi.m2))
                            module = PSModule(chi, params)
                            mults = sorted(h_component_characters(module).values())
                            assert mults == [1] * (q - 3) + [2, 2]
                            comps = h_components(module)
                            s0p = s_operator(0, params)
                            singles = [vs[0] for vs in comps.values() if len(vs) == 1]
                            if q > 7:
                                singles = rng.sample(singles, min(10, len(singles)))
                            for vec in singles:
                                assert ps_act(module, s0p, vec) == {}
                            # the composition identity on this module's
                            # translates (exhaustive pairs at q = 7)
                            _composition_identity(
                                params,
                                [(chi.m1, chi.m2)],
                                None if q == 7 else 4,
                                rng,
                            )
                        i_psi = q - 1 - cyc.iplus[t]
                        b = q - 1 - chi.a_exponent()
                        if cyc.degenerate[t]:
                            with pytest.raises(ExchangeError):
                                exchange_constant(chi, i_psi, params)
                            c, used = exchange_coefficient(chi, i_psi, params)
                        else:
                            c, i_plus, used = exchange_constant(chi, i_psi, params)
                            assert i_plus == cyc.iplus[t]
                        assert c == jacobi_sum(i_psi, b, "standard", used)


def test_criterion_06_weight_combinatorics():
    with criterion(6, "weight combinatorics", 30):
        for f in range(1, 9):
            assert all(ok for _, ok in _shift_identities(f)), f
        # local tables at every pattern, exact index identity for the
        # transition family, and the shift-composition law
        for p in (7, 11):
            for f in (1, 2, 3, 4):
                params = Params.make(p, f)
                inner = {
                    (1, 1): (-1, 2 * p - 3),
                    (1, 0): (1, 1),
                    (0, 1): (-1, 2 * p - 2),
                    (0, 0): (1, 0),
                }
                seam = {
                    (1, 1): (-1, 2 * p - 1),
                    (1, 0): (1, -1),
                    (0, 1): (-1, 2 * p - 2),
                    (0, 0): (1, 0),
                }
                family = {
                    (1, 1): (-1, p - 1),
                    (1, 0): (1, -1),
                    (0, 1): (-1, p - 2),
                    (0, 0): (1, 0),
                }
                for kind in (IRREDUCIBLE, REDUCIBLE):
                    rho = _rho_for(kind, params)
                    for J in subsets_of(f):
                        lam = formal_weight_of(J, rho)
                        for j in range(f):
                            pat = (1 if (j - 1) % f in J else 0, 1 if j in J else 0)
                            table = (
                                seam if kind == IRREDUCIBLE and j == 0 else inner
                            )
                            want = table[pat]
                            want = (want[0], want[1] - p) if want[0] < 0 else want
                            assert lam[j] == want, (kind, J, j)
                        dJ = delta(J, kind, f)
                        sym = J ^ dJ
                        mu = transition_weight(J, rho)
                        for j in range(f):
                            pat = (
                                1 if (j - 1) % f in sym else 0,
                                1 if j in sym else 0,
                            )
                            assert mu[j] == family[pat], (kind, J, j)
                        assert negative_set(mu) == sym
                        lam_r = tuple(
                            fw_apply(lam, j, rho.r[j]) for j in range(f)
                        )
                        e_mu = e_eval(mu, lam_r, params)
                        assert e_mu == sum(
                            p**j * (p - 1 - fw_apply(mu, j, lam_r[j])) for j in sym
                        ), (kind, J)
                        e_lam = e_eval(lam, rho.r, params)
                        e_next = e_eval(formal_weight_of(dJ, rho), rho.r, params)
                        assert (e_next - e_mu - e_lam) % (params.q - 1) == 0


def test_criterion_07_step_exponent_digits():
    with criterion(7, "step exponent digits", 60):
        for p in (7, 11):
            for f in (1, 2, 3):
                params = Params.make(p, f)
                for kind in (IRREDUCIBLE, REDUCIBLE):
                    rho = _rho_for(kind, params)
                    for cyc in cycles_of(rho):
                        for t in range(cyc.k):
                            digits = iplus_of_step(cyc.subsets[t], rho)
                            val = digits_value(digits, p)
                            nxt = char_of_subset(cyc.subsets[(t + 1) % cyc.k], rho)
                            assert val == cyc.iplus[t]
                            assert cyc.chars[t].times_alpha(val) == nxt
                            assert 0 < val < params.q - 1
                            assert all(0 <= d <= p - 1 for d in digits)


# coverage shared by checks 8 and 9
_STEP_COVER = [(7, 1), (7, 2), (7, 3), (11, 1), (11, 2)]


def test_criterion_08_per_step_constants():
    with criterion(8, "per-step constants", 300):
        for p, f in _STEP_COVER:
            params = Params.make(p, f)
            for kind in (IRREDUCIBLE, REDUCIBLE):
                rho = _rho_for(kind, params)
                for cyc in cycles_of(rho):
                    _stepwise(cyc, rho, params)
                    _, (ct_lead, steps) = _numeric_pieces(cyc, rho, params)
                    D = cyc.sym_diff_size
                    for t, st in enumerate(steps):
                        assert st.valuation == f - D
                        assert st.lead == witt_from_int(
                            step_lead_formula(cyc.subsets[t], rho), params.residue
                        )
                    assert ct_lead == witt_from_int(ctilde_closed(cyc), params.residue)
                    want = 1 if kind == IRREDUCIBLE else (-1) ** cyc.k
                    assert ct_lead == witt_from_int(want, params.residue)


def test_criterion_09_contraction_term():
    with criterion(9, "full-cycle contraction term", 300):
        for p, f in _STEP_COVER:
            params = Params.make(p, f)
            for kind in (IRREDUCIBLE, REDUCIBLE):
                rho = _rho_for(kind, params)
                for cyc in cycles_of(rho):
                    rep = _stepwise(cyc, rho, params)
                    beta, _ = _numeric_pieces(cyc, rho, params)
                    k, D = cyc.k, cyc.sym_diff_size
                    assert beta.v_beta == k * D // 2
                    assert beta.lead_alpha == witt_neg(beta.lead_beta, beta.params.residue)
                    eps = rep.pieces["epsilon_sign"]
                    assert eps in (1, -1)
                    sign = eps * (-1) ** (k * D // 2)
                    if kind == REDUCIBLE:
                        sign *= (-1) ** k
                    assert beta.lead_beta == witt_from_int(sign, params.residue)


def test_criterion_10_end_to_end():
    with criterion(10, "two-route constants", 600):
        for p, f in _STEP_COVER + [(11, 3)]:
            params = Params.make(p, f)
            tab = tables_for(params)
            rng = random.Random(100003 + p * 10 + f)
            units = [1] + [tab.elems[rng.randrange(1, params.q)] for _ in range(3)]
            for kind in (IRREDUCIBLE, REDUCIBLE):
                for alpha in units:
                    ap = None
                    if kind == REDUCIBLE:
                        fq = params.residue
                        a_fq = witt_from_int(alpha, fq) if isinstance(alpha, int) else alpha
                        ap = witt_inv(a_fq, fq)
                    rho = _rho_for(kind, params, alpha=alpha, alpha_prime=ap)
                    for cyc in cycles_of(rho):
                        rep = _stepwise(cyc, rho, params)
                        assert rep.g_stepwise == rep.g_closed
                        assert sum(v for _, v in rep.valuation_ledger) == 0
                        # both halves of the p-power sign cancel
                        eps = witt_from_int(rep.pieces["epsilon_sign"], params.residue)
                        assert rep.g_closed == witt_mul(
                            eps, rep.pieces["alpha_factor"], params.residue
                        )
                        assert theorem_form(rep, rho, params) in (None, rep.g_closed)
                        for t in range(1, cyc.k):
                            rot = cycle_from(rho, cyc.subsets[t])
                            closed = breuil_constant(rot, rho, "closed", params)
                            assert closed.g_closed == rep.g_closed
                        if params.q <= 343:
                            rot = cycle_from(rho, cyc.subsets[1])
                            rrep = _stepwise(rot, rho, params)
                            assert rrep.g_stepwise == rep.g_stepwise


def test_criterion_11_known_value():
    with criterion(11, "known value at the base point", 60):
        params = Params.make(7, 1)
        rho = make_rho("irr", (2,), 1, params)
        cycles = cycles_of(rho)
        assert len(cycles) == 1
        rep = _stepwise(cycles[0], rho, params)
        assert rep.g_stepwise == (1,)
        assert rep.g_closed == (1,)
        assert theorem_form(rep, rho, params) == (1,)
