import dataclasses
import sys

import pytest

from wittcycle import _tables, constants, principal_series
from wittcycle.cli import main
from wittcycle.group_algebra import contraction_lead
from wittcycle.padic import Params, witt_add, witt_from_int, witt_mul, witt_one
from wittcycle.constants import (
    UpMonomial,
    beta_by_bruteforce,
    breuil_constant,
    ctilde_closed,
    ctilde_product,
    step_lead_formula,
    theorem_form,
    up_product,
)
from wittcycle.weights import (
    CycleData,
    IRREDUCIBLE,
    REDUCIBLE,
    cycle_from,
    cycles_of,
    make_rho,
)

P7 = Params.make(7, 1)
P7F2 = Params.make(7, 2)
P7F3 = Params.make(7, 3)
P11 = Params.make(11, 1)

RHO_IRR_F1 = make_rho("irr", (2,), 1, P7)
RHO_IRR_F2 = make_rho("irr", (2, 2), 1, P7F2)
RHO_RED_F2 = make_rho("red", (2, 2), 1, P7F2, alpha_prime=1)


def _only_cycle(rho):
    cycles = cycles_of(rho)
    assert len(cycles) == 1
    return cycles[0]


def _fake_cycle(k, sym_diff_size, kind, size0=0):
    # only the fields up_product reads need to be meaningful
    return CycleData(
        subsets=(frozenset(range(size0)),) * k,
        k=k,
        chars=(None,) * k,
        iplus=(1,) * k,
        sym_diff_size=sym_diff_size,
        degenerate=(False,) * k,
        kind=kind,
    )


def test_up_product_frozen():
    cyc = _only_cycle(RHO_IRR_F1)
    up = up_product(cyc, RHO_IRR_F1)
    # k = 2, D = 1: (-p)^1 * [-alpha]^1
    assert up == UpMonomial(sign=1, p_power=1, alpha_exp=1, alpha_prime_exp=0)

    cyc2 = _only_cycle(RHO_RED_F2)
    up2 = up_product(cyc2, RHO_RED_F2)
    # k = 2, D = 2, |J0| = 1: (-p)^2 * [alpha][alpha']
    assert up2 == UpMonomial(sign=1, p_power=2, alpha_exp=1, alpha_prime_exp=1)


def test_up_product_rejects_malformed_cycles():
    with pytest.raises(ArithmeticError):
        up_product(_fake_cycle(1, 1, IRREDUCIBLE), RHO_IRR_F1)  # odd k*D
    with pytest.raises(ArithmeticError):
        up_product(_fake_cycle(3, 2, IRREDUCIBLE), RHO_IRR_F1)  # odd k
    with pytest.raises(ArithmeticError):
        # k|J0|/f not an integer at f = 2
        up_product(_fake_cycle(1, 2, REDUCIBLE, size0=1), RHO_RED_F2)


def gauge_factor(J1, J2, f):
    """Per-position gauge symbols for a pair of subsets."""
    out = []
    for j in range(f):
        pos = f - 1 - j
        if pos in J1 and pos not in J2:
            out.append("X_%d" % j)
        elif pos in J2 and pos not in J1:
            out.append("Y_%d" % j)
        else:
            out.append("1")
    return tuple(out)


def test_gauge_factor_frozen():
    assert gauge_factor({0}, set(), 1) == ("X_0",)
    assert gauge_factor(set(), {0}, 1) == ("Y_0",)
    assert gauge_factor({1}, {0}, 2) == ("X_0", "Y_1")
    assert gauge_factor({0}, {0}, 2) == ("1", "1")


def test_step_lead_formula_frozen_f1():
    assert step_lead_formula(frozenset(), RHO_IRR_F1) == 6
    assert step_lead_formula(frozenset({0}), RHO_IRR_F1) == 6


def test_known_value_chain():
    # the worked two-step cycle: both constants are -1, beta has
    # valuation 1 with unit lead, and everything assembles to g = 1
    cyc = _only_cycle(RHO_IRR_F1)
    rep = breuil_constant(cyc, RHO_IRR_F1, "stepwise", P7)
    assert rep.g_stepwise == rep.g_closed == (1,)
    assert rep.pieces["epsilon_sign"] == -1
    assert rep.pieces["beta_valuation"] == 1
    assert rep.pieces["beta_lead"] == (1,)
    assert rep.pieces["up_sign"] == 1
    assert sum(v for _, v in rep.valuation_ledger) == 0
    assert theorem_form(rep, RHO_IRR_F1, P7) == (1,)

    total, steps = ctilde_product(cyc, RHO_IRR_F1, P7)
    assert total == (1,)
    assert [(s.i_psi, s.jacobi_b) for s in steps] == [(2, 4), (4, 2)]
    assert all(s.valuation == 0 for s in steps)
    assert all(s.lead == (6,) for s in steps)
    assert all(s.degenerate for s in steps)


def test_closed_mode_has_no_numeric_route():
    cyc = _only_cycle(RHO_IRR_F1)
    rep = breuil_constant(cyc, RHO_IRR_F1, "closed", P7)
    assert rep.g_stepwise is None
    assert rep.g_closed == (1,)
    ledger = dict(rep.valuation_ledger)
    assert ledger["beta_valuation"] == 1
    assert ledger["up_p_power"] == -1
    assert ledger["step_0_valuation"] == 0
    assert sum(v for _, v in rep.valuation_ledger) == 0


def test_mode_equality_f2():
    cyc = _only_cycle(RHO_IRR_F2)
    assert cyc.k == 4
    rep = breuil_constant(cyc, RHO_IRR_F2, "stepwise", P7F2)
    assert rep.g_stepwise == rep.g_closed == (6, 0)
    assert rep.pieces["epsilon_sign"] == -1
    # k/2 = 2 even, so the theorem form is epsilon itself
    assert theorem_form(rep, RHO_IRR_F2, P7F2) == (6, 0)

    cyc2 = _only_cycle(RHO_RED_F2)
    rep2 = breuil_constant(cyc2, RHO_RED_F2, "stepwise", P7F2)
    assert rep2.g_stepwise == rep2.g_closed == (1, 0)
    assert rep2.pieces["epsilon_sign"] == 1
    assert theorem_form(rep2, RHO_RED_F2, P7F2) == (1, 0)


def test_ctilde_closed_signs():
    assert ctilde_closed(_fake_cycle(2, 1, IRREDUCIBLE)) == 1
    assert ctilde_closed(_fake_cycle(6, 1, IRREDUCIBLE)) == 1
    assert ctilde_closed(_fake_cycle(2, 2, REDUCIBLE)) == 1
    assert ctilde_closed(_fake_cycle(3, 2, REDUCIBLE)) == -1


def test_alpha_scaling_irreducible():
    # g scales by alpha^{k/2} against the alpha = 1 baseline
    rho3 = make_rho("irr", (2,), 3, P7)
    cyc = _only_cycle(rho3)
    base = breuil_constant(_only_cycle(RHO_IRR_F1), RHO_IRR_F1, "closed", P7)
    rep = breuil_constant(cyc, rho3, "closed", P7)
    assert rep.g_closed == witt_mul(base.g_closed, witt_from_int(3, P7.residue), P7.residue)


def test_alpha_inverse_pair_reducible():
    # alpha' = alpha^{-1} keeps the unit factor trivial here (|J| = f/2)
    rho = make_rho("red", (2, 2), 3, P7F2, alpha_prime=5)
    cyc = _only_cycle(rho)
    rep = breuil_constant(cyc, rho, "closed", P7F2)
    assert rep.g_closed == (1, 0)
    assert theorem_form(rep, rho, P7F2) == rep.g_closed


def test_theorem_form_with_unbalanced_subsets():
    # f = 3 reducible orbits have |J| in {1, 2}, so the alpha exponent
    # of the theorem form is +-1 and the two cycles give inverse units
    rho = make_rho("red", (2, 2, 2), 3, P7F3, alpha_prime=5)
    cycles = cycles_of(rho)
    assert sorted(c.k for c in cycles) == [3, 3]
    for cyc in cycles:
        rep = breuil_constant(cyc, rho, "closed", P7F3)
        assert rep.g_closed == theorem_form(rep, rho, P7F3)
    units = {c: breuil_constant(c, rho, "closed", P7F3).g_closed for c in cycles}
    vals = list(units.values())
    assert witt_mul(vals[0], vals[1], P7F3.residue) == (1, 0, 0)


def test_rotation_invariance():
    cyc = _only_cycle(RHO_IRR_F2)
    rep = breuil_constant(cyc, RHO_IRR_F2, "stepwise", P7F2)
    for t in range(1, cyc.k):
        rot = cycle_from(RHO_IRR_F2, cyc.subsets[t])
        rot_closed = breuil_constant(rot, RHO_IRR_F2, "closed", P7F2)
        assert rot_closed.g_closed == rep.g_closed
    rot1 = cycle_from(RHO_IRR_F2, cyc.subsets[1])
    rep1 = breuil_constant(rot1, RHO_IRR_F2, "stepwise", P7F2)
    assert rep1.g_stepwise == rep.g_stepwise


def test_beta_bruteforce_matches_digit_formulas():
    cyc = _only_cycle(RHO_IRR_F2)
    res = beta_by_bruteforce(cyc, P7F2)
    assert res.v_beta == cyc.k * cyc.sym_diff_size // 2 == 2
    assert res.lead_beta == witt_from_int(contraction_lead(cyc.iplus, P7F2), P7F2.residue)


def test_step_leads_match_formula_f2():
    cyc = _only_cycle(RHO_IRR_F2)
    _, steps = ctilde_product(cyc, RHO_IRR_F2, P7F2)
    for t, st in enumerate(steps):
        want = witt_from_int(step_lead_formula(cyc.subsets[t], RHO_IRR_F2), P7F2.residue)
        assert st.lead == want
        assert st.valuation == P7F2.f - cyc.sym_diff_size


def _off_by_one_jacobi(real):
    return lambda a, b, conv, params: witt_add(real(a, b, conv, params), witt_one(params), params)


def _off_by_one_valuation(real):
    def mutant(c, params):
        v, lead = real(c, params)
        return v + 1, lead

    return mutant


def _off_by_one_lead(real):
    return lambda J, rho: (real(J, rho) + 1) % rho.params.p


@pytest.mark.parametrize(
    "name, mutant, message",
    [
        ("jacobi_sum", _off_by_one_jacobi, "exchange constant differs from Jacobi sum"),
        ("valuation_and_unit", _off_by_one_valuation, r"expected f - \|sym diff\|"),
        ("step_lead_formula", _off_by_one_lead, "differs from formula"),
    ],
)
def test_ctilde_product_step_checks_fire(monkeypatch, name, mutant, message):
    # each step cross-check of the exchange route raises, naming step 0
    cyc = _only_cycle(RHO_IRR_F2)
    monkeypatch.setattr(constants, name, mutant(getattr(constants, name)))
    with pytest.raises(ArithmeticError, match="^step 0: .*" + message):
        ctilde_product(cyc, RHO_IRR_F2, P7F2)


def test_p11_round_trip():
    rho = make_rho("irr", (3,), 1, P11)
    cyc = _only_cycle(rho)
    rep = breuil_constant(cyc, rho, "stepwise", P11)
    assert rep.g_stepwise == rep.g_closed
    assert theorem_form(rep, rho, P11) == rep.g_closed


def test_theorem_form_needs_its_hypothesis():
    # alpha != 1 (irr) and alpha * alpha' != 1 (red) lie outside the theorem
    rho_irr = make_rho("irr", (2,), 3, P7)
    rep = breuil_constant(_only_cycle(rho_irr), rho_irr, "closed", P7)
    assert theorem_form(rep, rho_irr, P7) is None
    rho_red = make_rho("red", (2, 2), 3, P7F2, alpha_prime=1)
    rep = breuil_constant(_only_cycle(rho_red), rho_red, "closed", P7F2)
    assert theorem_form(rep, rho_red, P7F2) is None


def _disagreement(rho, mode):
    with pytest.raises(ArithmeticError) as exc:
        breuil_constant(_only_cycle(rho), rho, mode, P7F2)
    msg = str(exc.value)
    assert msg.startswith("route disagreement"), msg
    return msg


@pytest.mark.parametrize(
    "mode, problem",
    [("closed", "valuation ledger does not cancel"), ("stepwise", "beta valuation")],
)
def test_digit_count_valuation_mutant_is_caught(monkeypatch, mode, problem):
    # the closed route's v(beta) off by one: the ledger catches it in closed
    # mode, the numeric-vs-formula comparison in stepwise mode
    real = constants.contraction_valuation
    monkeypatch.setattr(constants, "contraction_valuation", lambda ix, pr: real(ix, pr) + 1)
    for rho in (RHO_IRR_F2, RHO_RED_F2):
        assert problem in _disagreement(rho, mode)


def test_numeric_valuation_mutant_is_caught_by_the_ledger(monkeypatch):
    real = constants.contract_splus

    def mutant(indices, params):
        res = real(indices, params)
        return dataclasses.replace(res, v_beta=res.v_beta + 1)

    monkeypatch.setattr(constants, "contract_splus", mutant)
    for rho in (RHO_IRR_F2, RHO_RED_F2):
        assert "valuation ledger does not cancel" in _disagreement(rho, "stepwise")


def test_bad_mode_rejected():
    cyc = _only_cycle(RHO_IRR_F1)
    with pytest.raises(ValueError):
        breuil_constant(cyc, RHO_IRR_F1, "fast", P7)


def _oracle_reads(monkeypatch):
    """A list that records every generic ps_act call and every read of the
    q x q oracle tables FieldTables.mul and .add, wherever they happen."""
    reads = []
    for name in ("mul", "add"):
        table = getattr(_tables.FieldTables, name)

        def watched(T, name=name, table=table):
            reads.append(name)
            return table.fget(T)

        monkeypatch.setattr(_tables.FieldTables, name, property(watched))
    generic = principal_series.ps_act

    def counting(chi, x, v, params):
        reads.append("ps_act")
        return generic(chi, x, v, params)

    for name, mod in list(sys.modules.items()):
        if name.startswith("wittcycle") and getattr(mod, "ps_act", None) is generic:
            monkeypatch.setattr(mod, "ps_act", counting)
    return reads


def test_stepwise_constants_act_by_single_elements(monkeypatch):
    # the exchange constants run on U- and w, with one convolution and the
    # O(q) monomial w-map: stepwise constants call no generic ps_act and read
    # no q x q table, so those tables are never built on this route
    reads = _oracle_reads(monkeypatch)
    for rho in (RHO_IRR_F2, RHO_RED_F2):
        for cyc in cycles_of(rho):
            rep = breuil_constant(cyc, rho, "stepwise", P7F2)
            assert rep.g_stepwise == rep.g_closed
    assert reads == []


def test_stickelberger_scan_reads_no_quadratic_table(monkeypatch, tmp_path):
    reads = _oracle_reads(monkeypatch)
    argv = ["stickelberger-scan", "--p", "7", "--f", "2", "--jobs", "1", "--json",
            "--out", str(tmp_path / "scan.json")]
    assert main(argv) == 0
    assert reads == []
