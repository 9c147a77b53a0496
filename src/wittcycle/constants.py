"""Diagram constants per cycle, assembled by two independent routes.

The stepwise route multiplies out exchange constants and a group-algebra
contraction numerically.  The closed route substitutes into the product
formulas (per-step valuations f - |sym diff|, the factorial leading term
of the contraction, the two cycle-product signs, and the normalized
operator-product monomial).  Both end in a unit of F_q, and any
disagreement raises: a step's from ctilde_product, naming the step, and
one of the assembled pieces with a full audit dump.  Catching it is the
point of having two routes.
"""

from dataclasses import dataclass

from wittcycle.group_algebra import contract_splus, contraction_lead, contraction_valuation
from wittcycle.jacobi import jacobi_sum
from wittcycle.padic import (
    valuation_and_unit,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
    witt_pow,
)
from wittcycle.principal_series import exchange_coefficient
from wittcycle.weights import (
    IRREDUCIBLE,
    delta,
    formal_weight_of,
    fw_apply,
)


@dataclass(frozen=True)
class UpMonomial:
    """The normalized-operator product over a cycle, as sign * p^a * units.

    The 1-unit ambiguity of the individual operators drops out of the
    full-cycle product, which is exactly this monomial.
    """

    sign: int
    p_power: int
    alpha_exp: int
    alpha_prime_exp: int


def up_product(cycle, rho):
    """The product monomial (-p)^{kD/2} times the unit factor.

    D is the symmetric difference size, constant along the orbit, so the
    result does not depend on the anchor.  The unit factor is
    [alpha]^{k|J0^c|/f} [alpha']^{k|J0|/f} in the split reducible case and
    [-alpha]^{k/2} in the irreducible case.
    """
    k, D = cycle.k, cycle.sym_diff_size
    f = rho.params.f
    if (k * D) % 2:
        raise ArithmeticError("odd k*D: not a valid cycle")
    p_power = k * D // 2
    if rho.kind == IRREDUCIBLE:
        if k % 2:
            raise ArithmeticError("irreducible cycle length must be even")
        alpha_exp, alpha_prime_exp = k // 2, 0
        sign = -1 if (p_power + k // 2) % 2 else 1
    else:
        size = len(cycle.subsets[0])
        if (k * (f - size)) % f or (k * size) % f:
            raise ArithmeticError("non-integral unit exponent: not a valid cycle")
        alpha_exp = k * (f - size) // f
        alpha_prime_exp = k * size // f
        sign = -1 if p_power % 2 else 1
    return UpMonomial(sign, p_power, alpha_exp, alpha_prime_exp)


def beta_by_bruteforce(cycle, params):
    """Contract the cycle's step exponents in walk order, every proper
    prefix nonzero mod q-1 (cycle_from); breuil_constant's ledger audits
    the valuation."""
    return contract_splus(cycle.iplus, params)


def step_lead_formula(J, rho):
    """Closed-form leading digit of a step constant, as an integer mod p.

    Reads the source weight and its shift: sign from the symmetric
    difference and the shifted values, then a ratio of linear factors over
    the boundary positions of the symmetric difference.
    """
    params = rho.params
    p, f = params.p, params.f
    dJ = delta(J, rho.kind, f)
    sym = J ^ dJ
    lam = formal_weight_of(J, rho)
    dl = formal_weight_of(dJ, rho)
    v = f - len(sym)
    expo = f - 1 + v + len(sym) + sum(p - 1 - fw_apply(dl, j, rho.r[j]) for j in sym)
    num = 1
    den = 1
    for j in range(f):
        prev_in = (j - 1) % f in sym
        if j in sym and not prev_in:
            num = num * (p - 1 - fw_apply(lam, j, rho.r[j])) % p
        elif j not in sym and prev_in:
            den = den * (p - fw_apply(lam, j, rho.r[j])) % p
    out = num * pow(den, -1, p) % p
    if expo % 2:
        out = (-out) % p
    return out


@dataclass(frozen=True)
class StepConstant:
    """One step's constant: its Jacobi-sum form and measured parts."""

    index: int
    i_psi: int
    jacobi_b: int
    valuation: int
    lead: tuple
    degenerate: bool


def ctilde_product(cycle, rho, params):
    """Per-step constants along the cycle and the product of their leads.

    Every step, degenerate or not, multiplies out its exchange coefficient
    at the working N and cross-checks it against the Jacobi sum
    J(i_psi, q-1-lambda(r)) at the precision it used.  Every step's
    valuation must equal f - |sym diff| and its leading digit must match
    the closed formula.
    """
    q, f = params.q, params.f
    D = cycle.sym_diff_size
    per_step = []
    total = witt_one(params.residue)
    for t in range(cycle.k):
        chi = cycle.chars[t]
        i_psi = q - 1 - cycle.iplus[t]
        lam_r = chi.a_exponent()
        b = q - 1 - lam_r
        c, used = exchange_coefficient(chi, i_psi, params)
        if c != jacobi_sum(i_psi, b, "standard", used):
            raise ArithmeticError("step %d: exchange constant differs from Jacobi sum" % t)
        v, lead = valuation_and_unit(c, used)
        if v != f - D:
            raise ArithmeticError(
                "step %d: valuation %s, expected f - |sym diff| = %d"
                % (t, v, f - D)
            )
        want_lead = witt_from_int(step_lead_formula(cycle.subsets[t], rho), params.residue)
        if lead != want_lead:
            raise ArithmeticError(
                "step %d: leading digit %s differs from formula %s"
                % (t, lead, want_lead)
            )
        per_step.append(StepConstant(t, i_psi, b, v, lead, cycle.degenerate[t]))
        total = witt_mul(total, lead, params.residue)
    return total, per_step


def ctilde_closed(cycle):
    """The cycle-product sign: 1 irreducible, (-1)^{k(f-1)+kf} reducible."""
    if cycle.kind == IRREDUCIBLE:
        return 1
    return -1 if cycle.k % 2 else 1


@dataclass(frozen=True)
class ConstantReport:
    """steps holds the per-step constants of the stepwise route (None if closed)."""

    cycle: object
    g_stepwise: tuple
    g_closed: tuple
    pieces: dict
    valuation_ledger: tuple
    steps: tuple = None


def breuil_constant(cycle, rho, mode, params):
    """The cycle's diagram constant, by formulas, or by both routes.

    mode 'closed' assembles g purely from the closed formulas and leaves
    g_stepwise unset.  mode 'stepwise' additionally multiplies the
    constant out numerically and insists the two agree.  Both modes build
    the ledger, the pieces and the checks on them the same way, from their
    own values.
    """
    if mode not in ("stepwise", "closed"):
        raise ValueError("mode must be stepwise or closed")
    p, f, fq = params.p, params.f, params.residue
    k, D = cycle.k, cycle.sym_diff_size
    up = up_product(cycle, rho)
    sign_kd = 1 if up.p_power % 2 == 0 else -1
    alpha_factor = witt_mul(
        witt_pow(rho.alpha, up.alpha_exp, fq),
        witt_pow(rho.alpha_prime, up.alpha_prime_exp, fq),
        fq,
    )
    # up.sign beyond sign_kd is the (-1)^{k/2} of [-alpha]^{k/2}: a unit factor
    if up.sign != sign_kd:
        alpha_factor = witt_neg(alpha_factor, fq)

    v_formula = contraction_valuation(cycle.iplus, params)
    lead_beta_closed = contraction_lead(cycle.iplus, params)
    ct_closed = ctilde_closed(cycle)

    epsilon = ct_closed * sign_kd * lead_beta_closed % p
    if epsilon not in (1, p - 1):
        raise ArithmeticError("epsilon sign is not +-1")

    # mode closed takes these values from the formulas, mode stepwise from
    # the numeric route; g, the ledger and the pieces are built once from them
    if mode == "closed":
        v_beta, lead_beta = v_formula, witt_from_int(lead_beta_closed, fq)
        ct_lead = witt_from_int(ct_closed, fq)
        per_step = ()
        step_valuations = [f - D] * k
    else:
        beta = beta_by_bruteforce(cycle, params)
        ct_lead, per_step = ctilde_product(cycle, rho, params)
        v_beta, lead_beta = beta.v_beta, beta.lead_beta
        step_valuations = [st.valuation for st in per_step]

    sign_alpha = witt_mul(witt_from_int(sign_kd, fq), alpha_factor, fq)
    g = witt_mul(witt_mul(ct_lead, lead_beta, fq), sign_alpha, fq)
    g_closed = witt_mul(witt_from_int(epsilon, fq), alpha_factor, fq)
    ledger = [("beta_valuation", v_beta), ("up_p_power", -(k * D) // 2)]
    for t, v in enumerate(step_valuations):
        ledger.append(("step_%d_valuation" % t, v))
        ledger.append(("step_%d_saturation" % t, -(f - D)))
    pieces = {
        "ctilde_product_lead": ct_lead,
        "beta_valuation": v_beta,
        "beta_lead": lead_beta,
        "up_sign": up.sign,
        "alpha_factor": alpha_factor,
        "epsilon_sign": 1 if epsilon == 1 else -1,
    }

    # g = ct_lead * lead_beta * sign_alpha and g_closed = epsilon * alpha_factor,
    # so the lead and ctilde problems cover g != g_closed
    problems = []
    if sum(v for _, v in ledger):
        problems.append("valuation ledger does not cancel")
    if v_beta != v_formula:
        problems.append("beta valuation: numeric %s vs formula %d" % (v_beta, v_formula))
    if lead_beta != witt_from_int(lead_beta_closed, fq):
        problems.append("beta lead: numeric %s vs formula %d" % (lead_beta, lead_beta_closed))
    if ct_lead != witt_from_int(ct_closed, fq):
        problems.append("ctilde product: numeric %s vs sign %d" % (ct_lead, ct_closed))
    if problems:
        lines = ["route disagreement for cycle %s:" % (cycle.subsets,)]
        lines += ["  " + msg for msg in problems]
        lines.append("  pieces: %s" % pieces)
        lines.append("  ledger: %s" % ledger)
        lines += [
            "  step %d: i_psi=%d b=%d v=%d lead=%s degenerate=%s"
            % (st.index, st.i_psi, st.jacobi_b, st.valuation, st.lead, st.degenerate)
            for st in per_step
        ]
        raise ArithmeticError("\n".join(lines))

    if mode == "closed":
        return ConstantReport(cycle, None, g_closed, pieces, tuple(ledger))
    return ConstantReport(cycle, g, g_closed, pieces, tuple(ledger), tuple(per_step))


def theorem_form(report, rho, params):
    """The unit the assembled g must equal when det at p is normalized.

    Irreducible with alpha = 1: epsilon * (-1)^{k/2}; split reducible with
    alpha' the inverse of alpha: epsilon * alpha^{(|J^c|-|J|)k/f}.  None
    when rho is outside that hypothesis.
    """
    cycle = report.cycle
    k, f, fq = cycle.k, params.f, params.residue
    unit = rho.alpha if rho.kind == IRREDUCIBLE else witt_mul(rho.alpha, rho.alpha_prime, fq)
    if unit != witt_one(fq):
        return None
    eps = witt_from_int(report.pieces["epsilon_sign"], fq)
    if rho.kind == IRREDUCIBLE:
        sign = witt_from_int(1 if (k // 2) % 2 == 0 else -1, fq)
        return witt_mul(eps, sign, fq)
    size = len(cycle.subsets[0])
    expo = (f - 2 * size) * k // f
    # alpha is a unit mod p, so alpha^(q-1) = 1
    unit = witt_pow(rho.alpha, expo % (params.q - 1), fq)
    return witt_mul(eps, unit, fq)
