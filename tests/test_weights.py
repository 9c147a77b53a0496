import pytest

from wittcycle.padic import Params
from wittcycle.weights import (
    DLType,
    IRREDUCIBLE,
    REDUCIBLE,
    OrbitExcluded,
    char_of_subset,
    complement,
    cycle_from,
    cycles_of,
    delta,
    digits_value,
    e_eval,
    formal_weight_of,
    fw_apply,
    iplus_of_step,
    jh_intersect,
    make_rho,
    serre_weight_of,
    sigma_J_table,
    subsets_of,
    survey_orbits,
    weight_char,
)

P7 = Params.make(7, 1)
P7F2 = Params.make(7, 2)
P7F3 = Params.make(7, 3)
P11F2 = Params.make(11, 2)

RHO_IRR_F1 = make_rho("irr", (2,), 1, P7)
RHO_RED_F1 = make_rho("red", (2,), 1, P7, alpha_prime=1)


def negative_set(fw):
    """Embeddings where the leading coefficient is -1."""
    return frozenset(j for j, (eps, _) in enumerate(fw) if eps < 0)


def transition_weight(J, rho):
    """The affine map mu with mu(lambda_J) = lambda_{delta J}, componentwise:
    lambda_{delta J} after the inverse of lambda_J, where eps^2 = 1 makes the
    inverse of eps*x + c the map eps*x - eps*c."""
    lam = formal_weight_of(J, rho)
    dl = formal_weight_of(delta(J, rho.kind, rho.params.f), rho)
    return tuple((e1 * e2, c1 - e1 * e2 * c2) for (e1, c1), (e2, c2) in zip(dl, lam))


def weight_set(rho):
    """The full multiplicity-free weight list, one weight per subset."""
    return {J: sigma_J_table(J, rho) for J in subsets_of(rho.params.f)}


def _rho(kind, params, r=None):
    f = params.f
    r = r if r is not None else (2,) * f
    alpha = tuple([1] + [0] * (f - 1))
    if kind == REDUCIBLE:
        return make_rho(kind, r, alpha, params, alpha_prime=alpha)
    return make_rho(kind, r, alpha, params)


def test_rho_validation():
    with pytest.raises(ValueError):
        make_rho("irr", (1,), 1, P7)  # fails genericity
    with pytest.raises(ValueError):
        make_rho("red", (2,), 1, P7)  # missing alpha_prime
    with pytest.raises(ValueError):
        make_rho("irr", (2,), (0,), P7)  # alpha not a unit
    with pytest.raises(ValueError):
        make_rho("irr", (2,), 1, P7, alpha_prime=(3,))  # forced to -1
    with pytest.raises(ValueError):
        make_rho("bogus", (2,), 1, P7)
    rho = make_rho("irreducible", (2,), 1, P7)
    assert rho.alpha_prime == (6,)  # -1 in F_7


def test_delta_small_cases():
    f = 2
    assert delta(frozenset(), IRREDUCIBLE, f) == frozenset({1})
    assert delta(frozenset({1}), IRREDUCIBLE, f) == frozenset({0, 1})
    assert delta(frozenset({0, 1}), IRREDUCIBLE, f) == frozenset({0})
    assert delta(frozenset({0}), IRREDUCIBLE, f) == frozenset()
    assert delta(frozenset({0}), REDUCIBLE, f) == frozenset({1})
    assert delta(frozenset(), REDUCIBLE, f) == frozenset()


def test_delta_identities_exhaustive():
    for f in range(1, 11):
        full = subsets_of(f)
        for kind in (REDUCIBLE, IRREDUCIBLE):
            for J in full:
                dJ = delta(J, kind, f)
                Jc = complement(J, f)
                assert delta(Jc, kind, f) == complement(dJ, f)
                assert J ^ dJ == Jc ^ delta(Jc, kind, f)
                # differences always propagate through the plain shift
                assert delta(J ^ dJ, REDUCIBLE, f) == dJ ^ delta(dJ, kind, f)
                if kind == IRREDUCIBLE:
                    assert len(J ^ dJ) % 2 == 1
                else:
                    assert len(J ^ dJ) % 2 == 0


def test_delta_iterates():
    for f in range(1, 9):
        for J in subsets_of(f):
            cur = J
            for _ in range(f):
                cur = delta(cur, IRREDUCIBLE, f)
            assert cur == complement(J, f)
            for _ in range(f):
                cur = delta(cur, IRREDUCIBLE, f)
            assert cur == J
            cur = J
            for _ in range(f):
                cur = delta(cur, REDUCIBLE, f)
            assert cur == J


def test_formal_weight_frozen_values():
    # irreducible seam pattern (1,1) reads p-1-x, reducible reads p-3-x
    assert formal_weight_of(frozenset({0}), RHO_IRR_F1) == ((-1, 6),)
    assert formal_weight_of(frozenset({0}), RHO_RED_F1) == ((-1, 4),)
    assert formal_weight_of(frozenset(), RHO_IRR_F1) == ((1, 0),)
    rho2 = _rho(IRREDUCIBLE, P7F2)
    assert formal_weight_of(frozenset({0}), rho2) == ((-1, 5), (1, 1))
    assert formal_weight_of(frozenset({0, 1}), rho2) == ((-1, 6), (-1, 4))


def test_e_eval_frozen_values():
    assert e_eval(((-1, 6),), (2,), P7) == 2
    assert e_eval(((-1, 4),), (2,), P7) == 3
    assert e_eval(((1, 0),), (2,), P7) == 0


def test_serre_weight_and_char():
    sw = serre_weight_of(((-1, 6),), RHO_IRR_F1)
    assert sw.s == (4,) and sw.e == 2
    chi = weight_char(sw, P7)
    assert (chi.m1, chi.m2) == (0, 2)
    sw0 = serre_weight_of(((1, 0),), RHO_IRR_F1)
    assert sw0.s == (2,) and sw0.e == 0
    assert (weight_char(sw0, P7).m1, weight_char(sw0, P7).m2) == (2, 0)


def test_sigma_table_worked_example():
    # J = {0} at f = 1 irreducible with r = 2 gives Sym^4 det^2
    sw = sigma_J_table(frozenset({0}), RHO_IRR_F1)
    assert sw.s == (4,) and sw.e == 2
    # reducible route cross-checks the component table internally
    ws = weight_set(_rho(REDUCIBLE, P7F2))
    assert len(ws) == 4
    assert len(set(ws.values())) == 4  # multiplicity free


def test_cycle_f1_irreducible():
    (cyc,) = cycles_of(RHO_IRR_F1)
    assert cyc.k == 2
    assert cyc.subsets == (frozenset(), frozenset({0}))
    assert [(c.m1, c.m2) for c in cyc.chars] == [(2, 0), (0, 2)]
    assert cyc.iplus == (4, 2)
    assert [iplus_of_step(J, RHO_IRR_F1) for J in cyc.subsets] == [(4,), (2,)]
    assert cyc.degenerate == (True, True)
    assert cyc.sym_diff_size == 1


def test_cycle_f2_irreducible():
    rho = _rho(IRREDUCIBLE, P7F2)
    (cyc,) = cycles_of(rho)
    assert cyc.k == 4
    assert cyc.subsets == (
        frozenset(),
        frozenset({1}),
        frozenset({0, 1}),
        frozenset({0}),
    )
    assert cyc.sym_diff_size == 1
    assert not any(cyc.degenerate)
    assert sum(cyc.iplus) % 48 == 0


def test_survey_reducible_f1_all_fixed():
    cycles, excluded = survey_orbits(RHO_RED_F1)
    assert cycles == []
    assert len(excluded) == 2
    assert all("fixed" in e["reason"] for e in excluded)


def test_survey_counts():
    rho2r = _rho(REDUCIBLE, P7F2)
    cycles, excluded = survey_orbits(rho2r)
    assert [c.k for c in cycles] == [2] and len(excluded) == 2
    assert cycles[0].degenerate == (True, True)
    ci, ei = survey_orbits(_rho(IRREDUCIBLE, P7F3))
    assert sorted(c.k for c in ci) == [2, 6] and not ei
    cr, er = survey_orbits(_rho(REDUCIBLE, P7F3))
    assert sorted(c.k for c in cr) == [3, 3] and len(er) == 2


def test_cycle_step_consistency():
    # every step satisfies the digit rule and matches the character shift;
    # the invariants that follow from it are asserted here, not at run time
    for params in (P7F2, P7F3, P11F2, Params.make(7, 4), Params.make(11, 3)):
        q = params.q
        for kind in (REDUCIBLE, IRREDUCIBLE):
            rho = _rho(kind, params)
            for cyc in cycles_of(rho):
                for t in range(cyc.k):
                    J = cyc.subsets[t]
                    nxt = cyc.chars[(t + 1) % cyc.k]
                    assert 0 < cyc.iplus[t] < q - 1
                    assert cyc.chars[t].times_alpha(cyc.iplus[t]) == nxt
                    digits = iplus_of_step(J, rho)
                    assert digits_value(digits, params.p) == cyc.iplus[t]
                    assert cyc.degenerate[t] == (nxt == cyc.chars[t].swap())
                    assert len(J ^ delta(J, kind, params.f)) == cyc.sym_diff_size
                prefix = [sum(cyc.iplus[: t + 1]) % (q - 1) for t in range(cyc.k)]
                assert all(prefix[:-1]) and prefix[-1] == 0
                assert kind == REDUCIBLE or cyc.k % 2 == 0


def test_rotation_preserves_orbit():
    rho = _rho(IRREDUCIBLE, P7F2)
    (cyc,) = cycles_of(rho)
    rot = cycle_from(rho, cyc.subsets[2])
    assert rot.k == cyc.k
    assert rot.subsets[0] == cyc.subsets[2]
    assert set(rot.subsets) == set(cyc.subsets)
    assert rot.iplus == cyc.iplus[2:] + cyc.iplus[:2]


def test_cycle_from_rejects_fixed_subset():
    with pytest.raises(OrbitExcluded):
        cycle_from(RHO_RED_F1, frozenset())


# the local transition tables: pattern of J at consecutive places against
# the resulting pattern of J sym-diff delta(J) and the two weight entries,
# written as (eps, c(p)) with c(p) given a p-offset flag
def _aff(expr, p):
    return {
        "p-3-x": (-1, p - 3),
        "p-2-x": (-1, p - 2),
        "p-1-x": (-1, p - 1),
        "x+1": (1, 1),
        "x": (1, 0),
        "x-1": (1, -1),
    }[expr]


TABLE_INNER = {
    (1, 1, 1): ((0, 0), "p-3-x", "p-3-x"),
    (1, 1, 0): ((1, 0), "p-3-x", "x+1"),
    (1, 0, 1): ((1, 1), "x+1", "p-2-x"),
    (1, 0, 0): ((0, 1), "x+1", "x"),
    (0, 1, 1): ((0, 1), "p-2-x", "p-3-x"),
    (0, 1, 0): ((1, 1), "p-2-x", "x+1"),
    (0, 0, 1): ((1, 0), "x", "p-2-x"),
    (0, 0, 0): ((0, 0), "x", "x"),
}

TABLE_SEAM_0 = {
    (1, 1, 1): ((0, 1), "p-1-x", "p-2-x"),
    (1, 1, 0): ((1, 1), "p-1-x", "x"),
    (1, 0, 1): ((1, 0), "x-1", "p-1-x"),
    (1, 0, 0): ((0, 0), "x-1", "x-1"),
    (0, 1, 1): ((0, 0), "p-2-x", "p-2-x"),
    (0, 1, 0): ((1, 0), "p-2-x", "x"),
    (0, 0, 1): ((1, 1), "x", "p-1-x"),
    (0, 0, 0): ((0, 1), "x", "x-1"),
}

TABLE_SEAM_TOP = {
    (1, 1, 1): ((1, 0), "p-3-x", "x+1"),
    (1, 1, 0): ((0, 0), "p-3-x", "p-3-x"),
    (1, 0, 1): ((0, 1), "x+1", "x"),
    (1, 0, 0): ((1, 1), "x+1", "p-2-x"),
    (0, 1, 1): ((1, 1), "p-2-x", "x+1"),
    (0, 1, 0): ((0, 1), "p-2-x", "p-3-x"),
    (0, 0, 1): ((0, 0), "x", "x"),
    (0, 0, 0): ((1, 0), "x", "p-2-x"),
}


def _ch(J, j, f):
    return 1 if j % f in J else 0


@pytest.mark.parametrize("p,f", [(7, 4), (7, 5), (11, 3)])
def test_local_transition_tables(p, f):
    params = Params.make(p, f)
    for kind in (REDUCIBLE, IRREDUCIBLE):
        rho = _rho(kind, params)
        for J in subsets_of(f):
            dJ = delta(J, kind, f)
            sym = J ^ dJ
            lam = formal_weight_of(J, rho)
            dlam = formal_weight_of(dJ, rho)
            for j in range(f):
                pat = (_ch(J, j - 1, f), _ch(J, j, f), _ch(J, j + 1, f))
                if kind == REDUCIBLE:
                    row = TABLE_INNER[pat]
                elif j == 0:
                    row = TABLE_SEAM_0[pat]
                elif j == f - 1:
                    row = TABLE_SEAM_TOP[pat]
                else:
                    row = TABLE_INNER[pat]
                (c_j, c_jm1), lam_expr, dlam_expr = row
                assert _ch(sym, j, f) == c_j, (kind, sorted(J), j)
                assert _ch(sym, j - 1, f) == c_jm1, (kind, sorted(J), j)
                assert lam[j] == _aff(lam_expr, p), (kind, sorted(J), j)
                assert dlam[j] == _aff(dlam_expr, p), (kind, sorted(J), j)


def test_transition_weight_family_and_index_formula():
    # the componentwise map from one weight to the next lies in the table
    # family keyed by its own negative set, which is J sym-diff delta(J),
    # and its exponent evaluates exactly as a sum over that set
    shapes = {
        (1, 1): "p-1-x",
        (1, 0): "x-1",
        (0, 1): "p-2-x",
        (0, 0): "x",
    }
    for params in (P7, P7F2, P7F3, P11F2):
        p, f = params.p, params.f
        for kind in (REDUCIBLE, IRREDUCIBLE):
            rho = _rho(kind, params)
            for J in subsets_of(f):
                mu = transition_weight(J, rho)
                S = J ^ delta(J, kind, f)
                assert negative_set(mu) == S
                for j in range(f):
                    pat = (_ch(S, j - 1, f), _ch(S, j, f))
                    assert mu[j] == _aff(shapes[pat], p)
                lam = formal_weight_of(J, rho)
                for t in (rho.r, tuple(min(p - 2, x + 1) for x in rho.r)):
                    assert e_eval(mu, t, params) == sum(
                        p**j * (p - 1 - fw_apply(mu, j, t[j])) for j in S
                    )
                # composition law for the determinant exponent
                lam_r = tuple(fw_apply(lam, j, rho.r[j]) for j in range(f))
                e_next = e_eval(formal_weight_of(delta(J, kind, f), rho), rho.r, params)
                agree = e_eval(mu, lam_r, params) + e_eval(lam, rho.r, params)
                assert (e_next - agree) % (params.q - 1) == 0


def test_step_exponent_complement_form():
    # i_plus = q-1 - sum over the sym diff of p^j (p-1 - next weight at j)
    for params in (P7F2, P7F3):
        p, f, q = params.p, params.f, params.q
        for kind in (REDUCIBLE, IRREDUCIBLE):
            rho = _rho(kind, params)
            for J in subsets_of(f):
                dJ = delta(J, kind, f)
                if dJ == J:
                    continue
                dlam = formal_weight_of(dJ, rho)
                S = J ^ dJ
                alt = (q - 1) - sum(
                    p**j * (p - 1 - fw_apply(dlam, j, rho.r[j])) for j in S
                )
                assert digits_value(iplus_of_step(J, rho), p) == alt


def test_weight_chars_distinct_across_subsets():
    for params in (P7F2, P7F3, P11F2):
        for kind in (REDUCIBLE, IRREDUCIBLE):
            rho = _rho(kind, params)
            chars = [char_of_subset(J, rho) for J in subsets_of(params.f)]
            assert len(set(chars)) == len(chars)


def test_jh_intersect():
    rho = _rho(IRREDUCIBLE, P7F3)
    central = DLType(("s", "s", "s"), ("s", "s", "s"))
    assert len(jh_intersect(central, rho)) == 8
    mixed = DLType(("id", "s", "id"), ("s", "s", "id"))
    assert jh_intersect(mixed, rho) == [frozenset({0}), frozenset({0, 1})]
    socle_only = DLType(("id",) * 3, ("id",) * 3)
    assert jh_intersect(socle_only, rho) == [frozenset()]
    with pytest.raises(ValueError):
        jh_intersect(DLType(("s",) * 3, ("id",) * 3), rho)
    with pytest.raises(ValueError):
        jh_intersect(DLType(("s",), ("s",)), rho)
    with pytest.raises(ValueError):
        DLType(("x", "s", "s"), ("s", "s", "s"))
