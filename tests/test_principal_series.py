import random

import pytest

from wittcycle import _tables, principal_series
from wittcycle.constants import breuil_constant
from wittcycle.group_algebra import GL2_ID, GL2_W, gl2_mul, s_operator, scale_vector
from wittcycle.jacobi import jacobi_sum
from wittcycle.padic import (
    Params,
    PrecisionError,
    valuation_and_unit,
    witt_add,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
)
from wittcycle.principal_series import (
    ExchangeError,
    _w_map,
    PSModule,
    eigen_check,
    exchange_coefficient,
    exchange_constant,
    exchange_vectors,
    h_component_characters,
    h_components,
    make_char,
    ps_act,
)
from wittcycle.weights import cycles_of, make_rho

from test_group_algebra import gl2_det, random_gl2, s_by_oracle

P7 = Params.make(7, 1)
P7F2 = Params.make(7, 2)
P11F2 = Params.make(11, 2)
P7F3 = Params.make(7, 3)


def test_dimension_and_multiplicities():
    module = PSModule(make_char(2, 0, P7), P7)
    chars = h_component_characters(module)
    assert sum(chars.values()) == 8
    assert chars[make_char(2, 0, P7)] == 2
    assert chars[make_char(0, 2, P7)] == 2
    assert sorted(chars.values(), reverse=True) == [2, 2, 1, 1, 1, 1]


def test_phi_is_unipotent_fixed_eigenvector():
    chi = make_char(2, 0, P7)
    module = PSModule(chi, P7)
    phi = {GL2_ID: witt_one(module.params)}
    assert eigen_check(module, phi, chi)
    for x in range(7):
        assert ps_act(module, (1, x, 0, 1), phi) == phi


def test_ps_act_refuses_a_singular_matrix():
    # det 0 has no character value: both Bruhat cells would read dlog[0]
    module = PSModule(make_char(3, 1, P7), P7)
    phi = {GL2_ID: witt_one(P7)}
    for g in [(1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 0)]:
        with pytest.raises(ZeroDivisionError, match="singular"):
            ps_act(module, g, phi)


def test_eigen_check_rejects_non_eigenvectors():
    chi = make_char(3, 1, P7)
    module = PSModule(chi, P7)
    phi = {GL2_ID: witt_one(module.params)}
    # phi with the wrong character, and phi + w phi, whose lines carry chi
    # and chi swapped
    assert not eigen_check(module, phi, chi.swap())
    both = {GL2_ID: witt_one(P7), GL2_W: witt_one(P7)}
    assert not eigen_check(module, both, chi)
    assert not eigen_check(module, both, chi.swap())


def test_all_declared_components_are_eigenvectors():
    # and they are phi, w phi and the vectors sum of [mu]^j u-(mu) phi,
    # built for the reference with pow_code, independently of the dlog
    # lookup, each with the character chi alpha^j
    for params, (m1, m2) in [(P7, (3, 1)), (P7F2, (10, 2)), (P11F2, (7, 2))]:
        q, T, teich = params.q, _tables.tables_for(params), _tables.teich_by_code(params)
        chi = make_char(m1, m2, params)
        module = PSModule(chi, params)
        comps = h_components(module)
        got = []
        for xi, vecs in comps.items():
            for v in vecs:
                got.append(v)
                assert eigen_check(module, v, xi)
        want = [(chi, {GL2_ID: witt_one(params)}), (chi.swap(), {GL2_W: witt_one(params)})] + [
            (chi.times_alpha(j), {(1, 0, mu, 1): teich[T.pow_code(mu, j)] for mu in range(1, q)})
            for j in range(q - 1)
        ]
        for xi, v in want:
            assert v in comps[xi]
        assert len(got) == len(want)


def test_action_is_multiplicative():
    # acting by a product equals acting twice; exercises the Bruhat
    # projection on random invertible matrices
    rng = random.Random(5)
    chi = make_char(3, 1, P7)
    module = PSModule(chi, P7)
    vec = {GL2_ID: witt_one(P7), (1, 0, 3, 1): witt_one(P7), GL2_W: witt_from_int(2, P7)}
    mats = [random_gl2(rng, P7) for _ in range(8)]
    for h1 in mats[:4]:
        for h2 in mats[4:]:
            joint = ps_act(module, gl2_mul(h1, h2, P7), vec)
            stepped = ps_act(module, h1, ps_act(module, h2, vec))
            assert joint == stepped


def test_operator_shifts_eigencharacter():
    chi = make_char(3, 1, P7)
    module = PSModule(chi, P7)
    phi = {GL2_ID: witt_one(module.params)}
    for i in range(1, 6):
        down = ps_act(module, s_by_oracle(i, P7), phi)
        assert down and eigen_check(module, down, chi.swap().times_alpha(-i))
        up = ps_act(module, s_operator(i, P7), phi)
        assert up and eigen_check(module, up, chi.times_alpha(i))


def test_augmented_upper_operator_kills_multiplicity_one_vectors():
    chi = make_char(2, 0, P7)
    module = PSModule(chi, P7)
    s0p = s_operator(0, P7)
    killed = 0
    for xi, vecs in h_components(module).items():
        if h_component_characters(module)[xi] == 1:
            for v in vecs:
                assert ps_act(module, s0p, v) == {}
                killed += 1
    assert killed == 4


def test_composition_identity_on_eigenvectors():
    # S_i S_j v = eta(-1) J0(i, -j-r') S_{i-j-r'} v for an eigenvector v
    # whose character is a^{r'} eta(ad); exhaustive over valid (i, j) at
    # q = 7, sampled at q = 49
    rng = random.Random(11)
    for params, charlist, npairs in [
        (P7, [(2, 0), (3, 1), (5, 2)], None),
        (P7F2, [(10, 2)], 5),
    ]:
        q = params.q
        for m1, m2 in charlist:
            chi = make_char(m1, m2, params)
            module = PSModule(chi, params)
            phi = {GL2_ID: witt_one(module.params)}
            s0phi = ps_act(module, s_by_oracle(0, params), phi)
            cases = [
                (phi, (chi.m1 - chi.m2) % (q - 1), chi.m2),
                (s0phi, (chi.m2 - chi.m1) % (q - 1), chi.m1),
            ]
            for v, rprime, eta_exp in cases:
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
                    red = (i - j - rprime) % (q - 1)
                    jac = jacobi_sum(i, (-j - rprime) % (q - 1), "J0", params)
                    if eta_exp % 2:
                        jac = witt_neg(jac, params)
                    rhs = scale_vector(
                        ps_act(module, s_by_oracle(red, params), v), jac, params
                    )
                    assert lhs == rhs, (params.p, params.f, (m1, m2), i, j)


def test_exchange_constant_matches_jacobi_sum():
    psi_s = make_char(10, 2, P7F2)
    i_psi = 5
    c, i_plus, used = exchange_constant(psi_s, i_psi, P7F2)
    assert i_plus == 43
    lam_r = (psi_s.m1 - psi_s.m2) % 48
    assert lam_r == 8
    expect = jacobi_sum(i_psi, 48 - lam_r, "standard", used)
    assert c == expect
    v, lead = valuation_and_unit(c, used)
    assert v == 1 and lead == (1, 0)


def test_exchange_constant_survives_low_precision_start():
    psi_s = make_char(10, 2, P7F2)
    low = Params.make(7, 2, N=1)
    c, _, used = exchange_constant(psi_s, 5, low)
    assert used.N > 1
    ref = jacobi_sum(5, 40, "standard", used)
    assert c == ref


def test_exchange_degenerate_multiplicity_two():
    # at f = 1 the cycle characters are mutual swaps, so the step target is
    # the swapped character, which has multiplicity two
    for (m1, m2), i_psi in [((2, 0), 2), ((0, 2), 4)]:
        psi_s = make_char(m1, m2, P7)
        assert psi_s.times_alpha(-i_psi) == psi_s.swap()
        with pytest.raises(ExchangeError, match="multiplicity 2"):
            exchange_constant(psi_s, i_psi, P7)


@pytest.mark.parametrize("params", [P7, P7F2, Params.make(11, 1)], ids=["q7", "q49", "q11"])
def test_exchange_degeneracy_rule_matches_torus_count(params):
    # exchange_constant refuses a step when its target is psi_s swapped: for
    # 0 < i < q-1 that is exactly when the torus count of the target is 2,
    # and every other target is simple
    m = params.q - 1
    for m1 in range(m):
        for m2 in range(m):
            psi_s = make_char(m1, m2, params)
            counts = h_component_characters(PSModule(psi_s, params))
            for i in range(1, m):
                target = psi_s.times_alpha(-i)
                assert counts.get(target, 0) == 1 + (target == psi_s.swap())


def test_exchange_validates_index_range():
    psi_s = make_char(10, 2, P7F2)
    for bad in (0, 48, -3):
        with pytest.raises(ValueError):
            exchange_constant(psi_s, bad, P7F2)


def test_exchange_rejects_a_character_of_another_field():
    # (2, 0) at i = 2 is degenerate for q = 7; at q = 49 it is a bad input
    with pytest.raises(ValueError, match="field size"):
        exchange_constant(make_char(2, 0, P7), 2, P7F2)


@pytest.mark.parametrize("params", [P7, P7F2], ids=["q7", "q49"])
def test_upper_operator_kills_w_phi(params):
    # U- fixes w phi, so S+_i w phi is the sum of [lam]^i over
    # lam != 0 times w phi: 0 for 0 < i < q-1, which lets the exchange route
    # drop the w phi part of S_0 phi; q-1 at i = q-1, and q at i = 0, where
    # lam = 0 adds the identity (q vanishes mod p, -1 does not)
    rng = random.Random(params.q)
    q = params.q
    for work in (params, params.residue):
        for _ in range(2):
            module = PSModule(make_char(rng.randrange(q - 1), rng.randrange(q - 1), work), work)
            wphi = {GL2_W: witt_one(work)}
            for i in range(q):
                total = {0: q, q - 1: q - 1}.get(i, 0)
                want = scale_vector(wphi, witt_from_int(total, work), work)
                assert ps_act(module, s_operator(i, work), wphi) == want, (work.N, module.chi, i)


@pytest.mark.parametrize("params", [P7, P7F2, P11F2], ids=["q7", "q49", "q121"])
def test_chart_vectors_match_generic_action(params):
    # the route on U- and w against the generic ps_act, in the same basis,
    # at the working N and mod p; indices include the degenerate target
    # i = m1 - m2 when it lies in (0, q-1)
    rng = random.Random(params.q)
    vrng = random.Random(params.q + 1)
    q = params.q
    for work in (params, params.residue):
        for _ in range(3):
            chi = make_char(rng.randrange(q - 1), rng.randrange(q - 1), work)
            module = PSModule(chi, work)
            phi = {GL2_ID: witt_one(module.params)}
            s0phi = ps_act(module, s_by_oracle(0, work), phi)
            for i in sorted({chi.a_exponent(), rng.randrange(1, q - 1)} - {0}):
                want = (
                    ps_act(module, s_by_oracle(i, work), s0phi),
                    ps_act(module, s_operator(q - 1 - i, work), phi),
                )
                assert exchange_vectors(module, i) == want, (work.N, chi, i)
            # the monomial w-map on a random element of U- and w, with one
            # zero coefficient; the identity acts on it as itself
            keys = [GL2_W] + [(1, 0, mu, 1) for mu in range(q)]
            x = {
                g: tuple(vrng.randrange(work.pN) for _ in range(work.f))
                for g in vrng.sample(keys, (q + 1) // 2)
            }
            x[vrng.choice(list(x))] = (0,) * work.f
            assert _w_map(module, x) == ps_act(module, GL2_W, x), (work.N, chi)
            y = {g: c for g, c in x.items() if any(c)}
            assert ps_act(module, GL2_ID, y) == y, (work.N, chi)


@pytest.mark.parametrize("params", [P7, P7F2, P11F2], ids=["q7", "q49", "q121"])
def test_w_map_matches_per_coordinate_reference(params):
    # u-(mu) -> (-1)^m2 [mu]^(m1-m2) u-(1/mu), one witt_mul per factor
    rng = random.Random(params.q + 1)
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    q = params.q
    keys = [GL2_W] + [(1, 0, mu, 1) for mu in range(q)]
    for _ in range(3):
        chi = make_char(rng.randrange(q - 1), rng.randrange(q - 1), params)
        module = PSModule(chi, params)
        y = {
            g: tuple(rng.randrange(params.pN) for _ in range(params.f))
            for g in rng.sample(keys, (q + 1) // 2)
        }
        sign = teich[T.pow_code(T.neg[1], chi.m2)]
        want = {}
        for g, c in y.items():
            if g == GL2_W:
                want[(1, 0, 0, 1)] = c
            elif g[2] == 0:
                want[GL2_W] = c
            else:
                unit = witt_mul(sign, teich[T.pow_code(g[2], chi.m1 - chi.m2)], params)
                want[(1, 0, T.inv[g[2]], 1)] = witt_mul(c, unit, params)
        assert _w_map(module, y) == want, chi
    assert _w_map(module, {GL2_W: witt_one(params)}) == {(1, 0, 0, 1): witt_one(params)}
    assert _w_map(module, {}) == {}


def test_exchange_proportionality_check_bites(monkeypatch):
    psi_s = make_char(10, 2, P7F2)
    vectors = principal_series.exchange_vectors

    def off_by_one(module, i_psi):
        u, w = vectors(module, i_psi)
        g = next(g for g in u if g != (1, 0, 1, 1))
        u = dict(u)
        u[g] = witt_add(u[g], witt_one(module.params), module.params)
        return u, w

    monkeypatch.setattr(principal_series, "exchange_vectors", off_by_one)
    with pytest.raises(ExchangeError):
        exchange_constant(psi_s, 5, P7F2)
    monkeypatch.setattr(
        principal_series, "exchange_vectors", lambda m, i: ({}, vectors(m, i)[1])
    )
    with pytest.raises(PrecisionError):
        exchange_constant(psi_s, 5, P7F2)


@pytest.mark.parametrize(
    "kind, r, alpha_prime, params",
    [("red", (2, 2), 1, P7F2), ("irr", (2, 2, 2), -1, P7F3)],
    ids=["q49", "q343"],
)
def test_exchange_check_bites_at_a_degenerate_step(monkeypatch, kind, r, alpha_prime, params):
    # p added to a U- coordinate of u away from u-(1), or to the w phi
    # coordinate d, vanishes mod p, so only a check at the working N sees it
    rho = make_rho(kind, r, 1, params, alpha_prime=alpha_prime)
    cycle = next(c for c in cycles_of(rho) if any(c.degenerate))
    t = cycle.degenerate.index(True)
    chi, i_psi = cycle.chars[t], params.q - 1 - cycle.iplus[t]
    c, used = exchange_coefficient(chi, i_psi, params)
    assert c == jacobi_sum(i_psi, params.q - 1 - chi.a_exponent(), "standard", used)
    vectors = principal_series.exchange_vectors

    def off_by_p(module, i):
        u, w = vectors(module, i)
        if module.chi.times_alpha(-i) == module.chi.swap():
            assert GL2_W in u
            g = next(g for g in u if g not in (GL2_W, (1, 0, 1, 1)))
            u = dict(u)
            u[g] = witt_add(u[g], witt_from_int(module.params.p, module.params), module.params)
        return u, w

    monkeypatch.setattr(principal_series, "exchange_vectors", off_by_p)
    with pytest.raises(ExchangeError, match="not proportional"):
        exchange_coefficient(chi, i_psi, params)
    with pytest.raises(ExchangeError, match="not proportional"):
        breuil_constant(cycle, rho, "stepwise", params)

    def d_off_by_p(module, i):
        u, w = vectors(module, i)
        if module.chi.times_alpha(-i) == module.chi.swap():
            # d = (-1)^m1 (q-1) at a degenerate step
            m1, work = module.chi.m1, module.params
            assert u[GL2_W] == witt_from_int((-1) ** m1 * (work.q - 1), work)
            u = {**u, GL2_W: witt_add(u[GL2_W], witt_from_int(work.p, work), work)}
        return u, w

    monkeypatch.setattr(principal_series, "exchange_vectors", d_off_by_p)
    with pytest.raises(ExchangeError, match="w phi"):
        exchange_coefficient(chi, i_psi, params)
    with pytest.raises(ExchangeError, match="w phi"):
        breuil_constant(cycle, rho, "stepwise", params)


def test_exchange_refuses_w_phi_at_a_nondegenerate_step(monkeypatch):
    psi_s = make_char(10, 2, P7F2)
    vectors = principal_series.exchange_vectors

    def with_w_phi(module, i_psi):
        u, w = vectors(module, i_psi)
        assert GL2_W not in u
        return {**u, GL2_W: witt_one(module.params)}, w

    monkeypatch.setattr(principal_series, "exchange_vectors", with_w_phi)
    for exchange in (exchange_coefficient, exchange_constant):
        with pytest.raises(ExchangeError, match="w phi"):
            exchange(psi_s, 5, P7F2)


# ------------------------------------------------ the generic ps_act oracle

def _ps_act_ref(module, x, v):
    """ps_act term by term: each product by gl2_mul, split by Bruhat, its
    character value by pow_code, and one witt_mul and witt_add per term."""
    params = module.params
    if isinstance(x, tuple):
        x = {x: witt_one(params)}
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    q, mul, inv = T.q, T.mul, T.inv
    m1, m2 = module.chi.m1, module.chi.m2
    out = {}
    for h, hcoef in x.items():
        for g, c in v.items():
            hg = gl2_mul(h, g, params)
            a, b, cc = hg[:3]
            if a:  # u-(c/a) (a b; 0 det/a)
                key = (1, 0, mul[cc * q + inv[a]], 1)
                d1, d2 = a, mul[gl2_det(hg, params) * q + inv[a]]
            else:  # w (c d; 0 b)
                key, d1, d2 = GL2_W, cc, b
            scal = teich[mul[T.pow_code(d1, m1) * q + T.pow_code(d2, m2)]]
            w = witt_mul(witt_mul(c, hcoef, params), scal, params)
            prev = out.get(key)
            out[key] = witt_add(prev, w, params) if prev else w
    return {key: c for key, c in out.items() if any(c)}


def _basis(params):
    return [GL2_W] + [(1, 0, mu, 1) for mu in range(params.q)]


_ORACLE_FIELDS = pytest.mark.parametrize("params", [P7, P7F2], ids=["q7", "q49"])


@_ORACLE_FIELDS
@pytest.mark.parametrize("seed", range(3))
def test_ps_act_matches_reference_dense(params, seed):
    rng = random.Random(seed)
    q = params.q
    module = PSModule(make_char(rng.randrange(q - 1), rng.randrange(q - 1), params), params)

    def coeff():
        return tuple(rng.randrange(params.pN) for _ in range(params.f))

    v = {g: coeff() for g in _basis(params)}
    for _ in range(5):
        g = random_gl2(rng, params)
        assert ps_act(module, g, v) == _ps_act_ref(module, g, v)
    x = {random_gl2(rng, params): coeff() for _ in range(40)}
    x.update(s_by_oracle(rng.randrange(q), params))
    assert ps_act(module, x, v) == _ps_act_ref(module, x, v)


def test_ps_act_reads_each_scalar_with_one_lookup(monkeypatch):
    # chi(b) is read at the exponent (m1 - m2) dlog a + m2 dlog det, or
    # m1 dlog c + m2 dlog b off the big cell: one lookup per key, no
    # pow_code call
    rng = random.Random(4903)
    module = PSModule(make_char(10, 3, P7F2), P7F2)
    v = {g: tuple(rng.randrange(P7F2.pN) for _ in range(2)) for g in _basis(P7F2)}
    x = {random_gl2(rng, P7F2): witt_one(P7F2) for _ in range(10)}
    x.update(s_by_oracle(5, P7F2))
    want = _ps_act_ref(module, x, v)
    calls = []
    monkeypatch.setattr(_tables.FieldTables, "pow_code", lambda self, a, e: calls.append((a, e)))
    assert ps_act(module, x, v) == want
    assert calls == []


@_ORACLE_FIELDS
def test_ps_act_extreme_coefficients(params):
    # the central elements z I with z a non-square act on every basis
    # vector by [z]^(m1+m2) = [-1]; with every coefficient p^N - 1 each
    # basis vector collects |x| = (q-1)/2 terms
    q = params.q
    T = _tables.tables_for(params)
    module = PSModule(make_char(1, (q - 1) // 2 - 1, params), params)
    top = (params.pN - 1,) * params.f
    x = {(T.exp[k], 0, 0, T.exp[k]): top for k in range(1, q - 1, 2)}
    v = {g: top for g in _basis(params)}
    got = ps_act(module, x, v)
    assert got == _ps_act_ref(module, x, v)
    assert len(got) == q + 1


@_ORACLE_FIELDS
def test_ps_act_reads_coefficients_mod_pN(params):
    rng = random.Random(params.q)
    q, m = params.q, params.pN
    module = PSModule(make_char(3, 1, params), params)

    def coeff():
        return tuple(rng.randrange(-3 * m, 3 * m) for _ in range(params.f))

    v = {g: coeff() for g in _basis(params)}
    x = {random_gl2(rng, params): coeff() for _ in range(20)}
    got = ps_act(module, x, v)
    assert got == _ps_act_ref(module, x, v)
    assert all(0 <= a < m for c in got.values() for a in c)
    g = random_gl2(rng, params)
    assert ps_act(module, g, v) == _ps_act_ref(module, g, v)
