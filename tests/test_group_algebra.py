import decimal
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from wittcycle import group_algebra
from wittcycle._tables import tables_for, teich_by_code
from wittcycle.cli import _contract_checks
from wittcycle.group_algebra import (
    GL2_ID,
    GL2_W,
    ContractionResult,
    check_contract_pre,
    contract_splus,
    ga_multiply,
    s_operator,
    s_product_closed,
    scale_vector,
    u_convolve,
)
from wittcycle.padic import (
    Params,
    digits,
    witt_add,
    witt_from_int,
    witt_mul,
    witt_neg,
    witt_one,
    witt_sub,
    witt_zero,
)

from oracle import ga_act_matrix, gl2_det, gl2_mul, random_gl2, s_by_oracle

P71 = Params.make(7, 1, N=5)
P72 = Params.make(7, 2)


def test_gl2_helpers():
    g = (2, 3, 1, 6)  # det = 9 = 2 mod 7
    assert gl2_det(g, P71) == 2
    assert gl2_mul(g, GL2_ID, P71) == g
    # g times its adjugate (6 -3; -1 2) is det times the identity
    assert gl2_mul(g, (6, 4, 6, 2), P71) == (2, 0, 0, 2)
    assert gl2_mul(GL2_W, GL2_W, P71) == GL2_ID
    # the determinant is multiplicative, so products of invertibles stay invertible
    T, rng = tables_for(P72), random.Random(72)
    for _ in range(20):
        g, h = random_gl2(rng, P72), random_gl2(rng, P72)
        want = T.mul[gl2_det(g, P72) * T.q + gl2_det(h, P72)]
        assert gl2_det(gl2_mul(g, h, P72), P72) == want != 0


def test_s_operator_support():
    q = P71.q
    sp = s_operator(3, P71)
    assert len(sp) == q - 1
    assert all(g[0] == 1 and g[1] == 0 and g[3] == 1 for g in sp)
    s0p = s_operator(0, P71)
    assert len(s0p) == q  # all lower unipotents including the identity
    assert s0p[GL2_ID] == (1,)
    for i in (q, -1):
        with pytest.raises(ValueError):
            s_operator(i, P71)


@pytest.mark.parametrize("q", [7, 49, 343])
@pytest.mark.parametrize("variant", ["S", "S_plus"])
def test_s_operator_zero_is_index_q_minus_1_plus_lambda_zero(q, variant):
    # reference: S_{q-1} plus the lambda = 0 term, the antidiagonal w for S
    # and the identity for S+
    params = _KERNEL_FIELDS[q]
    build = s_by_oracle if variant == "S" else s_operator
    key = GL2_W if variant == "S" else GL2_ID
    want = dict(build(q - 1, params))
    want[key] = witt_add(want.get(key, witt_zero(params)), witt_one(params), params)
    assert build(0, params) == want


def test_s_is_w_times_s_plus():
    # the paper's S_i, the sum of [lambda]^i (lambda 1; 1 0), is w S+_i for
    # every index including the augmented 0, where [0]^0 = 1 puts 1 at w
    q, T, teich = P71.q, tables_for(P71), teich_by_code(P71)
    for i in range(0, q):
        want = {(lam, 1, 1, 0): teich[T.pow_code(lam, i)] for lam in range(0 if i == 0 else 1, q)}
        assert s_by_oracle(i, P71) == want


def test_splus_family_commutes_q7():
    ops = [s_operator(i, P71) for i in range(1, 6)]
    for x in ops:
        for y in ops:
            assert ga_multiply(x, y, P71) == ga_multiply(y, x, P71)


def test_product_relation_splus_exhaustive_q7():
    q = P71.q
    for i in range(1, q - 1):
        for j in range(1, q - 1):
            lhs = ga_multiply(s_operator(i, P71), s_operator(j, P71), P71)
            assert lhs == s_product_closed(i, j, P71), (i, j)


def test_product_relation_mixed_exhaustive_q7():
    # S_i S+_j follows the same shape with S-operators on the right side:
    # J(i, j) S_{i+j}, or (-1)^(i+1) S_0 + (-1)^i q w, the left translate by
    # w of the S+ form
    q = P71.q
    for i in range(1, q - 1):
        for j in range(1, q - 1):
            lhs = ga_multiply(s_by_oracle(i, P71), s_operator(j, P71), P71)
            assert lhs == ga_act_matrix(GL2_W, s_product_closed(i, j, P71), P71), (i, j)


def test_product_relation_sample_q49():
    q = P72.q
    rng = random.Random(7249)
    for _ in range(25):
        i = rng.randrange(1, q - 1)
        j = rng.randrange(1, q - 1)
        lhs = ga_multiply(s_operator(i, P72), s_operator(j, P72), P72)
        assert lhs == s_product_closed(i, j, P72), (i, j)


def test_contract_frozen_pair():
    # S+_4 S+_2 at q = 7: alpha = -1, beta = 7
    r = contract_splus((4, 2), P71)
    assert r.beta == (7,)
    assert r.alpha == (P71.pN - 1,)
    assert (r.v_beta, r.lead_beta) == (1, (1,))
    assert (r.v_alpha, r.lead_alpha) == (0, (6,))
    r2 = contract_splus((2, 4), P71)
    assert (r2.alpha, r2.beta) == (r.alpha, r.beta)


def test_contract_matches_formulas_all_k2_k3_q7():
    q = P71.q
    tuples = []
    for i in range(1, q - 1):
        j = (q - 1 - i) % (q - 1)
        if 0 < j < q - 1:
            tuples.append((i, j))
    for i in range(1, q - 1):
        for j in range(1, q - 1):
            if (i + j) % (q - 1) == 0:
                continue
            k = (-(i + j)) % (q - 1)
            if 0 < k < q - 1:
                tuples.append((i, j, k))
    assert tuples
    for tup in tuples:
        checks = _contract_checks(tup, contract_splus(tup, P71), P71)
        assert all(c["pass"] for c in checks), (tup, checks)


def test_contract_f2_sample():
    q = P72.q
    rng = random.Random(4242)
    done = 0
    while done < 8:
        i = rng.randrange(1, q - 1)
        j = rng.randrange(1, q - 1)
        if (i + j) % (q - 1) == 0:
            continue
        k = (-(i + j)) % (q - 1)
        if not 0 < k < q - 1:
            continue
        tup = (i, j, k)
        checks = _contract_checks(tup, contract_splus(tup, P72), P72)
        assert all(c["pass"] for c in checks), (tup, checks)
        done += 1


def test_contract_precondition_errors():
    with pytest.raises(ValueError):
        contract_splus((6,), P71)  # too short
    with pytest.raises(ValueError):
        contract_splus((6, 6), P71)  # index not strictly inside (0, q-1)
    with pytest.raises(ValueError):
        contract_splus((3, 3, 3, 3), P71)  # partial sum 6 divisible by q-1
    with pytest.raises(ValueError):
        contract_splus((1, 2), P71)  # total not divisible by q-1
    check_contract_pre((4, 2), P71)


def test_contract_escalates_precision():
    low = Params.make(7, 1, N=1)
    r = contract_splus((4, 2), low)
    assert r.params.N > 1
    assert (r.v_beta, r.lead_beta) == (1, (1,))


def _perturb(x, params):
    key = max(g for g in x if g[2] != 1)
    return {**x, key: witt_add(x[key], witt_one(params), params)}


def _drop(x, params):
    key = max(g for g in x if g[2] != 1)
    return {g: c for g, c in x.items() if g != key}


def _stray(x, params):
    return {**x, GL2_W: witt_one(params)}


@pytest.mark.parametrize("mutate", [_perturb, _drop, _stray])
def test_contract_rejects_a_product_off_its_shape(monkeypatch, mutate):
    # the product must be one alpha on every u-(lam), lam != 0, plus the
    # identity; one wrong, missing or stray coefficient breaks that
    real = group_algebra.u_convolve
    monkeypatch.setattr(
        group_algebra, "u_convolve", lambda x, y, params: mutate(real(x, y, params), params)
    )
    with pytest.raises(ArithmeticError):
        contract_splus((5, 43), P72)


def test_result_type_fields():
    r = contract_splus((4, 2), P71)
    assert isinstance(r, ContractionResult)
    assert r.params.p == 7


# ------------------------------------------------ the packed U- convolution

_KERNEL_FIELDS = {7: P71, 49: P72, 121: Params.make(11, 2), 343: Params.make(7, 3)}
# f = 3 is the first field whose inner field digits are folded recursively;
# its oracle products are slow, so q = 343 runs as explicit examples only
_qs = st.sampled_from([7, 49, 121])
# coefficients come from a seeded random.Random: hypothesis's own randoms
# favour small values, which would leave the slot widths untested
_seeds = st.integers(0, 2**32)


def _key(coset, lam):
    return (1, 0, lam, 1) if coset == "1" else (lam, 1, 1, 0)


def _sparse(rng, density, params):
    """Random coefficients, in canonical form, on a random part of U-."""
    out = {}
    for lam in range(params.q):
        if rng.random() < density:
            c = tuple(rng.randrange(params.pN) for _ in range(params.f))
            if any(c):
                out[_key("1", lam)] = c
    return out


def _kernel_product(coset, x, y, params):
    """x y by the kernel, for y on U- and x on cU-.  The kernel refuses an
    x on wU-; its product is w ((w x) y), as S_i S+_j = w (S+_i S+_j)."""
    if coset == "1":
        return u_convolve(x, y, params)
    with pytest.raises(ValueError):
        u_convolve(x, y, params)
    return ga_act_matrix(GL2_W, u_convolve(ga_act_matrix(GL2_W, x, params), y, params), params)


@settings(max_examples=40, deadline=None)
@given(_qs, st.sampled_from([0.02, 0.2, 1.0]), _seeds)
@example(343, 1.0, 343)
def test_u_convolve_matches_oracle_sparse(q, density, seed):
    params = _KERNEL_FIELDS[q]
    rng = random.Random(seed)
    x = _sparse(rng, density, params)
    y = _sparse(rng, density, params)
    assert u_convolve(x, y, params) == ga_multiply(x, y, params)


@settings(max_examples=25, deadline=None)
@given(_qs, st.booleans(), st.data())
def test_u_convolve_matches_oracle_augmented(q, left, data):
    # S+_0 carries the extra identity term (lambda = 0)
    params = _KERNEL_FIELDS[q]
    j = data.draw(st.integers(0, q - 1))
    x, y = s_operator(0, params), s_operator(j, params)
    if not left:
        x, y = y, x
    assert u_convolve(x, y, params) == ga_multiply(x, y, params)


@settings(max_examples=30, deadline=None)
@given(_qs, _seeds)
@example(343, 343)
@example(343, 7)
def test_u_convolve_drops_sums_that_cancel(q, seed):
    params = _KERNEL_FIELDS[q]
    rng = random.Random(seed)
    T = tables_for(params)
    lam, lam2, mu = (rng.randrange(q) for _ in range(3))
    if lam == lam2:
        lam2 = T.add[lam * q + 1]
    # (c u(lam) + c u(lam2)) (a u(mu) - a u(mu2)) with lam + mu2 = lam2 + mu:
    # the two middle terms cancel
    mu2 = T.add[T.add[lam2 * q + T.neg[lam]] * q + mu]
    c = tuple(rng.randrange(1, params.pN) for _ in range(params.f))
    a = (rng.randrange(1, params.p),) + (0,) * (params.f - 1)  # a unit
    x = {_key("1", lam): c, _key("1", lam2): c}
    y = {_key("1", mu): a, _key("1", mu2): witt_neg(a, params)}
    got = u_convolve(x, y, params)
    assert got == ga_multiply(x, y, params)
    assert _key("1", T.add[lam * q + mu2]) not in got
    assert len(got) == 2
    # coefficients whose valuations add up to N multiply to 0 mod p^N
    k = rng.randrange(params.N + 1)
    x = {_key("1", lam): (params.p**k % params.pN,) + (0,) * (params.f - 1)}
    y = {_key("1", mu): (params.p ** (params.N - k) % params.pN,) + (0,) * (params.f - 1)}
    assert u_convolve(x, y, params) == ga_multiply(x, y, params) == {}


@pytest.mark.parametrize("q", sorted(_KERNEL_FIELDS))
@pytest.mark.parametrize("coset", ["1", "w"])
def test_u_convolve_extreme_coefficients(q, coset):
    # every coefficient p^N - 1 on all of cU- and U-: each product slot
    # reaches the bound its width is sized for
    params = _KERNEL_FIELDS[q]
    top = (params.pN - 1,) * params.f
    x = {_key(coset, lam): top for lam in range(q)}
    y = {_key("1", lam): top for lam in range(q)}
    assert _kernel_product(coset, x, y, params) == ga_multiply(x, y, params)


@pytest.mark.parametrize("q", [7, 49, 343])
@pytest.mark.parametrize("coset", ["1", "w"])
def test_u_convolve_short_products(q, coset):
    # products on u-(0) and u-(1) only: the product's text is far shorter
    # than its slots, and every higher block is read as zeros
    params = _KERNEL_FIELDS[q]
    rng = random.Random(q)
    c, a = (tuple(rng.randrange(params.pN) for _ in range(params.f)) for _ in range(2))
    for lams, mus in (([0], [0]), ([0, 1], [1]), ([1], [0, 1])):
        x = {_key(coset, lam): c for lam in lams}
        y = {_key("1", mu): a for mu in mus}
        assert _kernel_product(coset, x, y, params) == ga_multiply(x, y, params)
    # an operand that is 0 mod p^N packs to the number 0
    x = {_key(coset, 0): (params.pN,) * params.f}
    assert _kernel_product(coset, x, {_key("1", 0): a}, params) == {}


def _pack_reference(x, width, params):
    """The packed operand slot by slot, padding included: code lam in cell
    sum d_i (2p-1)^i of its field digits d_i, and in slot k of that cell
    its t^k coefficient mod p^N, each slot `width` decimal digits."""
    p, f = params.p, params.f
    W, T = 2 * p - 1, 2 * f - 1
    slots = [0] * (W**f * T)
    for g, coeff in x.items():
        cell = sum(d * W**i for i, d in enumerate(digits(g[2], p, f)))
        for k, c in enumerate(coeff):
            slots[cell * T + k] = c % params.pN
    return decimal.Decimal("".join("%0*d" % (width, s) for s in reversed(slots)))


@pytest.mark.parametrize("p, f", [(7, 1), (7, 2), (7, 3), (11, 2)], ids=["q7", "q49", "q343", "q121"])
def test_pack_matches_padded_cells(p, f):
    params = Params.make(p, f)
    q, m = params.q, params.pN
    width = len(str(q * f * (m - 1) ** 2))
    rng = random.Random(q)
    dense = _sparse(rng, 1.0, params)
    operands = {
        "dense": dense,
        "without code 0": {g: c for g, c in dense.items() if g[2]},
        "top code only": {_key("1", q - 1): (m - 1,) * f},
        "outside [0, p^N)": {
            _key("1", lam): tuple(rng.randrange(-3 * m, 3 * m) for _ in range(f)) for lam in range(q)
        },
    }
    for name, x in operands.items():
        assert group_algebra._pack(x, width, params) == _pack_reference(x, width, params), name


# tracemalloc peak of one u_convolve of the dense operands below under an
# earlier slot-by-slot unpack, which peaked while the whole product was
# formatted as text.  The kernel now peaks inside libmpdec's multiply (about
# 641 000 B); the field-digit fold and the parse of the q (2f-1) folded
# slots after it must stay below this bound.
_U_CONVOLVE_PEAK_343 = 680791


def test_u_convolve_peak_memory_q343():
    params = _KERNEL_FIELDS[343]
    rng = random.Random(343)
    x, y = (_sparse(rng, 1.0, params) for _ in range(2))
    u_convolve(x, y, params)  # caches and tables built outside the trace
    tracemalloc.start()
    try:
        u_convolve(x, y, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _U_CONVOLVE_PEAK_343


def test_u_convolve_matches_closed_form_q2401():
    # f = 4 folds four field digits deep, past every field of _KERNEL_FIELDS;
    # the oracle is too slow here, so the closed form of S+_i S+_j stands in
    params = Params.make(7, 4, N=20)
    q = params.q
    rng = random.Random(2401)
    pairs = [(rng.randrange(1, q - 1), rng.randrange(1, q - 1)) for _ in range(2)]
    i = rng.randrange(1, q - 1)
    pairs.append((i, q - 1 - i))  # i + j = 0 mod q-1: S+_0 and q at the identity
    for i, j in pairs:
        got = u_convolve(s_operator(i, params), s_operator(j, params), params)
        assert got == s_product_closed(i, j, params), (i, j)


def test_u_convolve_empty_operands():
    assert u_convolve({}, s_operator(1, P72), P72) == {}
    assert u_convolve(s_operator(1, P72), {}, P72) == {}


def test_u_convolve_rejects_off_coset_operands():
    one = (1, 0)
    sp, s = s_operator(3, P72), s_by_oracle(3, P72)
    with pytest.raises(ValueError):
        u_convolve({(2, 0, 0, 1): one}, sp, P72)  # a torus element
    with pytest.raises(ValueError):
        u_convolve({**sp, GL2_W: one}, sp, P72)  # both cosets
    with pytest.raises(ValueError):
        u_convolve(s, sp, P72)  # left operand on wU-
    with pytest.raises(ValueError):
        u_convolve(sp, s, P72)  # right operand on wU-
    with pytest.raises(ValueError):
        u_convolve(sp, {GL2_ID: one, GL2_W: one}, P72)
    with pytest.raises(ValueError):
        u_convolve(sp, {(1, 2, 0, 1): one}, P72)  # upper unipotent


def _oracle_contraction(indices, params):
    prod = s_operator(indices[0], params)
    for i in indices[1:]:
        prod = ga_multiply(prod, s_operator(i, params), params)
    zero = (0,) * params.f
    alpha = prod.get((1, 0, 1, 1), zero)
    for lam in range(1, params.q):
        assert prod.get((1, 0, lam, 1), zero) == alpha
    assert set(prod) <= {(1, 0, lam, 1) for lam in range(params.q)}
    beta = witt_sub(prod.get(GL2_ID, zero), alpha, params)
    return alpha, beta


def test_contract_splus_matches_oracle_chain_q49():
    q = P72.q
    rng = random.Random(4949)
    done = 0
    while done < 6:
        k = 2 + done % 3
        idx = [rng.randrange(1, q - 1) for _ in range(k - 1)]
        idx.append((-sum(idx)) % (q - 1))
        try:
            check_contract_pre(tuple(idx), P72)
        except ValueError:
            continue
        res = contract_splus(idx, P72)
        assert (res.alpha, res.beta) == _oracle_contraction(idx, res.params), idx
        done += 1


@pytest.mark.parametrize("params", [P71, P72], ids=["q7", "q49"])
def test_scale_vector_matches_witt_mul(params):
    rng = random.Random(params.q)
    m, f = params.pN, params.f
    keys = rng.sample([(1, 0, lam, 1) for lam in range(params.q)] + [GL2_ID, GL2_W], 6)
    vec = {g: tuple(rng.randrange(m) for _ in range(f)) for g in keys}
    # times p, the first coordinate becomes 0 and is dropped
    vec[keys[0]] = witt_from_int(m // params.p, params)
    vec[keys[1]] = (m - 1,) * f
    for w in [tuple(rng.randrange(m) for _ in range(f)), witt_from_int(params.p, params)]:
        ref = {g: witt_mul(c, w, params) for g, c in vec.items()}
        got = scale_vector(vec, w, params)
        assert got == {g: c for g, c in ref.items() if any(c)}
        assert list(got) == [g for g in vec if g in got]
    assert keys[0] not in scale_vector(vec, witt_from_int(params.p, params), params)
    assert scale_vector(vec, witt_zero(params), params) == {}
    assert scale_vector({}, witt_one(params), params) == {}


def test_u_convolve_reads_coefficients_mod_pN():
    # ga_multiply reduces whatever it is given; the kernel agrees
    m = P72.pN
    x = {(1, 0, 3, 1): (m + 2, -1), GL2_ID: (-m, 5 * m + 4)}
    y = {(1, 0, 9, 1): (3 * m - 1, 7), (1, 0, 40, 1): (-8, m)}
    assert u_convolve(x, y, P72) == ga_multiply(x, y, P72)


# ------------------------------------------------ the packed GL2 oracle

def _ga_multiply_ref(x, y, params):
    """ga_multiply with one witt_mul and one witt_add per term pair: the
    reference for its packed sums, reduced once per key."""
    out = {}
    for g, cg in x.items():
        for h, ch in y.items():
            key = gl2_mul(g, h, params)
            w = witt_mul(cg, ch, params)
            prev = out.get(key)
            out[key] = witt_add(prev, w, params) if prev else w
    return {k: v for k, v in out.items() if any(v)}


_ORACLE_FIELDS = pytest.mark.parametrize("params", [P71, P72], ids=["q7", "q49"])


@_ORACLE_FIELDS
@pytest.mark.parametrize("seed", range(3))
def test_ga_multiply_matches_reference_dense(params, seed):
    rng = random.Random(seed)

    def coeff():
        return tuple(rng.randrange(params.pN) for _ in range(params.f))

    x = {random_gl2(rng, params): coeff() for _ in range(60)}
    y = {random_gl2(rng, params): coeff() for _ in range(60)}
    assert ga_multiply(x, y, params) == _ga_multiply_ref(x, y, params)
    # on U- times U- every key collects q pairs
    x = {(1, 0, lam, 1): coeff() for lam in range(params.q)}
    y = {(1, 0, lam, 1): coeff() for lam in range(params.q)}
    assert ga_multiply(x, y, params) == _ga_multiply_ref(x, y, params)


@_ORACLE_FIELDS
def test_ga_multiply_extreme_coefficients(params):
    # every coefficient p^N - 1 on all of U- on both sides: each key collects
    # min(|x|, |y|) = q pairs and t-degree f - 1 reaches the slot bound
    top = (params.pN - 1,) * params.f
    x = {(1, 0, lam, 1): top for lam in range(params.q)}
    assert ga_multiply(x, x, params) == _ga_multiply_ref(x, x, params)


@_ORACLE_FIELDS
def test_ga_multiply_reads_coefficients_mod_pN(params):
    rng = random.Random(params.q)
    m = params.pN

    def coeff():
        return tuple(rng.randrange(-3 * m, 3 * m) for _ in range(params.f))

    x = {random_gl2(rng, params): coeff() for _ in range(30)}
    x.update({(1, 0, lam, 1): coeff() for lam in range(params.q)})
    y = {(1, 0, lam, 1): coeff() for lam in range(params.q)}
    y[GL2_W] = (-1,) * params.f
    got = ga_multiply(x, y, params)
    assert got == _ga_multiply_ref(x, y, params)
    assert all(0 <= v < m for c in got.values() for v in c)
