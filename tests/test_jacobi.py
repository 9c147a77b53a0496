import random

import pytest

from wittcycle import jacobi
from wittcycle._tables import MAX_TABLE_Q, tables_for, teich_by_code
from wittcycle.jacobi import (
    _exponent_lanes,
    _lane_divisor,
    _lane_table,
    _lanes_mod,
    _pack_lanes,
    _packed_powers,
    _unpack_lanes,
    factorial_mod_p,
    jacobi_sum,
    stickelberger_data,
)
from wittcycle.padic import (
    Params,
    valuation_and_unit,
    witt_add,
    witt_neg,
    witt_one,
)

P71 = Params.make(7, 1, N=4)
P72 = Params.make(7, 2)


def test_frozen_J0_2_3():
    # direct mod-7 summation of alpha^2 (1-alpha)^3 over alpha = 2..6 gives
    # residues 3+5+2+3+1 = 14 = 0 mod 7, so v >= 1; digit counting gives
    # u = 1 and unit -12/120 = 2 mod 7
    J = jacobi_sum(2, 3, "J0", P71)
    assert valuation_and_unit(J, P71) == (1, (2,))
    assert stickelberger_data(2, 3, P71) == (1, 2)


def test_frozen_stickelberger_f2():
    # a = b = 1: digits (1,0) + (1,0) = (2,0), no wrap, two full carries of
    # p-1 each, unit = -(1/2) = 3 mod 7
    assert stickelberger_data(1, 1, P72) == (2, 3)
    v, lead = valuation_and_unit(jacobi_sum(1, 1, "J0", P72), P72)
    assert v == 2 and lead == (3, 0)


def test_boundary_identity_f1():
    # J(a, q-1-a) = (-1)^(a+1) exactly
    one = witt_one(P71)
    for a in range(1, 6):
        J = jacobi_sum(a, 6 - a, "standard", P71)
        assert J == (one if (a + 1) % 2 == 0 else witt_neg(one, P71))


def test_boundary_identity_f2():
    one = witt_one(P72)
    for a in range(1, 48, 5):
        J = jacobi_sum(a, 48 - a, "standard", P72)
        assert J == (one if (a + 1) % 2 == 0 else witt_neg(one, P72))


def test_conventions_differ_only_at_boundary():
    for a, b in [(0, 3), (3, 0), (0, 0), (2, 3)]:
        std = jacobi_sum(a, b, "standard", P71)
        j0 = jacobi_sum(a, b, "J0", P71)
        boundary = (1 if a == 0 else 0) + (1 if b == 0 else 0)
        diff = (std[0] - j0[0]) % P71.pN
        assert diff == boundary % P71.pN


def test_J0_is_periodic_standard_is_not():
    assert jacobi_sum(0, 3, "J0", P71) == jacobi_sum(6, 3, "J0", P71)
    assert jacobi_sum(0, 3, "standard", P71) != jacobi_sum(6, 3, "standard", P71)
    assert jacobi_sum(0, 0, "J0", P72) == jacobi_sum(48, 48, "J0", P72)


def test_literal_exponents_enforced():
    with pytest.raises(ValueError):
        jacobi_sum(7, 3, "J0", P71)
    with pytest.raises(ValueError):
        jacobi_sum(-1, 3, "J0", P71)
    with pytest.raises(ValueError):
        jacobi_sum(2, 3, "j0", P71)


def test_stickelberger_preconditions():
    with pytest.raises(ValueError):
        stickelberger_data(0, 3, P71)
    with pytest.raises(ValueError):
        stickelberger_data(2, 4, P71)  # a + b = q - 1
    with pytest.raises(ValueError):
        stickelberger_data(2, 6, P71)


def test_exhaustive_prediction_f1():
    for a in range(1, 6):
        for b in range(1, 6):
            if a + b == 6:
                continue
            u, unit = stickelberger_data(a, b, P71)
            v, lead = valuation_and_unit(jacobi_sum(a, b, "J0", P71), P71)
            assert v == u
            assert lead == (unit,)


def test_prediction_sample_f2():
    cases = [(1, 2), (5, 9), (10, 40), (30, 30), (47, 46), (8, 41), (13, 34)]
    for a, b in cases:
        if a + b == 48 or (a + b) % 48 == 0:
            continue
        u, unit = stickelberger_data(a, b, P72)
        v, lead = valuation_and_unit(jacobi_sum(a, b, "J0", P72), P72)
        assert v == u
        assert lead == (unit, 0)


def test_prediction_sample_p11():
    P = Params.make(11, 2)
    for a, b in [(1, 1), (7, 30), (60, 75), (100, 110), (13, 107)]:
        if (a + b) % 120 == 0 or a + b == 120:
            continue
        u, unit = stickelberger_data(a, b, P)
        v, lead = valuation_and_unit(jacobi_sum(a, b, "J0", P), P)
        assert v == u
        assert lead == (unit, 0)


def test_symmetry_in_a_b():
    # the sum is symmetric under swapping the exponents (alpha -> 1 - alpha)
    for a, b in [(2, 3), (1, 4), (3, 5)]:
        assert jacobi_sum(a, b, "standard", P71) == jacobi_sum(b, a, "standard", P71)


def test_factorial_helper_pairing():
    # x! (p-1-x)! = (-1)^(x+1) mod p for 0 <= x <= p-2
    for p in (7, 11, 13):
        for x in range(p - 1):
            prod = (factorial_mod_p(x, p) * factorial_mod_p(p - 1 - x, p)) % p
            assert prod == (-1) ** (x + 1) % p


def _oracle_accumulator(a, b, params):
    """Sum over alpha != 0, 1 of [alpha]^a [1-alpha]^b, componentwise and
    unreduced, through pow_code and the q x q mul and add tables."""
    T = tables_for(params)
    teich = teich_by_code(params)
    q = params.q
    mul, add, neg = T.mul, T.add, T.neg
    acc = [0] * params.f
    for alpha in range(2, q):
        pa = T.pow_code(alpha, a)
        pb = T.pow_code(add[q + neg[alpha]], b)  # 1 - alpha
        t = teich[mul[pa * q + pb]]
        for i in range(params.f):
            acc[i] += t[i]
    return acc


def _oracle_jacobi(a, b, zero_convention, params, accumulator=_oracle_accumulator):
    out = tuple(c % params.pN for c in accumulator(a, b, params))
    if zero_convention == "standard":
        for e in (a, b):
            if e == 0:
                out = witt_add(out, witt_one(params), params)
    return out


def _check_pairs(pairs, conventions, params):
    for a, b in pairs:
        for conv in conventions:
            assert jacobi_sum(a, b, conv, params) == _oracle_jacobi(a, b, conv, params), (a, b, conv)


def test_zech_sum_matches_table_oracle_q7():
    pairs = [(a, b) for a in range(7) for b in range(7)]
    _check_pairs(pairs, ("standard", "J0"), P71)


def test_zech_sum_matches_table_oracle_q49():
    pairs = [(a, b) for a in range(49) for b in range(49)]
    _check_pairs(pairs, ("J0",), P72)


def test_zech_sum_matches_table_oracle_q121():
    P = Params.make(11, 2)
    q = P.q
    rng = random.Random(121)
    edge = (0, 1, q - 2, q - 1)
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(150)]
    pairs += [(a, rng.randrange(q)) for a in edge] + [(rng.randrange(q), b) for b in edge]
    _check_pairs(pairs, ("standard", "J0"), P)


def test_zech_sum_matches_table_oracle_at_slot_bound():
    # at N = 40 a term is a 113-bit Teichmuller lift; the packed slot is as
    # wide as (q-2)(p^N-1) needs, and some sum fills its top bit
    P = Params.make(7, 1, N=40)
    pairs = [(a, b) for a in range(7) for b in range(7)]
    _check_pairs(pairs, ("standard", "J0"), P)
    width = ((P.q - 2) * (P.pN - 1)).bit_length()
    top = max(_oracle_accumulator(a, b, P)[0] for a, b in pairs)
    assert top.bit_length() == width


def _reference_accumulator(a, b, params):
    """The Zech-indexed sum with one Python expression per exponent, the
    reference for jacobi_sum's lane pass; componentwise and unreduced."""
    m = params.q - 1
    zech = tables_for(params).zech
    packed, width = _packed_powers(params)
    acc = sum([packed[(a * k + b * z) % m] for k, z in zip(range(1, m), zech[1:])])
    return [(acc >> (i * width)) & ((1 << width) - 1) for i in range(params.f)]


@pytest.mark.parametrize("p, f", [(11, 3), (7, 4)], ids=["q1331", "q2401"])
def test_lane_pass_matches_reference_sum(p, f):
    P = Params.make(p, f)
    q = P.q
    rng = random.Random(q)
    edge = (0, 1, q - 2, q - 1)
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(a, rng.randrange(q)) for a in edge] + [(rng.randrange(q), b) for b in edge]
    pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(60)]
    for a, b in pairs:
        for conv in ("standard", "J0"):
            want = _oracle_jacobi(a, b, conv, P, _reference_accumulator)
            assert jacobi_sum(a, b, conv, P) == want, (a, b, conv)


def _check_lanes_mod(values, m):
    n = len(values)
    got = _unpack_lanes(_lanes_mod(_pack_lanes(values), m, n), n)
    assert list(got) == [e % m for e in values], m


@pytest.mark.parametrize("q", [7, 49])
def test_lanes_mod_exhaustive(q):
    m = q - 1
    _check_lanes_mod(range(2 * m * m), m)


def test_lanes_mod_boundaries():
    # every m = q - 1 up to the largest field with tables, prime power or not
    for m in range(1, MAX_TABLE_Q):
        ks = (1, 2, m - 1, m, m + 1, 2 * m - 1)
        values = [0, m - 1, m, 2 * m * m - 1]
        values += [e for k in ks for e in (k * m - 1, k * m) if 0 <= e < 2 * m * m]
        _check_lanes_mod(values, m)


def test_lane_products_fit_at_largest_field():
    m = MAX_TABLE_Q - 1
    shift, c, _ = _lane_divisor(m, 1)
    assert (2 * m * m - 1) * c < 1 << 64
    # the floor (e c) >> shift is exact below 2 m^2: c m - 2^shift < m and
    # 2 m^3 < 2^shift
    assert 0 <= c * m - (1 << shift) < m and 2 * m**3 < 1 << shift


# Frobenius fixes J(a, b): sigma(J) = sum of [alpha^p]^a [1 - alpha^p]^b = J,
# since alpha -> alpha^p permutes F_q.  So J lies in Z_p = W(F_p), and every
# t-coefficient above degree 0 is 0; the digit counting plays no part.

_ZP_FIELDS = [(7, 2), (7, 3), (11, 2), (13, 2)]


def _sampled_pairs(params, n, seed):
    rng = random.Random(seed)
    q = params.q
    return [(0, 0), (0, 3), (q - 1, 1)] + [
        (rng.randrange(q), rng.randrange(q)) for _ in range(n)
    ]


@pytest.mark.parametrize("p, f", _ZP_FIELDS, ids=["%d-%d" % pf for pf in _ZP_FIELDS])
@pytest.mark.parametrize("convention", ["standard", "J0"])
def test_jacobi_sums_lie_in_zp(p, f, convention):
    params = Params.make(p, f)
    for a, b in _sampled_pairs(params, 60, p * f):
        J = jacobi_sum(a, b, convention, params)
        assert not any(J[1:]), (a, b)


def test_zp_check_catches_a_perturbed_teichmuller_entry(monkeypatch):
    # [g]^5 off by t at q = 49: every sum with a term [g]^5 leaves Z_p; the
    # lane table is rebuilt from the perturbed powers, so the orbit sums
    # that hold [g]^5 carry the error too
    packed, width = _packed_powers(P72)
    bad = list(packed)
    bad[5] += 1 << width
    monkeypatch.setattr(jacobi, "_packed_powers", lambda params: (bad, width))
    table = _lane_table.__wrapped__(P72)
    monkeypatch.setattr(jacobi, "_lane_table", lambda params: table)
    pairs = _sampled_pairs(P72, 100, 49)
    broken = [ab for ab in pairs if any(jacobi_sum(*ab, "J0", P72)[1:])]
    assert len(broken) >= 10


def _lanes(params):
    """(k, zech lane, offset) for every lane of _exponent_lanes."""
    K, Z, O, n = _exponent_lanes(params.p, params.f, params.modulus)
    return list(zip(*(_unpack_lanes(x, n) for x in (K, Z, O))))


@pytest.mark.parametrize("p, f", [(7, 1), (7, 2), (11, 3), (7, 4)], ids=["q7", "q49", "q1331", "q2401"])
def test_orbit_lanes_partition_the_exponents(p, f):
    # the full Frobenius orbits of the representatives and the elements of
    # the proper subfields cover alpha = g^k, k in [1, q-2], once each
    P = Params.make(p, f)
    m = P.q - 1
    zech = tables_for(P).zech
    covered = []
    for k, z, offset in _lanes(P):
        assert z == zech[k]
        orbit = {k * p**j % m for j in range(f)}
        if offset == 0:
            assert len(orbit) == f and k == min(orbit), k
            covered += orbit
        else:
            assert offset == m and len(orbit) < f, k
            covered.append(k)
    assert sorted(covered) == list(range(1, m))
    subfield = [k for k, _, offset in _lanes(P) if offset]
    # besides 0 and 1: F_7 holds 5 elements, F_11 9, and F_49 47 (F_7's among them)
    assert len(subfield) == {(7, 1): 0, (7, 2): 5, (11, 3): 9, (7, 4): 47}[p, f]


def test_dropped_orbit_representative_disagrees_with_oracle(monkeypatch):
    # a pass that skips the orbit of alpha = g misses [g]^e + [g]^(7e) with
    # e = a + b zech[1]; that sum is 0 exactly when (g^e)^6 = -1, that is
    # when e = 4 mod 8, so every other pair must come out wrong
    K, Z, O, n = _exponent_lanes(P72.p, P72.f, P72.modulus)
    assert (K & ((1 << 64) - 1), O & ((1 << 64) - 1)) == (1, 0)
    monkeypatch.setattr(jacobi, "_exponent_lanes", lambda *key: (K >> 64, Z >> 64, O >> 64, n - 1))
    z1 = tables_for(P72).zech[1]
    pairs = _sampled_pairs(P72, 100, 49)
    wrong = [ab for ab in pairs if jacobi_sum(*ab, "J0", P72) != _oracle_jacobi(*ab, "J0", P72)]
    assert wrong == [(a, b) for a, b in pairs if (a + b * z1) % 8 != 4]
    assert len(wrong) >= 75
