import math
import pickle
import random
from itertools import repeat

import pytest
from hypothesis import given, settings, strategies as st

from wittcycle import padic
from wittcycle._tables import tables_for
from wittcycle.padic import (
    PRECISION_INF,
    Params,
    PrecisionError,
    _is_irreducible,
    escalate,
    raise_precision,
    teichmuller,
    valuation_and_unit,
    witt_add,
    witt_fold,
    witt_fold_columns,
    witt_from_int,
    witt_mul,
    witt_mul_columns,
    witt_one,
    witt_pow,
    witt_reduce,
    witt_sub,
)


def witt_inv(x, params):
    """Inverse of a unit, by lifting the residue inverse with Newton steps."""
    v, lead = valuation_and_unit(x, params)
    if v is PRECISION_INF or v > 0:
        raise ZeroDivisionError("not a unit in W(F_q)/p^N")
    y = witt_pow(lead, params.q - 2, params.residue)
    # Newton: y -> y(2 - xy) doubles correct digits each step.
    steps = max(1, math.ceil(math.log2(params.N))) + 1
    two = witt_from_int(2, params)
    for _ in range(steps):
        y = witt_mul(y, witt_sub(two, witt_mul(x, y, params), params), params)
    if witt_mul(x, y, params) != witt_one(params):
        raise ArithmeticError("unit inversion failed")
    return y


def test_params_defaults():
    P = Params.make(7, 2)
    assert P.q == 49
    assert P.N == 8
    assert P.modulus == (1, 0, 1)  # x^2 + 1, least lift, irreducible mod 7
    assert Params.make(7, 1).modulus == (0, 1)
    assert Params.make(11, 3).modulus == (4, 1, 0, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        Params.make(5, 1)  # p must exceed 5
    with pytest.raises(ValueError):
        Params.make(8, 1)
    with pytest.raises(ValueError):
        Params.make(7, 0)
    with pytest.raises(ValueError):
        Params.make(7, 2, modulus=(6, 0, 1))  # x^2 + 6 = (x-1)(x+1) mod 7


def test_params_refuses_non_monic_modulus():
    # 3x^2 + 1 is not monic; it must not be read as x^2 + 1
    with pytest.raises(ValueError, match="monic"):
        Params.make(7, 2, modulus=(1, 0, 3))
    assert Params.make(7, 2, modulus=(8, -7, 15)).modulus == (1, 0, 1)


def test_params_refuses_large_q_first(monkeypatch):
    def no_prime_test(n):
        raise AssertionError("the q guard must run before the primality test")

    monkeypatch.setattr(padic, "MAX_Q", 100)
    monkeypatch.setattr(padic, "_is_prime", no_prime_test)
    for p, f in [(11, 2), (7, 3), (101, 1), (7, 10**12), (10**40 + 1, 1)]:
        with pytest.raises(ValueError, match="at most 100"):
            Params.make(p, f)
    monkeypatch.undo()
    monkeypatch.setattr(padic, "MAX_Q", 100)
    assert Params.make(7, 2).q == 49


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("f", [2, 3, 4, 6])
def test_irreducible_count_matches_necklace_formula(f):
    # monic irreducibles of degree f over F_p: (1/f) sum_{d | f} mu(d) p^(f/d);
    # at f = 6 the unit test runs for two primes, 2 and 3
    p, count = {2: (7, 21), 3: (7, 112), 4: (7, 588), 6: (3, 116)}[f]
    found = sum(_is_irreducible(list(padic.digits(n, p, f)) + [1], p, f) for n in range(p**f))
    want = sum(_mobius(d) * p ** (f // d) for d in range(1, f + 1) if f % d == 0) // f
    assert found == want == count


def test_irreducible_unit_test_rejects_split_modulus():
    # m = x (x^2 + 1)(x^3 + 2x + 1) over F_3: F_3[x]/(m) = F_3 x F_9 x F_27,
    # so x^(3^6) = x but neither x^(3^3) - x nor x^(3^2) - x is a unit there
    m = [0, 1, 2, 1, 0, 0, 1]
    ring = Params(3, 6, 1, tuple(m))
    x = (0, 1, 0, 0, 0, 0)
    assert witt_pow(x, 3**6, ring) == x
    assert witt_pow(x, 3**3, ring) != x and witt_pow(x, 3**2, ring) != x
    assert not _is_irreducible(m, 3, 6)


def test_modulus_is_certified_irreducible():
    # degree 2 and 3 are irreducible over F_p iff they have no root in F_p
    for p, f in [(7, 2), (7, 3), (11, 2), (11, 3)]:
        P = Params.make(p, f)
        for a in range(p):
            value = 0
            for c in reversed(P.modulus):
                value = (value * a + c) % p
            assert value != 0


def test_teichmuller_frozen_value():
    P = Params.make(7, 1, N=2)
    assert teichmuller((3,), P) == (31,)  # 3^7 = 2187 = 31 mod 49, fixed point


def test_teichmuller_fixed_point_and_multiplicative():
    for p, f in [(7, 1), (7, 2), (11, 2)]:
        P = Params.make(p, f)
        els = tables_for(P).elems
        for a in els[: min(len(els), 30)]:
            t = teichmuller(a, P)
            assert witt_pow(t, P.q, P) == t
            assert witt_reduce(t, P) == a
        for a, b in [(els[3], els[5]), (els[1], els[-1]), (els[-2], els[7 % len(els)])]:
            assert witt_mul(teichmuller(a, P), teichmuller(b, P), P) == teichmuller(
                witt_mul(a, b, P.residue), P
            )


def test_teichmuller_of_unity_roots():
    # [x]^(q-1) = 1 for every unit
    P = Params.make(7, 2, N=5)
    for a in tables_for(P).elems:
        if any(a):
            assert witt_pow(teichmuller(a, P), P.q - 1, P) == witt_one(P)


def test_valuation_frozen_value():
    P = Params.make(7, 1, N=3)
    x = witt_mul(witt_from_int(49, P), teichmuller((3,), P), P)
    assert valuation_and_unit(x, P) == (2, (3,))


def test_valuation_of_zero_is_infinite():
    P = Params.make(7, 2, N=4)
    v, lead = valuation_and_unit((0, 0), P)
    assert v is PRECISION_INF and lead is None
    v, lead = valuation_and_unit(witt_from_int(7**4, P), P)
    assert v is PRECISION_INF
    assert math.isinf(v)


def test_valuation_additive_on_products():
    P = Params.make(7, 2, N=8)
    els = tables_for(P).elems
    x = witt_mul(witt_from_int(7, P), teichmuller(els[5], P), P)
    y = witt_mul(witt_from_int(49, P), teichmuller(els[9], P), P)
    v, lead = valuation_and_unit(witt_mul(x, y, P), P)
    assert v == 3
    assert lead == witt_mul(els[5], els[9], P.residue)


def test_unit_part_and_exact_division():
    # 98 = 7^2 * 2: its unit part 2 lives at precision N - 2, and 14 / 7 is
    # the unit 2 times the inverse of the unit 1 at precision N - 1
    P = Params.make(7, 1, N=4)
    assert valuation_and_unit(witt_from_int(2 * 49, P), P) == (2, (2,))
    sub = P.with_precision(P.N - 1)
    assert witt_mul(witt_from_int(14 // 7, sub), witt_inv(witt_one(sub), sub), sub) == (2,)
    x = witt_inv(witt_from_int(3, P), P)
    assert witt_mul(x, witt_from_int(3, P), P) == witt_one(P)


def test_precision_escalation_helper():
    P = Params.make(7, 2)
    P2 = raise_precision(P)
    assert P2.N > P.N and P2.modulus == P.modulus
    assert P2.q == P.q


def test_escalate_returns_first_resolved_attempt():
    P = Params.make(7, 2, N=1)
    seen = []

    def attempt(work):
        seen.append(work)
        return (work.N, "done") if len(seen) == 3 else None

    assert escalate(attempt, P, "test value") == (seen[-1].N, "done")
    assert len(seen) == 3 and seen[0] == P
    assert all(a.N < b.N and a.modulus == b.modulus for a, b in zip(seen, seen[1:]))


def test_escalate_gives_up_after_its_budget():
    seen = []

    def attempt(work):
        seen.append(work.N)
        return None

    with pytest.raises(PrecisionError, match="test value unresolved after escalation"):
        escalate(attempt, Params.make(7, 1, N=1), "test value")
    assert len(seen) == padic.MAX_ESCALATIONS
    assert seen == sorted(set(seen))


# f = 1 reference: W(F_p)/p^N is literally Z/p^N, so plain integers are an
# independent oracle for the ring operations.

_P71 = Params.make(7, 1, N=6)
_ints = st.integers(min_value=0, max_value=_P71.pN - 1)


@settings(max_examples=300, deadline=None)
@given(_ints, _ints, _ints)
def test_ring_ops_match_integer_oracle(a, b, c):
    m = _P71.pN
    xa, xb, xc = (a,), (b,), (c,)
    assert witt_add(xa, xb, _P71) == ((a + b) % m,)
    assert witt_sub(xa, xb, _P71) == ((a - b) % m,)
    assert witt_mul(xa, xb, _P71) == ((a * b) % m,)
    assert witt_mul(xa, witt_add(xb, xc, _P71), _P71) == (
        (a * (b + c)) % m,
    )


_P72 = Params.make(7, 2, N=5)
_coef = st.integers(min_value=0, max_value=_P72.pN - 1)
_welt = st.tuples(_coef, _coef)


@settings(max_examples=200, deadline=None)
@given(_welt, _welt, _welt)
def test_ring_axioms_f2(x, y, z):
    P = _P72
    assert witt_add(x, y, P) == witt_add(y, x, P)
    assert witt_mul(x, y, P) == witt_mul(y, x, P)
    assert witt_mul(x, witt_mul(y, z, P), P) == witt_mul(witt_mul(x, y, P), z, P)
    lhs = witt_mul(x, witt_add(y, z, P), P)
    rhs = witt_add(witt_mul(x, y, P), witt_mul(x, z, P), P)
    assert lhs == rhs
    assert witt_mul(x, witt_one(P), P) == x


def test_fq_field_axioms_small():
    # F_q is the Witt ring at N = 1
    P = Params.make(7, 2)
    R = P.residue
    els = tables_for(P).elems
    one = witt_one(R)
    for a in els:
        if any(a):
            assert witt_mul(a, witt_inv(a, R), R) == one
            assert witt_pow(a, P.q - 1, R) == one
    # Frobenius is additive: (a+b)^p = a^p + b^p
    for a, b in [(els[3], els[11]), (els[20], els[45])]:
        assert witt_pow(witt_add(a, b, R), P.p, R) == witt_add(
            witt_pow(a, P.p, R), witt_pow(b, P.p, R), R
        )


def test_params_cached_pN_keeps_identity():
    a = Params.make(7, 2)
    b = Params.make(7, 2)
    h = hash(a)
    assert a.pN == 7**8 and "pN" in vars(a)
    assert a == b and hash(a) == hash(b) == h
    assert repr(a) == repr(b)
    c = pickle.loads(pickle.dumps(a))
    assert c == a and hash(c) == h and c.pN == a.pN
    d = pickle.loads(pickle.dumps(b))  # pickled before pN was read
    assert d == a and hash(d) == h and d.pN == a.pN
    r = a.residue
    assert r is a.residue and "residue" in vars(a)
    assert r == Params(7, 2, 1, a.modulus) and r.pN == 7
    assert a == b and hash(a) == h and repr(a) == repr(b)
    e = pickle.loads(pickle.dumps(a))  # pickled with residue cached
    assert e == b and hash(e) == h and e.residue == r
    higher = a.with_precision(10)
    assert higher.pN == 7**10 and raise_precision(a).pN == 7 ** (8 + 4)
    assert higher != a


# The column product against witt_mul, position by position

_COLUMN_FIELDS = {f: Params.make(7, f) for f in (1, 2, 3, 4)}


def _columns(xs, params):
    return list(zip(*xs)) or [()] * params.f


@pytest.mark.parametrize("f", sorted(_COLUMN_FIELDS))
def test_witt_mul_columns_matches_witt_mul(f):
    P = _COLUMN_FIELDS[f]
    rng = random.Random(f)
    top, zero = (P.pN - 1,) * f, (0,) * f

    def elt():
        return tuple(rng.randrange(P.pN) for _ in range(f))

    for n in (0, 1, 2, 40):
        xs = [elt() for _ in range(n)]
        ys = [elt() for _ in range(n)]
        if n > 1:
            xs[0], ys[0], xs[1] = top, top, zero
        got = list(witt_mul_columns(_columns(xs, P), _columns(ys, P), P))
        assert got == [witt_mul(x, y, P) for x, y in zip(xs, ys)], n
        # a scalar operand, as repeated columns
        for w in (elt(), top, zero):
            got = list(witt_mul_columns(_columns(xs, P), [repeat(c) for c in w], P))
            assert got == [witt_mul(x, w, P) for x in xs], (n, w)


@pytest.mark.parametrize("f", sorted(_COLUMN_FIELDS))
def test_witt_fold_columns_matches_witt_fold(f):
    # integer polynomials of t-degree 2f-2, negative coefficients included
    P = _COLUMN_FIELDS[f]
    rng = random.Random(10 + f)
    bound = P.pN**2 * f
    polys = [[rng.randrange(-bound, bound) for _ in range(2 * f - 1)] for _ in range(30)]
    polys.append([P.pN**2] * (2 * f - 1))
    got = list(witt_fold_columns([list(col) for col in zip(*polys)], P))
    assert got == [witt_fold(list(c), P) for c in polys]
