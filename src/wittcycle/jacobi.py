"""Jacobi sums over F_q with exact p-adic valuation and leading-digit data.

jacobi_sum evaluates sum over alpha in F_q of [alpha]^a [1-alpha]^b in
W(F_q)/p^N by honest Teichmuller summation.  Exponents are literal integers
in [0, q-1] and are never reduced silently: the 'standard' convention reads
[0]^0 = 1 (so the alpha = 0 term contributes exactly when a = 0, and the
alpha = 1 term exactly when b = 0), while 'J0' reads [0]^0 = 0 and drops
both boundary terms, making the result depend on a, b mod q-1 only.

stickelberger_data predicts the valuation and the leading digit of the sum
from base-p digit counting, without summing anything; the two routes are
checked against each other in the tests.
"""

from dataclasses import dataclass

from wittcycle import _tables
from wittcycle.padic import digits, witt_one, witt_add


def jacobi_sum(a, b, zero_convention, params):
    """The Jacobi sum with exponent pair (a, b), as a Witt tuple."""
    if zero_convention not in ("standard", "J0"):
        raise ValueError("zero_convention must be 'standard' or 'J0'")
    q = params.q
    a = int(a)
    b = int(b)
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise ValueError("exponents must be literal integers in [0, q-1]")
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    m = params.pN
    f = params.f
    mul, add, neg = T.mul, T.add, T.neg
    acc = [0] * f
    for alpha in range(2, q):  # codes 0 and 1 are the boundary elements
        pa = T.pow_code(alpha, a)
        pb = T.pow_code(add[q + neg[alpha]], b)  # 1 - alpha
        t = teich[mul[pa * q + pb]]
        for i in range(f):
            acc[i] += t[i]
    out = tuple(c % m for c in acc)
    if zero_convention == "standard":
        if a == 0:
            out = witt_add(out, witt_one(params), params)
        if b == 0:
            out = witt_add(out, witt_one(params), params)
    return out


@dataclass(frozen=True)
class StickelbergerData:
    """Digit data for a Jacobi sum and the unit it predicts.

    u is the p-adic valuation; unit is the leading digit as an integer mod p
    (the leading digit always lies in the prime field).  wrapped records
    whether a + b exceeded q - 1 before taking digits.
    """

    a: int
    b: int
    a_digits: tuple
    b_digits: tuple
    sum_digits: tuple
    wrapped: bool
    u: int
    unit: int


def stickelberger_data(a, b, params):
    """Valuation and leading digit of the Jacobi sum from digit counting.

    Requires 0 < a, b < q-1 and a + b != q-1; those edge cases have their
    own closed forms and are rejected here.
    """
    p, f, q = params.p, params.f, params.q
    a = int(a)
    b = int(b)
    if not (0 < a < q - 1 and 0 < b < q - 1):
        raise ValueError("need 0 < a, b < q-1")
    if a + b == q - 1:
        raise ValueError("a + b = q-1 is the boundary case, not handled here")
    s = a + b
    wrapped = s > q - 1
    if wrapped:
        s -= q - 1
    ad = digits(a, p, f)
    bd = digits(b, p, f)
    sd = digits(s, p, f)
    total = sum(p - 1 - (ad[j] + bd[j] - sd[j]) for j in range(f))
    if total % (p - 1):
        raise ArithmeticError("digit count is not divisible by p-1")
    u = total // (p - 1)
    num = 1
    for j in range(f):
        num = (num * factorial_mod_p(ad[j], p) * factorial_mod_p(bd[j], p)) % p
    den = 1
    for j in range(f):
        den = (den * factorial_mod_p(sd[j], p)) % p
    unit = (num * pow(den, p - 2, p)) % p
    if (f - 1 + u) % 2:
        unit = (-unit) % p
    return StickelbergerData(a, b, ad, bd, sd, wrapped, u, unit)


def factorial_mod_p(n, p):
    """n! mod p for digit-sized n; used by the leading-term formulas."""
    out = 1
    for k in range(2, n + 1):
        out = (out * k) % p
    return out
