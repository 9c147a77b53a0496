"""Jacobi sums over F_q with exact p-adic valuation and leading-digit data.

jacobi_sum evaluates sum over alpha in F_q of [alpha]^a [1-alpha]^b in
W(F_q)/p^N by honest Teichmuller summation.  Exponents are literal integers
in [0, q-1] and are never reduced silently: the 'standard' convention reads
[0]^0 = 1 (so the alpha = 0 term contributes exactly when a = 0, and the
alpha = 1 term exactly when b = 0), while 'J0' reads [0]^0 = 0 and drops
both boundary terms, making the result depend on a, b mod q-1 only.

The sum is indexed by Zech logarithms: alpha = g^k runs over k in [1, q-2],
1 - alpha = g^zech[k], so each term is the Teichmuller power
[g]^((a k + b zech[k]) mod (q-1)).  The q-2 terms are still added one by
one, as integers packed in t (padic.witt_pack) with one slot per Witt
component, each slot wide enough for (q-2)(p^N-1) so that no slot carries
into the next.

The q-2 exponents come from one pass over big integers.  Once per field,
k and zech[k] are packed into the 64-bit lanes of two integers K and Z;
a call forms E = a K + b Z, whose lanes e stay below 2 m^2 with m = q-1,
and reduces every lane mod m at once by multiply-shift division by the
invariant m: floor(e/m) = (e c) >> S with S = bit_length(2 m^3) and
c = ceil(2^S / m).  Writing c m = 2^S + d with 0 <= d < m, the error term
e d / (m 2^S) stays below 1/m because e d < 2 m^3 < 2^S, so the floor is
exact for every e < 2 m^2; and e c < 2^50 at q = 4096, so no lane product
carries into the next lane.

stickelberger_data predicts the valuation and the leading digit of the sum
from base-p digit counting, without summing anything; the two routes are
checked against each other in the tests.
"""

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

from wittcycle import _tables
from wittcycle.padic import digits, witt_add, witt_one, witt_pack, witt_unpack


@lru_cache(maxsize=None)
def _packed_powers(params):
    """[g]^k for k in [0, q-2], each packed into one integer with a slot of
    `width` bits per Witt component; and width."""
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    width = ((params.q - 2) * (params.pN - 1)).bit_length()
    packed = [witt_pack(teich[code], width, params) for code in T.exp]
    return packed, width


def _pack_lanes(values):
    """Nonnegative values below 2^64 as one integer, one 64-bit lane each,
    the first value in the lowest lane."""
    lanes = array("Q", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


def _unpack_lanes(x, n):
    """The n lowest 64-bit lanes of x, lowest first."""
    lanes = array("Q")
    lanes.frombytes(x.to_bytes(8 * n, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes


@lru_cache(maxsize=None)
def _lane_divisor(m, n):
    """Shift S, multiplier c = ceil(2^S / m) and the mask of bits [S, 64) of
    n lanes, for reducing lanes below 2 m^2 mod m."""
    shift = (2 * m**3).bit_length()
    return shift, -(-(1 << shift) // m), _pack_lanes([((1 << 64) - 1) >> shift << shift] * n)


def _lanes_mod(x, m, n):
    """x with each of its n lanes, all below 2 m^2, reduced mod m."""
    shift, c, high = _lane_divisor(m, n)
    return x - m * (((x * c) & high) >> shift)


@lru_cache(maxsize=None)
def _exponent_lanes(p, f, modulus):
    """k and zech[k] for k in [1, q-2], packed into lanes: K and Z."""
    zech = _tables.field_tables(p, f, modulus).zech
    return _pack_lanes(range(1, len(zech))), _pack_lanes(zech[1:])


def jacobi_sum(a, b, zero_convention, params):
    """The Jacobi sum with exponent pair (a, b), as a Witt tuple."""
    if zero_convention not in ("standard", "J0"):
        raise ValueError("zero_convention must be 'standard' or 'J0'")
    q = params.q
    a = int(a)
    b = int(b)
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise ValueError("exponents must be literal integers in [0, q-1]")
    packed, width = _packed_powers(params)
    K, Z = _exponent_lanes(params.p, params.f, params.modulus)
    # alpha = g^k over k in [1, q-2] skips the boundary elements 0 and 1;
    # lane k-1 of the reduced sum is the exponent of the term at g^k
    exponents = _unpack_lanes(_lanes_mod(a * K + b * Z, q - 1, q - 2), q - 2)
    acc = sum(map(packed.__getitem__, exponents))
    out = witt_unpack(acc, width, params.f - 1, params)
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
