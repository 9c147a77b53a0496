"""Jacobi sums over F_q with exact p-adic valuation and leading-digit data.

jacobi_sum evaluates sum over alpha in F_q of [alpha]^a [1-alpha]^b in
W(F_q)/p^N by honest Teichmuller summation.  Exponents are literal integers
in [0, q-1] and are never reduced silently: the 'standard' convention reads
[0]^0 = 1 (so the alpha = 0 term contributes exactly when a = 0, and the
alpha = 1 term exactly when b = 0), while 'J0' reads [0]^0 = 0 and drops
both boundary terms, making the result depend on a, b mod q-1 only.

The sum is indexed by Zech logarithms: alpha = g^k runs over k in [1, q-2],
1 - alpha = g^zech[k], so the term at alpha is the Teichmuller power
[g]^e with e = (a k + b zech[k]) mod (q-1).  Frobenius groups the terms:
(1 - alpha)^p = 1 - alpha^p gives zech[k p] = p zech[k] mod q-1, so the
term at alpha^(p^j) is [g]^(e p^j).  The orbit of alpha under alpha ->
alpha^p has f elements unless alpha lies in a proper subfield, and its
terms add up to the orbit sum [g]^e + [g]^(e p) + ... + [g]^(e p^(f-1)).
One table per field and precision holds the orbit sum for every e in
[0, q-2], then the single powers [g]^e.  A call reads one lane per full
orbit, at its least k with offset 0, and one lane per element of a proper
subfield, with offset q-1 into the single powers: (q-2-s)/f + s lanes,
s the number of such elements, 440 + 9 at q = 1331 instead of 1329.
Every term is still added exactly once, as integers packed in t
(padic.witt_pack) with one slot per Witt component; a slot is wide enough
for (q-2)(p^N-1), so no sum carries into the next slot.

The exponents come from one pass over big integers.  Once per field, the
lanes' k, zech[k] and offsets are packed into the 64-bit lanes of three
integers K, Z and O; a call forms E = a K + b Z, whose lanes e stay below
2 m^2 with m = q-1, reduces every lane mod m at once and adds O, which
leaves every lane an index below 2 m into the table.  The reduction is
multiply-shift division by the invariant m: floor(e/m) = (e c) >> S with
S = bit_length(2 m^3) and c = ceil(2^S / m).  Writing c m = 2^S + d with
0 <= d < m, the error term e d / (m 2^S) stays below 1/m because
e d < 2 m^3 < 2^S, so the floor is exact for every e < 2 m^2; and
e c < 2^50 at q = 4096, so no lane product carries into the next lane.
The indices are read back by one struct of n little-endian 64-bit words,
cached per n, and one itemgetter gathers their table entries for the sum.

stickelberger_data predicts the valuation and the leading digit of the sum
from base-p digit counting, without summing anything; the two routes are
checked against each other in the tests.
"""

import math
import struct
from functools import lru_cache
from operator import itemgetter

from wittcycle import _tables
from wittcycle.padic import witt_add, witt_one, witt_pack, witt_unpack


@lru_cache(maxsize=None)
def _packed_powers(params):
    """[g]^k for k in [0, q-2], each packed into one integer with a slot of
    `width` bits per Witt component; and width."""
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    width = ((params.q - 2) * (params.pN - 1)).bit_length()
    packed = [witt_pack(teich[code], width, params) for code in T.exp]
    return packed, width


@lru_cache(maxsize=None)
def _lane_struct(n):
    """n little-endian 64-bit lanes, the first value in the lowest lane."""
    return struct.Struct("<%dQ" % n)


def _pack_lanes(values):
    """Nonnegative values below 2^64 as one integer, one 64-bit lane each,
    the first value in the lowest lane."""
    return int.from_bytes(_lane_struct(len(values)).pack(*values), "little")


def _unpack_lanes(x, n):
    """The n lowest 64-bit lanes of x, lowest first, as a tuple."""
    return _lane_struct(n).unpack(x.to_bytes(8 * n, "little"))


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
def _lane_table(params):
    """The table the lanes index, and width: for every exponent e in
    [0, q-2] the orbit sum [g]^e + [g]^(e p) + ... + [g]^(e p^(f-1)), then
    the single powers [g]^e, all packed as in _packed_powers."""
    packed, width = _packed_powers(params)
    m = len(packed)
    steps = [params.p**j % m for j in range(params.f)]
    return [sum(packed[e * s % m] for s in steps) for e in range(m)] + packed, width


@lru_cache(maxsize=None)
def _exponent_lanes(p, f, modulus):
    """The lanes of one pass over alpha = g^k, k in [1, q-2]: K, Z and the
    offsets O, packed, and their number.  The least k of each Frobenius
    orbit of size f comes first, with offset 0 (its orbit sum); then every
    k with alpha in a proper subfield, with offset q-1 (its single power)."""
    zech = _tables.field_tables(p, f, modulus).zech
    m = len(zech)
    orbits = [[k * p**j % m for j in range(f)] for k in range(1, m)]
    reps = [o[0] for o in orbits if o[0] == min(o) and len(set(o)) == f]
    subfield = [o[0] for o in orbits if len(set(o)) < f]
    ks = reps + subfield
    offsets = [0] * len(reps) + [m] * len(subfield)
    return _pack_lanes(ks), _pack_lanes([zech[k] for k in ks]), _pack_lanes(offsets), len(ks)


def jacobi_sum(a, b, zero_convention, params):
    """The Jacobi sum with exponent pair (a, b), as a Witt tuple."""
    if zero_convention not in ("standard", "J0"):
        raise ValueError("zero_convention must be 'standard' or 'J0'")
    q = params.q
    a = int(a)
    b = int(b)
    if not (0 <= a <= q - 1 and 0 <= b <= q - 1):
        raise ValueError("exponents must be literal integers in [0, q-1]")
    table, width = _lane_table(params)
    K, Z, O, n = _exponent_lanes(params.p, params.f, params.modulus)
    # alpha = g^k over k in [1, q-2] skips the boundary elements 0 and 1;
    # a lane holds the exponent e of the term at its g^k, plus its offset
    indices = _unpack_lanes(_lanes_mod(a * K + b * Z, q - 1, n) + O, n)
    acc = sum(itemgetter(*indices)(table))  # n >= 5 lanes, as p >= 7
    out = witt_unpack(acc, width, params.f - 1, params)
    if zero_convention == "standard":
        if a == 0:
            out = witt_add(out, witt_one(params), params)
        if b == 0:
            out = witt_add(out, witt_one(params), params)
    return out


def stickelberger_data(a, b, params):
    """Valuation and leading digit of the Jacobi sum from digit counting,
    as (u, unit): u the p-adic valuation, unit the leading digit as an
    integer mod p (the leading digit always lies in the prime field).

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
    if s > q - 1:
        s -= q - 1
    # the digits of a, b and s, least significant first, in one pass
    fact = _factorials_mod(p)
    total = 0
    num = den = 1
    for _ in range(f):
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        s, z = divmod(s, p)
        total += p - 1 - (x + y - z)
        num = num * fact[x] * fact[y] % p
        den = den * fact[z] % p
    if total % (p - 1):
        raise ArithmeticError("digit count is not divisible by p-1")
    u = total // (p - 1)
    unit = (num * pow(den, p - 2, p)) % p
    if (f - 1 + u) % 2:
        unit = (-unit) % p
    return u, unit


def factorial_mod_p(n, p):
    """n! mod p for digit-sized n; used by the leading-term formulas."""
    return math.factorial(n) % p


@lru_cache(maxsize=None)
def _factorials_mod(p):
    """x! mod p for every digit x in [0, p-1]."""
    return [factorial_mod_p(x, p) for x in range(p)]
