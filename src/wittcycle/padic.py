"""Exact arithmetic in the truncated Witt ring W(F_q)/p^N, and so in F_q.

q = p^f.  Elements are written in the polynomial basis 1, t, ..., t^(f-1)
where t is a root of a fixed monic irreducible modulus of degree f: an
element of W(F_q)/p^N is a tuple of f integers in [0, p^N).  F_q is the
ring at N = 1, so an element of F_q is a Witt tuple at params.residue, with
integers in [0, p), and takes the same witt_* operations.  Tuples hash and
compare structurally, so elements can be used as dict keys directly.  All
operations are pure functions taking the element(s) first and a Params last.

witt_mul_columns multiplies many pairs of elements at once: each operand is
given as f coefficient columns, the f^2 products of columns run as C-level
maps into 2f-1 columns, and witt_fold_columns reduces those by the modulus
and mod p^N a column at a time, so no Python loop runs per element.
witt_mul and witt_fold stay the one-element path.

Ring axioms hold exactly at precision N.  A quantity that is 0 mod p^N has
unknown valuation; valuation_and_unit reports PRECISION_INF for it and
callers are expected to retry at higher precision.
"""

import math
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from operator import add, mul, sub

PRECISION_INF = math.inf

# Largest q that Params.make accepts.  Past _tables.MAX_TABLE_Q only the
# digit combinatorics of weights and cycles run (tested up to q = 7^5); this
# bound refuses an oversized p or f before the trial division of p and the
# modulus search, which grow with p and with p^f.
MAX_Q = 2 ** 24
# Largest N that Params.make accepts (the default f^2 + 4 stays <= 68 below
# MAX_Q).  Escalation raises N through with_precision, past this bound.
MAX_N = 256


class PrecisionError(ArithmeticError):
    """A result was indistinguishable from 0 at the working precision."""


def _is_prime(n):
    return n > 1 and _prime_divisors(n) == [n]


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(m, p, f):
    if f == 1:
        return True
    # F_p[x]/(m) is a ring for any monic m: the Witt ring's operations at N = 1
    ring = Params(p, f, 1, tuple(m))
    x = (0, 1) + (0,) * (f - 2)
    if witt_pow(x, p ** f, ring) != x:
        return False
    # Rabin's test, gcd(m, x^(p^(f/l)) - x) = 1, without a gcd.  x^(p^f) = x
    # makes the f-th Frobenius the identity, so the ring is reduced, a product
    # of fields F_(p^d) with d | f, and y is a unit iff y^(p^f - 1) = 1.
    for ell in _prime_divisors(f):
        d = witt_sub(witt_pow(x, p ** (f // ell), ring), x, ring)
        if witt_pow(d, p ** f - 1, ring) != witt_one(ring):
            return False
    return True


def digits(n, p, f):
    """The f base-p digits of n, least significant first."""
    return tuple((n // p ** i) % p for i in range(f))


def _default_modulus(p, f):
    """Least monic irreducible lift, coefficients compared from x^(f-1) down."""
    for n in range(p ** f):
        m = list(digits(n, p, f)) + [1]
        if _is_irreducible(m, p, f):
            return tuple(m)
    raise ArithmeticError("no irreducible polynomial found")


@dataclass(frozen=True)
class Params:
    """Arithmetic context: p, f, precision N, and the monic modulus.

    The modulus is stored with integer coefficients in [0, p), so the same
    Params family can be re-created at any precision.
    """

    p: int
    f: int
    N: int
    modulus: tuple

    @property
    def q(self):
        return self.p ** self.f

    @cached_property
    def pN(self):
        # read in every inner loop; kept in the instance __dict__, outside
        # the fields, so equality, hashing and pickling are unchanged
        return self.p ** self.N

    @cached_property
    def residue(self):
        # F_q = W(F_q)/p, the ring of every leading digit; cached like pN
        return self.with_precision(1)

    @staticmethod
    def make(p, f, N=None, modulus=None):
        # before anything that costs time in p or in p^f
        if p > 1 and (p > MAX_Q or f >= MAX_Q.bit_length() or p ** f > MAX_Q):
            raise ValueError("q = p^f must be at most %d" % MAX_Q)
        if not _is_prime(p) or p <= 5:
            raise ValueError("p must be a prime greater than 5")
        if f < 1:
            raise ValueError("f must be at least 1")
        if N is None:
            N = f * f + 4
        if N < 1:
            raise ValueError("N must be at least 1")
        if N > MAX_N:
            raise ValueError("N must be at most %d" % MAX_N)
        if modulus is None:
            modulus = _default_modulus(p, f)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != f + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree f")
            if not _is_irreducible(list(modulus), p, f):
                raise ValueError("modulus is not irreducible mod p")
        return Params(p, f, N, modulus)

    def with_precision(self, N):
        return Params(self.p, self.f, N, self.modulus)


def raise_precision(params):
    """A fresh Params at strictly higher N, same field."""
    return params.with_precision(params.N + max(params.f * params.f, 4))


# attempts the contraction and the exchange constant make before giving up
MAX_ESCALATIONS = 6


def escalate(attempt, params, what):
    """The first result of attempt(work) that is not None, work rising in N.

    attempt is tried at params, then at each raise_precision of the last
    context, MAX_ESCALATIONS times in all; after that the escalation gives
    up with PrecisionError naming what was unresolved.
    """
    work = params
    for _ in range(MAX_ESCALATIONS):
        res = attempt(work)
        if res is not None:
            return res
        work = raise_precision(work)
    raise PrecisionError("%s unresolved after escalation" % what)


# ---------------------------------------------------------------------------
# W(F_q)/p^N

def witt_zero(params):
    return (0,) * params.f


def witt_one(params):
    return (1,) + (0,) * (params.f - 1)


def witt_from_int(n, params):
    return (n % params.pN,) + (0,) * (params.f - 1)


def witt_add(x, y, params):
    m = params.pN
    return tuple((a + b) % m for a, b in zip(x, y))


def witt_sub(x, y, params):
    m = params.pN
    return tuple((a - b) % m for a, b in zip(x, y))


def witt_neg(x, params):
    m = params.pN
    return tuple((-a) % m for a in x)


def witt_mul(x, y, params):
    f = params.f
    if f == 1:
        return ((x[0] * y[0]) % params.pN,)
    c = [0] * (2 * f - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                c[i + j] += xi * yj
    return witt_fold(c, params)


# A Witt tuple packed in t: one integer, coefficient i (reduced mod p^N) in
# bits [i*width, (i+1)*width).  Integer products and sums of packed tuples are
# products and sums of polynomials in t, exact as long as no coefficient
# reaches 2^width; witt_unpack then reduces by the modulus and mod p^N, a ring
# homomorphism, once for the whole sum.

def witt_pack(x, width, params):
    """x as one integer with a slot of `width` bits per t-degree."""
    m = params.pN
    return sum((c % m) << (i * width) for i, c in enumerate(x))


def witt_fold(c, params):
    """The Witt tuple of the polynomial with integer coefficients c (a list,
    lowest degree first, at least f of them, overwritten): reduced by the
    modulus from the top degree down, then mod p^N."""
    m, f, mod = params.pN, params.f, params.modulus
    for k in range(len(c) - 1, f - 1, -1):
        t = c[k] % m
        if t:
            base = k - f
            for i in range(f):
                c[base + i] -= t * mod[i]
    return tuple(v % m for v in c[:f])


def witt_fold_columns(cols, params):
    """witt_fold for many polynomials at once, position by position: cols[k]
    lists the t^k coefficients (at least f columns of one length, the list
    overwritten).  Reduced by the modulus one column at a time, from the top
    degree down, then mod p^N; returns an iterator of Witt tuples."""
    f, pN, mod = params.f, params.pN, params.modulus
    for k in range(len(cols) - 1, f - 1, -1):
        top = list(map(pN.__rmod__, cols[k]))
        for i in range(f):
            if mod[i]:
                cols[k - f + i] = list(map(sub, cols[k - f + i], map(mod[i].__mul__, top)))
    return zip(*(map(pN.__rmod__, col) for col in cols[:f]))


def witt_mul_columns(xs, ys, params):
    """The position-by-position products of two runs of Witt tuples, each
    given as its f coefficient columns (xs[i] is a sequence of the t^i
    coefficients, read f times).  A scalar is passed as f columns of
    itertools.repeat; the products stop with the shortest column.  Returns
    an iterator of Witt tuples."""
    f = params.f
    cols = []
    for k in range(2 * f - 1):
        # column k sums the products x_i y_j with i + j = k, lazily in C
        terms = (map(mul, xs[i], ys[k - i]) for i in range(max(0, k + 1 - f), min(k + 1, f)))
        cols.append(list(reduce(partial(map, add), terms)))
    return witt_fold_columns(cols, params)


def witt_unpack(packed, width, degree, params):
    """The Witt tuple of a nonnegative polynomial in t packed with slots of
    `width` bits, t-degree at most `degree` (at least f - 1)."""
    mask = (1 << width) - 1
    return witt_fold([(packed >> (k * width)) & mask for k in range(degree + 1)], params)


def witt_pow(x, e, params):
    result = witt_one(params)
    base = x
    e = int(e)
    while e:
        if e & 1:
            result = witt_mul(result, base, params)
        base = witt_mul(base, base, params)
        e >>= 1
    return result


def witt_reduce(x, params):
    """Reduction W(F_q)/p^N -> F_q."""
    p = params.p
    return tuple(a % p for a in x)


def teichmuller(a, params):
    """The multiplicative lift of a in F_q, fixed point of y -> y^q.

    Converges from the coefficientwise lift in at most N iterations because
    y -> y^q contracts p-adic distance on each fiber of the reduction.
    """
    y = tuple(a)
    q = params.q
    for _ in range(params.N + 1):
        z = witt_pow(y, q, params)
        if z == y:
            return y
        y = z
    raise ArithmeticError("Teichmuller iteration failed to stabilize")


def valuation_and_unit(x, params):
    """Write x = p^v * u with u a unit, returning (v, leading digit of u).

    The leading digit is u mod p as an F_q element and is nonzero whenever v
    is finite.  If x is 0 at precision N the true valuation is out of reach:
    returns (PRECISION_INF, None).
    """
    if not any(x):
        return PRECISION_INF, None
    p = params.p
    v = params.N
    for c in x:
        if c:
            w = 0
            while c % p == 0:
                c //= p
                w += 1
            if w < v:
                v = w
    lead = tuple((c // p ** v) % p for c in x)
    return v, lead

