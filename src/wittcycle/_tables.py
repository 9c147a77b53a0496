"""Indexed lookup tables for F_q and for Teichmuller lifts.

Hot loops (group-algebra convolution, module actions, Jacobi summation) work
with integer codes instead of coefficient tuples: the code of an element is
sum(c_i * p^i), so code 0 is 0 and code 1 is 1.  Every nonzero code is a
unit.  Tables depend only on (p, f, modulus) except for the Teichmuller
column, which also depends on N; the two caches are split so precision
escalation never rebuilds the field tables.
"""

from array import array
from functools import lru_cache

from wittcycle import padic

# Largest q whose tables are built.  mul and add are two q x q arrays of
# 8-byte codes, 16 q^2 bytes: 92 MB at q = 2401 = 7^4 and at most 256 MiB
# below this limit.
MAX_TABLE_Q = 4096


class FieldTables:
    __slots__ = (
        "p", "f", "q", "params1", "elems", "code_of", "mul", "add",
        "neg", "inv", "dlog", "exp", "generator",
    )

    def __init__(self, p, f, modulus):
        self.p = p
        self.f = f
        q = p ** f
        if q > MAX_TABLE_Q:
            raise ValueError("q = %d is above %d, the largest field with tables" % (q, MAX_TABLE_Q))
        self.q = q
        params1 = padic.Params(p, f, 1, modulus)
        self.params1 = params1
        elems = [padic.digits(n, p, f) for n in range(q)]
        self.elems = elems
        self.code_of = {e: i for i, e in enumerate(elems)}
        self.generator = self._find_generator()
        m = q - 1
        exp = array("l", [1] * m)
        g = self.generator
        cur = 1
        for k in range(1, m):
            cur = self.code_of[padic.witt_mul(elems[cur], elems[g], params1)]
            exp[k] = cur
        self.exp = exp
        dlog = array("l", [-1] * q)
        for k in range(m):
            dlog[exp[k]] = k
        self.dlog = dlog
        exp2 = list(exp) + list(exp)
        dl = list(dlog)
        mul = array("l", [])
        zero_row = [0] * q
        for a in range(q):
            if a == 0:
                mul.extend(zero_row)
            else:
                da = dl[a]
                mul.extend([0] + [exp2[da + dl[b]] for b in range(1, q)])
        self.mul = mul
        neg = array("l", [0] * q)
        for a in range(q):
            neg[a] = self.code_of[padic.witt_neg(elems[a], params1)]
        self.neg = neg
        add = array("l", [])
        for a in range(q):
            ea = elems[a]
            add.extend(
                [self.code_of[padic.witt_add(ea, elems[b], params1)] for b in range(q)]
            )
        self.add = add
        inv = array("l", [0] * q)
        inv[1 % q] = 1
        for a in range(2, q):
            inv[a] = exp[(m - dl[a]) % m]
        self.inv = inv

    def _find_generator(self):
        q, m = self.q, self.q - 1
        for g in range(2, q):
            order = 1
            cur = g
            while cur != 1:
                cur = self.code_of[
                    padic.witt_mul(self.elems[cur], self.elems[g], self.params1)
                ]
                order += 1
                if order > m:
                    break
            if order == m:
                return g
        if q == 2:
            return 1
        raise ArithmeticError("no generator found")

    def pow_code(self, a, e):
        """Code of elems[a] ** e (e may be any integer; a must be nonzero for e < 0)."""
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        m = self.q - 1
        return self.exp[(self.dlog[a] * e) % m]

    def sub(self, a, b):
        return self.add[a * self.q + self.neg[b]]


@lru_cache(maxsize=None)
def field_tables(p, f, modulus):
    return FieldTables(p, f, modulus)


def tables_for(params):
    return field_tables(params.p, params.f, params.modulus)


@lru_cache(maxsize=None)
def _teich_by_code_key(p, f, modulus, N):
    params = padic.Params(p, f, N, modulus)
    T = field_tables(p, f, modulus)
    q = params.q
    out = [None] * q
    out[0] = padic.witt_zero(params)
    tg = padic.teichmuller(T.elems[T.generator], params)
    cur = padic.witt_one(params)
    out[1] = cur
    for k in range(1, q - 1):
        cur = padic.witt_mul(cur, tg, params)
        out[T.exp[k]] = cur
    return out


def teich_by_code(params):
    """Teichmuller lift for every field code, computed as powers of [g]."""
    return _teich_by_code_key(params.p, params.f, params.modulus, params.N)
