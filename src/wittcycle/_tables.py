"""Indexed lookup tables for F_q and for Teichmuller lifts.

Hot loops (group-algebra convolution, module actions, Jacobi summation) work
with integer codes instead of coefficient tuples: the code of an element is
sum(c_i * p^i), so code 0 is 0 and code 1 is 1.  Every nonzero code is a
unit, a power g^k of the generator.

The production tables are O(q): exp[k] is the code of g^k, the generator
search's own walk through the powers of g, dlog inverts it
(dlog[0] = -1), inv and neg are indexed by code, and the Zech column
zech[k] = dlog(1 - g^k) (zech[0] = -1, since 1 - g^0 = 0) gives 1 - alpha
as an exponent.  A product is an exponent sum, so Jacobi sums and the
monomial maps of the principal series need nothing else.  The q x q arrays
mul and add serve only the GL2 oracle (gl2_mul, ga_multiply and the
Bruhat projection of ps_act); they are built on first read from the O(q)
tables, with no ring call per pair.  mul[a, b] is g^(dlog a + dlog b).  For
a, b != 0, c = -b/a = g^k with k = dlog(-1) + dlog b - dlog a, so
a + b = a (1 - c): 0 when k = 0, and g^(dlog a + zech[k]) otherwise.

Tables depend only on (p, f, modulus) except for the Teichmuller column,
which also depends on N; the two caches are split so precision escalation
never rebuilds the field tables.
"""

from array import array
from functools import lru_cache

from wittcycle import padic

# Largest q whose tables are built.  The O(q) tables would allow far more;
# the limit bounds the oracle's mul and add, two q x q arrays of 8-byte
# codes read off exp, dlog and zech, 16 q^2 bytes: 92 MB at q = 2401 = 7^4
# and at most 256 MiB below it.
MAX_TABLE_Q = 4096


class FieldTables:
    __slots__ = (
        "p", "f", "q", "residue", "elems", "code_of", "neg", "inv", "dlog",
        "exp", "zech", "generator", "_mul", "_add",
    )

    def __init__(self, p, f, modulus):
        self.p = p
        self.f = f
        q = p ** f
        if q > MAX_TABLE_Q:
            raise ValueError("q = %d is above %d, the largest field with tables" % (q, MAX_TABLE_Q))
        self.q = q
        residue = padic.Params(p, f, 1, modulus)
        self.residue = residue
        elems = [padic.digits(n, p, f) for n in range(q)]
        self.elems = elems
        self.code_of = code_of = {e: i for i, e in enumerate(elems)}
        # g is the least code whose walk of powers has length q - 1, and that
        # walk is exp; a walk stops at 1 or at q - 1 steps, so no walk loops
        m = q - 1
        for g in range(2, q):
            walk, cur = [1], g
            while cur != 1 and len(walk) < m:
                walk.append(cur)
                cur = code_of[padic.witt_mul(elems[cur], elems[g], residue)]
            if cur == 1 and len(walk) == m:
                break
        else:
            raise ArithmeticError("no generator found")
        self.generator = g
        self.exp = exp = array("l", walk)
        dlog = array("l", [-1] * q)
        for k in range(m):
            dlog[exp[k]] = k
        self.dlog = dlog
        self.neg = array("l", [code_of[padic.witt_neg(e, residue)] for e in elems])
        inv = array("l", [0] * q)
        for a in range(1, q):
            inv[a] = exp[-dlog[a] % m]
        self.inv = inv
        zech = array("l", [-1] * m)
        one = elems[1]
        for k in range(1, m):
            zech[k] = dlog[code_of[padic.witt_sub(one, elems[exp[k]], residue)]]
        self.zech = zech
        self._mul = None
        self._add = None

    @property
    def mul(self):
        """The q x q product table, mul[a * q + b], built on first read."""
        if self._mul is None:
            q, exp2, dl = self.q, list(self.exp) * 2, list(self.dlog)
            mul = array("l", [0] * q)
            for a in range(1, q):
                da = dl[a]
                mul.extend([0] + [exp2[da + dl[b]] for b in range(1, q)])
            self._mul = mul
        return self._mul

    @property
    def add(self):
        """The q x q sum table, add[a * q + b], built on first read from exp,
        dlog and zech (module docstring)."""
        if self._add is None:
            q, m, dl = self.q, self.q - 1, list(self.dlog)
            # exp3[e] for e < 2m is g^e; exp3[e] for 2m <= e < 3m is 0, the
            # sum at k = 0 mod m, which zech2 sends there as its entry 2m
            exp3 = list(self.exp) * 2 + [0] * m
            zech2 = [2 * m if z < 0 else z for z in self.zech] * 2
            neg1 = dl[self.neg[1]]
            add = array("l", range(q))
            for a in range(1, q):
                da = dl[a]
                s = (neg1 - da) % m
                add.extend([a] + [exp3[da + zech2[s + dl[b]]] for b in range(1, q)])
            self._add = add
        return self._add

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
