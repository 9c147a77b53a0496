"""Reference arithmetic for checking wittcycle's outputs, apart from src/.

F_q is built here under its own irreducible modulus (the largest monic one
in code order, where wittcycle takes the least), Teichmuller lifts live in
(Z/p^N)[x]/(M), and Jacobi sums are summed through discrete logarithms.
Coordinates therefore differ from the program's; the checks compare only
quantities that do not depend on the basis: p-adic valuations and leading
digits that lie in the prime field.
"""


def _poly_mulmod(a, b, modulus, m):
    """Product of coefficient lists a, b reduced by the monic modulus, mod m."""
    f = len(modulus) - 1
    c = [0] * (2 * f - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                c[i + j] += x * y
    for k in range(2 * f - 2, f - 1, -1):
        t = c[k] % m
        if t:
            for i in range(f):
                c[k - f + i] -= t * modulus[i]
    return [v % m for v in c[:f]]


def _divides(g, h, p):
    """True when the monic polynomial g divides h over F_p."""
    h = list(h)
    dg = len(g) - 1
    for k in range(len(h) - 1, dg - 1, -1):
        t = h[k] % p
        if t:
            for i in range(dg + 1):
                h[k - dg + i] -= t * g[i]
    return not any(c % p for c in h[:dg])


def irreducible(poly, p):
    """True when the monic poly has no monic factor of degree <= deg/2 over F_p."""
    f = len(poly) - 1
    for d in range(1, f // 2 + 1):
        for n in range(p ** d):
            g = [(n // p ** i) % p for i in range(d)] + [1]
            if _divides(g, poly, p):
                return False
    return True


def own_modulus(p, f):
    """The monic irreducible of degree f with the largest lower coefficients."""
    for n in range(p ** f - 1, -1, -1):
        poly = [(n // p ** i) % p for i in range(f)] + [1]
        if irreducible(poly, p):
            return poly
    raise ArithmeticError("no irreducible polynomial of degree %d mod %d" % (f, p))


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class RefField:
    """F_q = F_p[x]/(modulus) with elements coded as sum c_i p^i, plus the
    Teichmuller powers [g]^k in W(F_q)/p^N for a generator g."""

    def __init__(self, p, f, N, modulus=None):
        self.p, self.f, self.N = p, f, N
        self.q = q = p ** f
        self.pN = p ** N
        self.modulus = list(modulus) if modulus is not None else own_modulus(p, f)
        g = self._generator()
        exp = [1] * (q - 1)
        for k in range(1, q - 1):
            exp[k] = self.mul(exp[k - 1], g)
        dlog = [None] * q
        for k, c in enumerate(exp):
            dlog[c] = k
        self.dlog = dlog
        # 1 - alpha for every code, as a code
        self.one_minus = [self.encode([(int(i == 0) - c) % p for i, c in enumerate(self.decode(a))])
                          for a in range(q)]
        tg = self.teichmuller(self.decode(g))
        teich = [[1] + [0] * (f - 1)]
        for _ in range(1, q - 1):
            teich.append(self.wmul(teich[-1], tg))
        if self.wmul(teich[-1], tg) != teich[0]:
            raise ArithmeticError("[g]^(q-1) != 1: not a Teichmuller generator")
        self.teich = teich

    def decode(self, code):
        return [(code // self.p ** i) % self.p for i in range(self.f)]

    def encode(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def mul(self, a, b):
        return self.encode(_poly_mulmod(self.decode(a), self.decode(b), self.modulus, self.p))

    def _pow(self, a, e):
        out, base = 1, a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def _generator(self):
        m = self.q - 1
        cofactors = [m // r for r in _prime_factors(m)]
        for g in range(2, self.q):
            if all(self._pow(g, e) != 1 for e in cofactors):
                return g
        raise ArithmeticError("no generator")

    def wmul(self, x, y):
        return _poly_mulmod(x, y, self.modulus, self.pN)

    def teichmuller(self, coeffs):
        """The fixed point of y -> y^q above the given residue."""
        y = list(coeffs)
        for _ in range(self.N + 1):
            z, base, e = [1] + [0] * (self.f - 1), y, self.q
            while e:
                if e & 1:
                    z = self.wmul(z, base)
                base = self.wmul(base, base)
                e >>= 1
            if z == y:
                return y
            y = z
        raise ArithmeticError("Teichmuller iteration did not settle")

    def jacobi(self, a, b, convention):
        """sum over alpha of [alpha]^a [1-alpha]^b; 'standard' reads [0]^0 = 1,
        'J0' drops the alpha = 0 and alpha = 1 terms."""
        q, m, dlog, om, teich = self.q, self.q - 1, self.dlog, self.one_minus, self.teich
        acc = [0] * self.f
        for alpha in range(q):
            if alpha == 0 or om[alpha] == 0:
                continue
            t = teich[(a * dlog[alpha] + b * dlog[om[alpha]]) % m]
            for i in range(self.f):
                acc[i] += t[i]
        if convention == "standard":
            acc[0] += (a == 0) + (b == 0)
        elif convention != "J0":
            raise ValueError("convention must be 'standard' or 'J0'")
        return [c % self.pN for c in acc]


def valuation_and_prime_lead(x, p, N):
    """(v, c) with x = p^v u and u = c mod p when that residue lies in F_p;
    c is None when the leading residue is not a prime-field scalar, and
    (None, None) means x is 0 at precision N."""
    if not any(x):
        return None, None
    v = N
    for c in x:
        if c:
            w = 0
            while c % p == 0:
                c //= p
                w += 1
            v = min(v, w)
    lead = [(c // p ** v) % p for c in x]
    return v, (lead[0] if not any(lead[1:]) else None)
