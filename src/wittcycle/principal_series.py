"""Induction to GL2(F_q) of a diagonal character, over W(F_q)/p^N.

A diagonal character is a pair (m1, m2) of exponents mod q-1; phi is the
function supported on the upper triangular Borel with phi(1) = 1, on which
b = (a x; 0 d) acts by chi(b) = [a]^m1 [d]^m2.  By the Bruhat decomposition
the q+1 vectors u-(mu) phi, mu in F_q, with u-(mu) = (1 0; mu 1), and
w phi, w = GL2_W the antidiagonal involution, are a basis of the module.
A vector is a group-algebra element y supported on U- and w, with zero
coefficients dropped, standing for y phi: phi = u-(0) phi is GL2_ID.

ps_act, the action of any group element or group-algebra element x, is
the GL2 product x y (group_algebra.ga_multiply), each key g = (a b; c d)
projected back onto the basis by the Bruhat split

    a != 0:  g = u-(c/a) (a b; 0 det/a),  g phi = [a]^m1 [det/a]^m2 u-(c/a) phi,
    a = 0:   g = w (c d; 0 b),            g phi = [c]^m1 [b]^m2 w phi,

with one Teichmuller lookup and one witt_mul per key.  It is the oracle
the exchange route is checked against.

The exchange route never calls ps_act: it applies its operators by the
U- convolution and the w-map below.  S+_i phi is the kernel s_operator(i)
itself.  S+_i y is an additive convolution over F_q on the U- part
(group_algebra.u_convolve).  U- fixes w phi, so
S+_i w phi = (sum over lam != 0 of [lam]^i) w phi, a nontrivial character
summed over F_q^x for 0 < i < q-1: exactly 0 in W(F_q).  With
S_0 phi = w S+_0 phi = w S+_{q-1} phi + w phi this gives
S_i S_0 phi = w S+_i w S+_{q-1} phi on the exchange route.  w swaps
GL2_ID and GL2_W, and for mu != 0 the split of w u-(mu) = (mu 1; 1 0),
det -1, gives

    w u-(mu) phi = [mu]^m1 [-1/mu]^m2 u-(1/mu) phi
                 = (-1)^m2 [mu]^(m1-m2) u-(1/mu) phi,

a monomial map read off dlog (_w_map): the units of all the u-(mu)
coordinates are gathered in one pass and multiplied in as one column
product (padic.witt_mul_columns).  So S_i = w S+_i costs one
convolution and O(q) work, touching only the O(q) field tables (inv, neg,
dlog, exp) and the Teichmuller column.  exchange_vectors, the production
route of exchange_coefficient at every step, works there.

The w phi coordinate of S_i S_0 phi is w of the phi coordinate of
S+_i w S+_{q-1} phi, the sum over lam != 0 of
[lam]^i (-1)^m2 [-lam]^(m2-m1) = (-1)^m1 [lam]^(i-m1+m2): (-1)^m1 (q-1)
when i = m1 - m2 mod q-1, which is when the target chi alpha^(-i) is
chi swapped, the character of w phi, and 0 at every other step.
"""

from collections import Counter
from dataclasses import dataclass

from wittcycle import _tables
from wittcycle.group_algebra import GL2_ID, GL2_W, ga_multiply, s_operator, scale_vector, u_convolve
from wittcycle.padic import (
    escalate,
    witt_add,
    witt_from_int,
    witt_mul,
    witt_mul_columns,
    witt_one,
    witt_zero,
)


class ExchangeError(ArithmeticError):
    """The exchange identity fails, or exchange_constant is asked for a
    degenerate step (target character of multiplicity two)."""


@dataclass(frozen=True)
class HChar:
    """A character of the diagonal torus, exponent pair mod q-1."""

    m1: int
    m2: int
    qm1: int

    def swap(self):
        return HChar(self.m2, self.m1, self.qm1)

    def times_alpha(self, n):
        m = self.qm1
        return HChar((self.m1 + n) % m, (self.m2 - n) % m, self.qm1)

    def a_exponent(self):
        """The r with self = (self swapped) times alpha^r."""
        return (self.m1 - self.m2) % self.qm1


def make_char(m1, m2, params):
    m = params.q - 1
    return HChar(m1 % m, m2 % m, m)


@dataclass(frozen=True)
class PSModule:
    """The induced module determined by a diagonal character."""

    chi: HChar
    params: object

    def __post_init__(self):
        if self.chi.qm1 != self.params.q - 1:
            raise ValueError("character does not match the field size")


def ps_act(module, x, v):
    """Act on a vector by a group element (4-tuple) or group-algebra element:
    the product x v, each key projected onto u-(mu) phi or w phi."""
    params = module.params
    if isinstance(x, tuple):
        x = {x: witt_one(params)}
    T = _tables.tables_for(params)
    q, mul, add, neg, inv, exp, dlog = T.q, T.mul, T.add, T.neg, T.inv, T.exp, T.dlog
    teich = _tables.teich_by_code(params)
    m1, m2 = module.chi.m1, module.chi.m2
    out = {}
    for (a, b, c, d), coeff in ga_multiply(x, v, params).items():
        det = add[mul[a * q + d] * q + neg[mul[b * q + c]]]
        if not det:
            raise ZeroDivisionError("matrix is singular")
        if a:
            # chi(a b; 0 det/a) = [a]^(m1-m2) [det]^m2
            key, e = (1, 0, mul[c * q + inv[a]], 1), (m1 - m2) * dlog[a] + m2 * dlog[det]
        else:
            key, e = GL2_W, m1 * dlog[c] + m2 * dlog[b]
        coeff = witt_mul(coeff, teich[exp[e % (q - 1)]], params)
        prev = out.get(key)
        out[key] = coeff if prev is None else witt_add(prev, coeff, params)
    return {key: coeff for key, coeff in out.items() if any(coeff)}


def _torus_characters(module):
    """The q+1 eigenline characters, in the order of h_components."""
    chi = module.chi
    return [chi, chi.swap()] + [chi.times_alpha(j) for j in range(module.params.q - 1)]


def h_component_characters(module):
    """The q+1 eigencharacters of the torus action, with multiplicity.

    phi and w phi carry chi and chi swapped; the sum over mu != 0 of
    [mu]^j u-(mu) phi carries chi times alpha^j.
    """
    return Counter(_torus_characters(module))


def h_components(module):
    """Eigenvectors of the torus action, grouped by character.

    Returns a dict from HChar to a list of vectors.  Characters whose list
    has length one span their eigenspace; length two means the span is the
    full two dimensional eigenspace.
    """
    params = module.params
    T = _tables.tables_for(params)
    exp, dlog = T.exp, T.dlog
    teich = _tables.teich_by_code(params)
    q = params.q
    # entry mu of vector j is [mu]^j, read off dlog as [g^(dlog(mu) j)]
    vecs = [{GL2_ID: witt_one(params)}, {GL2_W: witt_one(params)}] + [
        {(1, 0, mu, 1): teich[exp[dlog[mu] * j % (q - 1)]] for mu in range(1, q)}
        for j in range(q - 1)
    ]
    out = {}
    for xi, vec in zip(_torus_characters(module), vecs):
        out.setdefault(xi, []).append(vec)
    return out


def eigen_check(module, vec, xi):
    """Whether vec is an H-eigenvector with character xi, by acting with
    the two one-parameter torus generators."""
    params = module.params
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    g = T.generator  # exp[1], so g^expo is exp[expo mod q-1]
    for h, expo in [((g, 0, 0, 1), xi.m1), ((1, 0, 0, g), xi.m2)]:
        scal = teich[T.exp[expo % (params.q - 1)]]
        if ps_act(module, h, vec) != scale_vector(vec, scal, params):
            return False
    return True


def _w_map(module, y):
    """w y for w = GL2_W and y on U- and w: GL2_ID and GL2_W swap, and
    u-(mu), mu != 0, goes to (-1)^m2 [mu]^(m1-m2) u-(1/mu) (module docstring)."""
    params = module.params
    T = _tables.tables_for(params)
    exp, dlog, inv = T.exp, T.dlog, T.inv
    teich = _tables.teich_by_code(params)
    m = params.q - 1
    d = module.chi.m1 - module.chi.m2
    sign = dlog[T.neg[1]] * module.chi.m2
    out, mus, cs = {}, [], []
    for g, c in y.items():
        if g == GL2_W:
            g = GL2_ID
        elif g == GL2_ID:
            g = GL2_W
        else:
            mus.append(g[2])
            cs.append(c)
            continue
        if any(c):
            out[g] = c
    # the u-(mu) coordinates, times their units in one column product
    units = [teich[exp[(dlog[mu] * d + sign) % m]] for mu in mus]
    empty = [()] * params.f
    prods = witt_mul_columns(list(zip(*cs)) or empty, list(zip(*units)) or empty, params)
    out.update({(1, 0, inv[mu], 1): c for mu, c in zip(mus, prods) if any(c)})
    return out


def exchange_vectors(module, i_psi):
    """S_{i_psi} S_0 phi = w S+_{i_psi} w S+_{q-1} phi and S+_{q-1-i_psi} phi,
    each as the element y on U- and w that stands for y phi (module
    docstring), for 0 < i_psi < q-1: one u_convolve and two O(q) w-maps."""
    params = module.params
    s0_less_w = _w_map(module, s_operator(params.q - 1, params))  # S_0 phi - w phi
    u = _w_map(module, u_convolve(s0_less_w, s_operator(i_psi, params), params))
    return u, s_operator(params.q - 1 - i_psi, params)


def exchange_coefficient(psi_s, i_psi, params):
    """The scalar c with S_{i_psi} S_0 phi = c S+_{q-1-i_psi} phi + d w phi.

    Works in the module induced from psi_s, at every step, degenerate or
    not.  The constant is read off the coordinate at u-(1), where
    S+_{q-1-i_psi} phi is 1, and the U- part of S_{i_psi} S_0 phi must equal
    c S+_{q-1-i_psi} phi exactly at the working precision.  The w phi
    coordinate d must be (-1)^m1 (q-1), psi_s = (m1, m2), when the target
    psi_s alpha^(-i_psi) is psi_s swapped, the character of w phi, and 0 at
    every other step (module docstring).  Returns (c, params_used).
    """
    i_psi = int(i_psi)
    if not 0 < i_psi < params.q - 1:
        raise ValueError("need 0 < i_psi < q-1")
    return escalate(lambda work: _exchange_once(psi_s, i_psi, work), params, "exchange constant")


def exchange_constant(psi_s, i_psi, params):
    """exchange_coefficient at a step whose target has multiplicity one.

    The targets for 0 < i_psi < q-1 are simple but for psi_s swapped, which
    h_component_characters counts twice; that degenerate case raises
    ExchangeError.  Returns (c, i_plus, params_used).
    """
    c, used = exchange_coefficient(psi_s, i_psi, params)
    if psi_s.times_alpha(-i_psi) == psi_s.swap():
        raise ExchangeError("target character has multiplicity 2 in the induced module")
    return c, params.q - 1 - i_psi, used


def _exchange_once(psi_s, i_psi, params):
    u, w = exchange_vectors(PSModule(psi_s, params), i_psi)
    # w = S+_{i_plus} has the Teichmuller unit [mu]^i_plus at u-(mu), and 1 at
    # u-(1), so c is u's coefficient there if u's U- part is proportional to w
    u_minus = dict(u)
    at_w = u_minus.pop(GL2_W, None)
    c = u_minus.get((1, 0, 1, 1), witt_zero(params))
    if u_minus != scale_vector(w, c, params):
        raise ExchangeError("vectors are not proportional")
    degenerate = psi_s.times_alpha(-i_psi) == psi_s.swap()
    d = witt_from_int((-1) ** psi_s.m1 * (params.q - 1), params) if degenerate else None
    if at_w != d:
        raise ExchangeError("wrong w phi coordinate")
    if not any(c):
        return None  # the U- part vanished at this precision
    return c, params
