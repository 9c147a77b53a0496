"""Induction to GL2(F_q) of a diagonal character, over W(F_q)/p^N.

The module is realized as functions on the group that transform by the
character under left multiplication by the upper triangular subgroup, with
the action (h f)(g) = f(g h).  Basis labels are integers: label 0 is the
coset of the identity (the function phi supported on the Borel with
phi(1) = 1), label 1 + code(lam) is the coset of w n(lam) where w is the
antidiagonal involution and n(lam) the upper unipotent.  Vectors are dicts
from labels to Witt tuples with zero entries dropped.

A diagonal character is a pair (m1, m2) of exponents mod q-1:
diag(a, d) acts on the phi line by [a]^m1 [d]^m2.

The exchange route works in a second basis of the same module: u-(mu) phi
for mu in F_q, with u-(mu) = (1 0; mu 1), and w phi.  u-(0) phi = phi is
label 0, w phi is label 1, and u-(mu) phi for mu != 0 is a Teichmuller unit
times label 1 + code(-1/mu), so these q+1 vectors are a basis.  A vector
there is a group-algebra element y supported on U- and w, standing for
y phi, and operators act on y by the group-algebra product.  S+_i phi is
the kernel s_operator(i) itself.  S+_i y is an additive convolution over
F_q on the U- part (group_algebra.u_convolve).  U- fixes w phi, so
S+_i w phi = (sum over lam != 0 of [lam]^i) w phi, a nontrivial character
summed over F_q^x for 0 < i < q-1: exactly 0 in W(F_q).  With
S_0 phi = w S+_0 phi = w S+_{q-1} phi + w phi this gives
S_i S_0 phi = w S+_i w S+_{q-1} phi on the exchange route.  The involution
w = GL2_W swaps GL2_ID and GL2_W, and for mu != 0 the Bruhat
decomposition

    w u-(mu) = (mu 1; 1 0) = u-(1/mu) b,  b = (mu 1; 0 -1/mu),

with b upper triangular, gives

    w u-(mu) phi = [mu]^m1 [-1/mu]^m2 u-(1/mu) phi
                 = (-1)^m2 [mu]^(m1-m2) u-(1/mu) phi,

a monomial map read off dlog (_w_map): the units of all the u-(mu)
coordinates are gathered in one pass and multiplied in as one column
product (padic.witt_mul_columns).  So S_i = w S+_i costs one
convolution and O(q) work, touching only the O(q) field tables (inv, neg,
dlog, exp) and the Teichmuller column.  exchange_vectors, the production
route of exchange_coefficient at every step, works there;
ps_act, the action of any group element or group-algebra element term by
term through the q x q oracle tables, is the oracle it is checked against.

ps_act sums lazily, like group_algebra.ga_multiply: each term
c [chi(b)^(-1)] hcoef is a product of three coefficients packed in t
(padic.witt_pack), chi(b)^(-1) = [g^e] read from a packed column at
e = -(m1 dlog d1 + m2 dlog d2), one lookup per term; the exact sum over Z
is reduced once per label, with the fold from t-degree 3f-3
(padic.witt_unpack).  A group element permutes
the labels, so a label collects at most |x| terms, and a t-coefficient of
one term sums at most f^2 products below (p^N-1)^3; slots of
bit_length(|x| f^2 (p^N-1)^3) bits never carry.
"""

from collections import Counter
from dataclasses import dataclass

from wittcycle import _tables
from wittcycle.group_algebra import GL2_ID, GL2_W, gl2_inv, s_operator, scale_vector, u_convolve
from wittcycle.padic import (
    escalate,
    witt_mul_columns,
    witt_one,
    witt_pack,
    witt_unpack,
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
    """Act on a vector by a group element (4-tuple) or group-algebra element."""
    params = module.params
    if isinstance(x, tuple):
        x = {x: witt_one(params)}
    T = _tables.tables_for(params)
    q, mul, add, neg, inv, dlog = T.q, T.mul, T.add, T.neg, T.inv, T.dlog
    m1, m2 = module.chi.m1, module.chi.m2
    f = params.f
    width = (len(x) * f * f * (params.pN - 1) ** 3).bit_length()
    vs = [(label, witt_pack(c, width, params)) for label, c in v.items()]
    teich = _tables.teich_by_code(params)
    scalars = [witt_pack(teich[c], width, params) for c in T.exp]  # [g^e] at e
    acc = {}
    for h, hcoef in x.items():
        e, f2, g2, h2 = gl2_inv(h, params)
        hcoef = witt_pack(hcoef, width, params)
        for label, c in vs:
            if label == 0:
                m00, m01, m10, m11 = e, f2, g2, h2
            else:
                lam = label - 1
                m00, m01 = g2, h2
                m10 = add[e * q + mul[lam * q + g2]]
                m11 = add[f2 * q + mul[lam * q + h2]]
            if m10 == 0:
                lbl = 0
                d1, d2 = m00, m11
            else:
                lbl = 1 + mul[m11 * q + inv[m10]]
                det = add[mul[m00 * q + m11] * q + neg[mul[m01 * q + m10]]]
                d1 = mul[neg[det] * q + inv[m10]]
                d2 = m10
            # chi(borel part)^(-1) = [d1]^(-m1) [d2]^(-m2); d1, d2 are units
            scal = scalars[-(m1 * dlog[d1] + m2 * dlog[d2]) % (q - 1)]
            acc[lbl] = acc.get(lbl, 0) + c * scal * hcoef
    out = {}
    for lbl, s in acc.items():
        w = witt_unpack(s, width, 3 * f - 3, params)
        if any(w):
            out[lbl] = w
    return out


def _torus_characters(module):
    """The q+1 eigenline characters, in the label order of h_components."""
    swapped = module.chi.swap()
    return [module.chi, swapped] + [swapped.times_alpha(-j) for j in range(module.params.q - 1)]


def h_component_characters(module):
    """The q+1 eigencharacters of the torus action, with multiplicity.

    Labels 0 and 1 (the two Borel-fixed lines) carry chi and chi swapped;
    the unit-indexed combinations carry chi swapped times alpha^(-j).
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
    # entry lam of vector j is [lam]^j, read off dlog as [g^(dlog(lam) j)]
    vecs = [{0: witt_one(params)}, {1: witt_one(params)}] + [
        {1 + lam: teich[exp[dlog[lam] * j % (q - 1)]] for lam in range(1, q)}
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
    coordinate d must vanish unless the target psi_s alpha^(-i_psi) is psi_s
    swapped, the character of w phi; its value is not checked.
    Returns (c, params_used).
    """
    if psi_s.qm1 != params.q - 1:
        raise ValueError("character does not match the field size")
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
    if at_w is not None and psi_s.times_alpha(-i_psi) != psi_s.swap():
        raise ExchangeError("w phi coordinate at a nondegenerate step")
    if not any(c):
        return None  # the U- part vanished at this precision
    return c, params
