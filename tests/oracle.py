"""The generic GL2 oracle's helpers, which only the tests use.

gl2_mul and gl2_det compute through the q x q mul and add tables, and
s_by_oracle builds the paper's S_i = w S+_i by the generic product
group_algebra.ga_multiply.  The torus eigenvectors of an induced module and
their characters come with eigen_check, which acts on a vector by the two
one-parameter torus generators through the generic principal_series.ps_act.
No command of the program reads any of them; the tests check the U- kernel
and the exchange route against them at small q.
"""

from collections import Counter

from wittcycle import _tables
from wittcycle.group_algebra import GL2_ID, GL2_W, ga_multiply, s_operator, scale_vector
from wittcycle.padic import witt_one
from wittcycle.principal_series import ps_act


def gl2_mul(g, h, params):
    T = _tables.tables_for(params)
    q, mul, add = T.q, T.mul, T.add
    a, b, c, d = g
    e, f, g2, h2 = h
    return (
        add[mul[a * q + e] * q + mul[b * q + g2]],
        add[mul[a * q + f] * q + mul[b * q + h2]],
        add[mul[c * q + e] * q + mul[d * q + g2]],
        add[mul[c * q + f] * q + mul[d * q + h2]],
    )


def ga_act_matrix(g, x, params):
    """Left translate of a group-algebra element by a single group element."""
    return ga_multiply({g: (1,) + (0,) * (params.f - 1)}, x, params)


def s_by_oracle(i, params):
    """The paper's S_i = w S+_i, by the generic GL2 product: neither the
    kernel nor the exchange route's w-map builds it."""
    return ga_act_matrix(GL2_W, s_operator(i, params), params)


def gl2_det(g, params):
    T = _tables.tables_for(params)
    a, b, c, d = g
    return T.add[T.mul[a * T.q + d] * T.q + T.neg[T.mul[b * T.q + c]]]


def random_gl2(rng, params):
    while True:
        g = tuple(rng.randrange(params.q) for _ in range(4))
        if gl2_det(g, params):
            return g


def _torus_characters(chi, params):
    """The q+1 eigenline characters, in the order of h_components."""
    return [chi, chi.swap()] + [chi.times_alpha(j) for j in range(params.q - 1)]


def h_component_characters(chi, params):
    """The q+1 eigencharacters of the torus action, with multiplicity.

    phi and w phi carry chi and chi swapped; the sum over mu != 0 of
    [mu]^j u-(mu) phi carries chi times alpha^j.
    """
    return Counter(_torus_characters(chi, params))


def h_components(chi, params):
    """Eigenvectors of the torus action, grouped by character.

    Returns a dict from HChar to a list of vectors.  Characters whose list
    has length one span their eigenspace; length two means the span is the
    full two dimensional eigenspace.
    """
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
    for xi, vec in zip(_torus_characters(chi, params), vecs):
        out.setdefault(xi, []).append(vec)
    return out


def eigen_check(chi, vec, xi, params):
    """Whether vec is an H-eigenvector with character xi, in the module
    induced from chi, by acting with the two one-parameter torus generators."""
    T = _tables.tables_for(params)
    teich = _tables.teich_by_code(params)
    g = T.generator  # exp[1], so g^expo is exp[expo mod q-1]
    for h, expo in [((g, 0, 0, 1), xi.m1), ((1, 0, 0, g), xi.m2)]:
        scal = teich[T.exp[expo % (params.q - 1)]]
        if ps_act(chi, h, vec, params) != scale_vector(vec, scal, params):
            return False
    return True
