"""Weight-cycling combinatorics over Z/f.

Everything here is exact integer combinatorics: subsets of Z/f, the shift
operator delta in its two flavors, formal weights (one affine function
eps*x + c per embedding), their evaluations as explicit weights, the
characters those weights put on the diagonal torus, and the step exponents
that move one weight to the next along a delta orbit.

Subsets are frozensets of residues mod f.  A formal weight is a tuple of
(eps, c) pairs with eps in {+1, -1}, standing for x -> eps*x + c.
"""

from dataclasses import dataclass

from wittcycle.padic import witt_from_int

REDUCIBLE = "reducible-split"
IRREDUCIBLE = "irreducible"

KIND_ALIASES = {
    "reducible-split": REDUCIBLE,
    "reducible": REDUCIBLE,
    "red": REDUCIBLE,
    "irreducible": IRREDUCIBLE,
    "irr": IRREDUCIBLE,
}


def normalize_kind(kind):
    try:
        return KIND_ALIASES[kind]
    except KeyError:
        raise ValueError("kind must be reducible-split or irreducible") from None


@dataclass(frozen=True)
class RhoBar:
    """Genericity data: kind, exponents r_j, and the unramified units.

    alpha_prime is the second unit in the split reducible case and is
    pinned to the scalar -1 in the irreducible case.  Central twists are
    normalized away.
    """

    kind: str
    r: tuple
    alpha: tuple
    alpha_prime: tuple
    params: object


def make_rho(kind, r, alpha, params, alpha_prime=None):
    kind = normalize_kind(kind)
    p, f = params.p, params.f
    r = tuple(int(x) for x in r)
    if len(r) != f:
        raise ValueError("r must have one entry per embedding")
    for x in r:
        if not 1 < x < p - 4:
            raise ValueError("genericity requires 1 < r_j < p-4")
    alpha = _residue_unit(alpha, "alpha", params)
    if kind == IRREDUCIBLE:
        forced = witt_from_int(-1, params.residue)
        if alpha_prime is not None and _residue_unit(alpha_prime, "alpha_prime", params) != forced:
            raise ValueError("alpha_prime is fixed to -1 in the irreducible case")
        alpha_prime = forced
    else:
        if alpha_prime is None:
            raise ValueError("split reducible needs alpha_prime")
        alpha_prime = _residue_unit(alpha_prime, "alpha_prime", params)
    return RhoBar(kind, r, alpha, alpha_prime, params)


def _residue_unit(x, name, params):
    """An int, or a tuple of one digit per embedding, as a unit of F_q."""
    if isinstance(x, int):
        x = witt_from_int(x, params.residue)
    x = tuple(int(c) % params.p for c in x)
    if len(x) != params.f:
        raise ValueError("%s must have one digit per embedding" % name)
    if not any(x):
        raise ValueError("%s must be a unit" % name)
    return x


def subsets_of(f):
    """All subsets of Z/f, ordered by bitmask."""
    return [frozenset(j for j in range(f) if mask >> j & 1) for mask in range(1 << f)]


def delta(J, kind, f):
    """The shift: j lands in delta(J) iff j+1 is in J, except that the
    irreducible flavor tests 0 NOT in J at the seam j = f-1."""
    kind = normalize_kind(kind)
    out = set()
    for j in range(f - 1):
        if (j + 1) in J:
            out.add(j)
    if kind == REDUCIBLE:
        if 0 in J:
            out.add(f - 1)
    else:
        if 0 not in J:
            out.add(f - 1)
    return frozenset(out)


def complement(J, f):
    return frozenset(range(f)) - J


# formal weight tables, keyed by (ch(j-1), ch(j)); values (eps, c) with
# c given as a function of p
_INNER = {
    (1, 1): (-1, -3),
    (1, 0): (1, 1),
    (0, 1): (-1, -2),
    (0, 0): (1, 0),
}
_IRR_SEAM = {
    (1, 1): (-1, -1),
    (1, 0): (1, -1),
    (0, 1): (-1, -2),
    (0, 0): (1, 0),
}


def formal_weight_of(J, rho):
    """The affine weight datum attached to a subset."""
    p, f = rho.params.p, rho.params.f
    out = []
    for j in range(f):
        pat = (1 if (j - 1) % f in J else 0, 1 if j in J else 0)
        if rho.kind == IRREDUCIBLE and j == 0:
            eps, c = _IRR_SEAM[pat]
        else:
            eps, c = _INNER[pat]
        out.append((eps, c + p if eps < 0 else c))
    return tuple(out)


def fw_apply(fw, j, x):
    eps, c = fw[j]
    return eps * x + c


def e_eval(fw, r, params):
    """The determinant exponent of the weight fw evaluated at r, exact in Z."""
    p, f, q = params.p, params.f, params.q
    total = sum(p**j * (r[j] - fw_apply(fw, j, r[j])) for j in range(f))
    if fw[f - 1][0] < 0:
        total += q - 1
    if total % 2:
        raise ArithmeticError("determinant exponent is not an integer")
    return total // 2


@dataclass(frozen=True)
class SerreWeight:
    """An explicit weight: symmetric power degrees s_j and a det exponent."""

    s: tuple
    e: int


def serre_weight_of(fw, rho):
    params = rho.params
    p = params.p
    s = tuple(fw_apply(fw, j, rho.r[j]) for j in range(params.f))
    for v in s:
        if not 0 <= v <= p - 1:
            raise ValueError("weight entry out of range [0, p-1]")
    e = e_eval(fw, rho.r, params) % (params.q - 1)
    return SerreWeight(s, e)


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


def weight_char(sigma, params):
    """The character of the upper unipotent fixed line of the weight."""
    s_total = sum(v * params.p**j for j, v in enumerate(sigma.s))
    return make_char(s_total + sigma.e, sigma.e, params)


def char_of_subset(J, rho):
    return weight_char(serre_weight_of(formal_weight_of(J, rho), rho), rho.params)


def iplus_of_step(J, rho):
    """Digit vector of the step exponent from the weight at J to the next.

    Digit j is the next weight's value at j inside the symmetric difference
    and p-1 outside it.
    """
    params = rho.params
    p, f = params.p, params.f
    dJ = delta(J, rho.kind, f)
    if dJ == J:
        raise ValueError("fixed subset has no step")
    dl = formal_weight_of(dJ, rho)
    sym = J ^ dJ
    digits = []
    for j in range(f):
        if j in sym:
            d = fw_apply(dl, j, rho.r[j])
        else:
            d = p - 1
        if not 0 <= d <= p - 1:
            raise ArithmeticError("step digit out of range")
        digits.append(d)
    return tuple(digits)


def digits_value(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


@dataclass(frozen=True)
class CycleData:
    """A delta orbit with its characters and step exponents.

    subsets is the orbit in order, chars the weight characters, iplus the
    step exponent values (iplus[t] moves chars[t] to chars[t+1]), and
    degenerate flags the steps whose target character is the swap of the
    source (there S_{i_psi} S_0 phi also has a w phi coordinate).
    """

    subsets: tuple
    k: int
    chars: tuple
    iplus: tuple
    sym_diff_size: int
    degenerate: tuple
    kind: str


class OrbitExcluded(ValueError):
    pass


def _orbit(start, kind, f):
    """The delta orbit of start, in walk order from start."""
    orbit = [start]
    cur = delta(start, kind, f)
    while cur != start:
        orbit.append(cur)
        cur = delta(cur, kind, f)
        if len(orbit) > 2 * f + 1:
            raise ArithmeticError("orbit failed to close")
    return orbit


def cycle_from(rho, start):
    """Follow delta from a starting subset and validate the resulting cycle."""
    f = rho.params.f
    start = frozenset(start)
    if not start <= set(range(f)):
        raise ValueError("cycle start must be a subset of {0..%d}" % (f - 1))
    orbit = _orbit(start, rho.kind, f)
    k = len(orbit)
    if k == 1:
        raise OrbitExcluded("fixed subset: the next character equals the current one")
    chars = [char_of_subset(J, rho) for J in orbit]
    # pairwise distinct characters make every cyclic interval sum of the
    # step exponents nonzero mod q-1, which the contraction step relies on
    if len(set(chars)) != k:
        raise ArithmeticError("orbit characters are not pairwise distinct")
    # delta maps the boundary changes of J onto those of delta(J), so the
    # symmetric difference size is the same at every step
    sym = len(start ^ delta(start, rho.kind, f))
    values = []
    degenerate = []
    for t in range(k):
        # k >= 2 and distinct characters: no step repeats its character
        nxt = chars[(t + 1) % k]
        val = digits_value(iplus_of_step(orbit[t], rho), rho.params.p)
        # digit values stay strictly inside (0, q-1), so val is the shift itself
        if chars[t].times_alpha(val) != nxt:
            raise ArithmeticError("digit rule disagrees with the character shift")
        values.append(val)
        degenerate.append(nxt == chars[t].swap())
    # chars[t+1] = chars[0] * alpha^(iplus[0] + ... + iplus[t]) by the shift
    # check, so distinct characters make every proper prefix sum nonzero
    # mod q-1 and the full sum zero.  An irreducible orbit has even length:
    # delta^f is the complement there, so k divides 2f but not f.
    return CycleData(
        tuple(orbit),
        k,
        tuple(chars),
        tuple(values),
        sym,
        tuple(degenerate),
        rho.kind,
    )


def survey_orbits(rho):
    """All delta orbits: the valid cycles and the excluded ones with reasons,
    each walked from its least-mask subset (subsets_of runs in mask order,
    and a whole orbit is marked seen at its first member)."""
    f = rho.params.f
    seen = set()
    cycles = []
    excluded = []
    for J in subsets_of(f):
        if J in seen:
            continue
        orbit = _orbit(J, rho.kind, f)
        seen.update(orbit)
        try:
            cycles.append(cycle_from(rho, J))
        except OrbitExcluded as exc:
            excluded.append({"orbit": tuple(orbit), "reason": str(exc)})
    return cycles, excluded


def cycles_of(rho):
    """The valid cycles only."""
    return survey_orbits(rho)[0]


# explicit component table for the split reducible case, keyed by the
# pattern of the shifted subset at (j-1, j): (sym degree, det exponent)
def _sigma_component(pat, r_j, p):
    if pat == (1, 1):
        return p - r_j - 3, r_j - p + 2
    if pat == (0, 1):
        return p - r_j - 2, r_j - p + 1
    if pat == (1, 0):
        return r_j + 1, 0
    return r_j, 0


def sigma_J_table(J, rho):
    """The weight attached to a subset in the multiplicity-free socle list.

    Both kinds read the formal weight at the reducible shift of J; the
    split reducible case is additionally rebuilt from the explicit
    component table and the two routes are required to agree.
    """
    params = rho.params
    p, f = params.p, params.f
    dJ = delta(J, REDUCIBLE, f)
    fw = formal_weight_of(dJ, rho)
    sigma = serre_weight_of(fw, rho)
    if rho.kind == REDUCIBLE:
        s = []
        e = 0
        for j in range(f):
            pat = (1 if (j - 1) % f in dJ else 0, 1 if j in dJ else 0)
            sj, cj = _sigma_component(pat, rho.r[j], p)
            s.append(sj)
            e += cj * p**j
        built = SerreWeight(tuple(s), e % (params.q - 1))
        if built != sigma:
            raise ArithmeticError("component table disagrees with the formal weight")
    return sigma


@dataclass(frozen=True)
class DLType:
    """A type parameterized by a pair of length-f words in {id, s}."""

    w: tuple
    w_prime: tuple

    def __post_init__(self):
        for seq in (self.w, self.w_prime):
            if any(x not in ("id", "s") for x in seq):
                raise ValueError("entries must be 'id' or 's'")
        if len(self.w) != len(self.w_prime):
            raise ValueError("length mismatch")


def jh_intersect(V, rho):
    """Subsets indexing the common constituents cut out by a type.

    The admissible pairs exclude (s, id) at every place; the answer is the
    interval J1 <= J <= complement of J2 in the subset lattice, J1 the
    places of (id, s) and J2 those of (id, id), in mask order.
    """
    f = rho.params.f
    if len(V.w) != f:
        raise ValueError("type length must equal f")
    j1 = set()
    j2 = set()
    for j in range(f):
        pair = (V.w[j], V.w_prime[j])
        if pair == ("s", "id"):
            raise ValueError("inadmissible pair (s, id) at place %d" % j)
        if pair == ("id", "s"):
            j1.add(j)
        elif pair == ("id", "id"):
            j2.add(j)
    return [J for J in subsets_of(f) if j1 <= J and not J & j2]
