"""The group algebra of GL2(F_q) with coefficients in W(F_q)/p^N.

A group element is a 4-tuple of field codes (a, b, c, d) standing for the
matrix (a b; c d); a group-algebra element is a dict from group elements to
Witt tuples with zero coefficients dropped, so dict equality is equality in
the algebra.  Products of operator chains are always computed by pairwise
convolution, never by algebraic shortcut: the closed formulas live next to
the numeric route precisely so the two can be compared.

s_operator(i) is S+_i, the sum of [lambda]^i (1 0; lambda 1) over units;
index 0 sums over all of F_q with [0]^0 = 1, the augmented operator
(identity + index q-1).  The paper's S_i = w S+_i is not a second family:
the exchange route applies w to S+ products by a monomial map
(principal_series._w_map).

Every S+ chain is a product x y with x and y supported on U-, and
u-(lambda) u-(mu) = u-(lambda+mu).  u_convolve multiplies such a pair as
an additive convolution over (Z/p)^f by Kronecker substitution.  Each
operand is packed into one integer, one slot per (field digit vector,
t-degree), each slot wide enough in decimal digits for the bound
q f (p^N-1)^2 on a product coefficient, so no slot carries into the next.
The digit vector d of code lam = sum d_i p^i sits in cell sum d_i (2p-1)^i,
room for a digit sum, so most cells of an operand are padding.  The pack
never touches them: the q f coefficients fill one cached format string
by one % call, each run of p codes that differ only in digit 0 is parsed
as its own Decimal, and the runs are shifted into their cells and added,
digit 1 before digit 2, the fold below run backwards.
The integer is a decimal.Decimal, so the one big multiply runs on
libmpdec's number-theoretic transform, in a context that raises on any
rounding.  Field digits are folded mod p on the product itself, in the
same context, outermost digit first: the blocks of digits z and z+p are
added by one decimal shift and one add, then the p sums are cut apart and
their inner digits folded in turn.  Each partial sum is part of a fully
folded slot, below the bound the width is sized for, so no slot carries
here either.  Only the q (2f-1) folded slots are formatted and cut apart
by one struct call, and the t-degree columns of all q codes are reduced
by the modulus and mod p^N a column at a time (padic.witt_fold_columns):
no Python loop runs per slot.  This still
multiplies out term by term, only all terms at once; ga_multiply, the
generic GL2 product, stays as the oracle the tests check the kernel
against, and no command runs it.
scale_vector multiplies a vector by a scalar column by column too, in one
padic.witt_mul_columns call.

ga_multiply runs through every term pair and sums lazily.  A key is found
column by column, since g h = [g h_1 | g h_2]: the distinct columns of y
are listed once, each key g of x maps every one of them through the q x q
mul and add tables, and a pair only assembles its key from the images of
its two columns.  Each coefficient is packed in t as one integer
(padic.witt_pack), a pair costs one integer product, and the exact sum over
Z is reduced by the modulus and mod p^N once per output key
(padic.witt_unpack).  That reduction is a ring homomorphism, so the result
is the same as reducing every term.  Left and right translation are
injective, so a key collects at most min(|x|, |y|) pairs, and a
t-coefficient of one pair's product sums at most f terms below (p^N-1)^2;
slots of bit_length(min(|x|, |y|) f (p^N-1)^2) bits never carry.
principal_series.ps_act is this product followed by a Bruhat projection
onto the principal series basis.
"""

import decimal
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat

from wittcycle import _tables
from wittcycle.jacobi import factorial_mod_p, jacobi_sum
from wittcycle.padic import (
    PRECISION_INF,
    digits,
    escalate,
    valuation_and_unit,
    witt_add,
    witt_fold_columns,
    witt_from_int,
    witt_mul_columns,
    witt_pack,
    witt_sub,
    witt_unpack,
    witt_zero,
)

GL2_ID = (1, 0, 0, 1)
GL2_W = (0, 1, 1, 0)  # the antidiagonal involution


def scale_vector(vec, w, params):
    """The vector times the scalar w, zero coordinates dropped."""
    cols = list(zip(*vec.values())) or [()] * params.f
    prods = witt_mul_columns(cols, [repeat(c) for c in w], params)
    return {key: s for key, s in zip(vec, prods) if any(s)}


def s_operator(i, params):
    """S+_i, the generating family, as a group-algebra element on U-."""
    q = params.q
    i = int(i)
    if not 0 <= i <= q - 1:
        raise ValueError("index must lie in [0, q-1]")
    T = _tables.tables_for(params)
    exp, dlog = T.exp, T.dlog
    teich = _tables.teich_by_code(params)
    keys = _u_keys(q)
    # [lambda]^i = [g^(dlog(lambda) i)] over F_q, with [0]^0 = 1 (dlog[0] i
    # = 0 at i = 0): index 0 adds lambda = 0, the identity, to index q-1
    return {keys[lam]: teich[exp[dlog[lam] * i % (q - 1)]] for lam in range(0 if i == 0 else 1, q)}


@lru_cache(maxsize=None)
def _u_keys(q):
    """The keys u-(lam) = (1, 0, lam, 1), by code: one tuple per field."""
    return tuple((1, 0, lam, 1) for lam in range(q))


def ga_multiply(x, y, params):
    """Convolution product, computed term by term and reduced once per key."""
    T = _tables.tables_for(params)
    q, mul, add = T.q, T.mul, T.add
    qq = q * q
    width = (min(len(x), len(y)) * params.f * (params.pN - 1) ** 2).bit_length()
    # y's distinct columns, and each key of y as the indices of its two
    cols, pairs, ys = {}, [], []
    for (e, f, g2, h2), ch in y.items():
        pairs.append((cols.setdefault((e, g2), len(cols)), cols.setdefault((f, h2), len(cols))))
        ys.append(witt_pack(ch, width, params))
    acc = {}
    for (a, b, c, d), cg in x.items():
        # g h = [g h_1 | g h_2]: the image (a e + b g2, c e + d g2) of every
        # column, coded top q + bottom; a product key is image_1 q^2 + image_2
        ra, rb, rc, rd = (mul[r * q : r * q + q].tolist() for r in (a, b, c, d))
        imgs = [add[ra[e] * q + rb[g2]] * q + add[rc[e] * q + rd[g2]] for e, g2 in cols]
        cg = witt_pack(cg, width, params)
        for (i, j), ch in zip(pairs, ys):
            key = imgs[i] * qq + imgs[j]
            acc[key] = acc.get(key, 0) + cg * ch
    out = {}
    for key, s in acc.items():
        w = witt_unpack(s, width, 2 * params.f - 2, params)
        if any(w):
            img1, img2 = divmod(key, qq)
            (a, c), (b, d) = divmod(img1, q), divmod(img2, q)
            out[(a, b, c, d)] = w
    return out


# the multiply and the fold run on integral Decimals and must stay exact: a
# rounded product would be wrong in every slot
_EXACT = decimal.Context(
    decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    traps=[decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation],
)


@lru_cache(maxsize=None)
def _pack_format(q, f, width):
    """The text of a packed run of q codes, highest code first: per code
    f - 1 zero slots, then its t^(f-1), ..., t^0 coefficients."""
    return ("0" * ((f - 1) * width) + "%%0%dd" % width * f) * q


def _pack(x, width, params):
    """One Decimal whose base-10^width digits are x's coefficients: code
    lam = sum d_i p^i in cell sum d_i (2p-1)^i of 2f-1 slots, the
    coefficient of t^k in slot k, the layout _fold_blocks folds (module
    docstring)."""
    p, f, q, pN = params.p, params.f, params.q, params.pN
    coeffs = [0] * (q * f)
    for g, coeff in x.items():
        coeffs[g[2] * f : g[2] * f + f] = coeff
    text = _pack_format(q, f, width) % (*map(pN.__rmod__, reversed(coeffs)),)
    n = (2 * f - 1) * width  # the digits of one cell
    run = p * n
    # the runs of p codes that share digits 1, ..., f-1, highest first
    parts = [decimal.Decimal(text[i : i + run]) for i in range(0, len(text), run)]
    shift, add = _EXACT.shift, _EXACT.add
    # digit i steps by (2p-1)^i cells: join p parts per digit, digit 1 first
    block = n * (2 * p - 1)
    while len(parts) > 1:
        joined = []
        for i in range(0, len(parts), p):
            acc = parts[i]
            for part in parts[i + 1 : i + p]:
                acc = add(shift(acc, block), part)
            joined.append(acc)
        parts, block = joined, block * (2 * p - 1)
    return parts[0]


def _fold_blocks(x, d, n, p):
    """x read as (2p-1)^d blocks of n decimal digits, block z_0 + W*z_1 +
    ... + W^(d-1)*z_(d-1) from the low end, W = 2p-1, summed into p^d
    blocks z_0 + p*z_1 + ... by digits mod p.  Blocks z and z+p of the
    outermost digit are added by one shift and add, then the p sums are cut
    off from the top and their inner digits folded in turn."""
    shift, add, sub = _EXACT.shift, _EXACT.add, _EXACT.subtract
    b = n * (2 * p - 1) ** (d - 1)
    high = shift(x, -p * b)
    x = add(sub(x, shift(high, p * b)), high)
    if d == 1:
        return x
    out = decimal.Decimal(0)
    for z in reversed(range(p)):
        top = shift(x, -z * b)
        x = sub(x, shift(top, z * b))
        out = add(shift(out, n * p ** (d - 1)), _fold_blocks(top, d - 1, n, p))
    return out


def u_convolve(x, y, params):
    """The product x y, for x and y supported on U-.

    Every key is some u-(lam) = (1,0,lam,1).  Since u-(lam) u-(mu) =
    u-(lam+mu), the product is the additive convolution of the coefficient
    vectors over F_q = (Z/p)^f.  Returns the same dict as
    ga_multiply(x, y, params); raises ValueError if either operand leaves U-.
    """
    if any(a != 1 or b != 0 or d != 1 for a, b, _, d in chain(x, y)):
        raise ValueError("operands must lie on U-")
    if not x or not y:
        return {}
    p, f, q, T = params.p, params.f, params.q, 2 * params.f - 1
    # a product slot sums at most q*f products of two coefficients < p^N
    width = len(str(q * f * (params.pN - 1) ** 2))
    # no name holds the product, so it is freed as its digits are folded;
    # slot k + T*code of the folded number is the coefficient of t^k at code
    folded = _fold_blocks(
        _EXACT.multiply(_pack(x, width, params), _pack(y, width, params)),
        f,
        T * width,
        p,
    )
    text = format(folded, "f").encode().zfill(q * T * width)
    acc = list(map(int, struct.unpack("%ds" % width * (q * T), text)))[::-1]
    cols = witt_fold_columns([acc[k::T] for k in range(T)], params)
    return {key: w for key, w in zip(_u_keys(q), cols) if any(w)}


@dataclass(frozen=True)
class ContractionResult:
    """Decomposition S+_{i_1} ... S+_{i_k} = alpha * (unipotent cell sum) + beta * Id.

    alpha is the common coefficient on every nontrivial lower unipotent,
    beta the excess at the identity.  params is the context actually used
    (precision may have been raised to resolve the valuations).
    """

    alpha: tuple
    beta: tuple
    v_alpha: int
    lead_alpha: tuple
    v_beta: int
    lead_beta: tuple
    params: object


def s_product_closed(i, j, params):
    """The closed form of S+_i S+_j, 0 < i, j < q-1.

    J(i, j) S+_{i+j} when i+j is nonzero mod q-1; otherwise
    (-1)^(i+1) S+_0 + (-1)^i q id.
    """
    q = params.q
    m = (i + j) % (q - 1)
    if m:
        return scale_vector(s_operator(m, params), jacobi_sum(i, j, "standard", params), params)
    sign0 = 1 if (i + 1) % 2 == 0 else -1
    signq = q if i % 2 == 0 else -q
    out = scale_vector(s_operator(0, params), witt_from_int(sign0, params), params)
    # S+_0 is 1 at the identity, so that coordinate is a unit plus q
    out[GL2_ID] = witt_add(out[GL2_ID], witt_from_int(signq, params), params)
    return out


def contraction_valuation(indices, params):
    """Digit-counting prediction for v(beta): sum of (p-1-digit) over p-1."""
    p, f = params.p, params.f
    total = 0
    for i in indices:
        total += sum(p - 1 - d for d in digits(i, p, f))
    if total % (p - 1):
        raise ArithmeticError("digit total not divisible by p-1")
    return total // (p - 1)


def contraction_lead(indices, params):
    """Leading digit of beta as an integer mod p: signed product of digit factorials."""
    p, f = params.p, params.f
    v = contraction_valuation(indices, params)
    k = len(indices)
    out = 1
    for i in indices:
        for d in digits(i, p, f):
            out = out * factorial_mod_p(d, p) % p
    if (v + (k - 2) * (f - 1)) % 2:
        out = (-out) % p
    return out


def check_contract_pre(indices, params):
    q = params.q
    k = len(indices)
    if k < 2:
        raise ValueError("need at least two indices")
    total = 0
    for t, i in enumerate(indices, start=1):
        if not 0 < i < q - 1:
            raise ValueError("indices must lie strictly between 0 and q-1")
        total += i
        if t < k and total % (q - 1) == 0:
            raise ValueError("a proper partial sum is divisible by q-1")
    if total % (q - 1):
        raise ValueError("the full sum must be divisible by q-1")


def contract_splus(indices, params):
    """Multiply out a chain of S+ operators and split off alpha and beta.

    The chain must have every proper partial index sum nonzero mod q-1 and
    total zero mod q-1; the product is then supported on the lower
    unipotent cell plus the identity.  Precision is raised and the product
    recomputed whenever a valuation comes back unresolved.
    """
    indices = tuple(int(i) for i in indices)
    check_contract_pre(indices, params)
    return escalate(lambda work: _contract_once(indices, work), params, "contraction valuations")


def _contract_once(indices, params):
    prod = s_operator(indices[0], params)
    for i in indices[1:]:
        prod = u_convolve(prod, s_operator(i, params), params)
    # alpha is read at u-(1) and c_id at the identity; the product must be
    # alpha on every u-(lam), lam != 0, plus c_id at the identity, nothing else
    alpha = prod.get((1, 0, 1, 1), witt_zero(params))
    c_id = prod.get(GL2_ID, witt_zero(params))
    want = {(1, 0, lam, 1): alpha for lam in range(1, params.q)} if any(alpha) else {}
    if any(c_id):
        want[GL2_ID] = c_id
    if prod != want:
        raise ArithmeticError("product is not alpha on the unipotent cell plus the identity")
    beta = witt_sub(c_id, alpha, params)
    v_b, lead_b = valuation_and_unit(beta, params)
    v_a, lead_a = valuation_and_unit(alpha, params)
    if v_b is PRECISION_INF or v_a is PRECISION_INF:
        return None
    return ContractionResult(alpha, beta, v_a, lead_a, v_b, lead_b, params)
