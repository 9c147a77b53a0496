"""The FieldTables columns against their definitions, element by element."""

import random

import pytest

from wittcycle import padic
from wittcycle._tables import FieldTables, tables_for
from wittcycle.padic import Params, witt_add, witt_mul, witt_one, witt_pow, witt_sub, witt_zero


def _order(e, residue):
    # e a unit of F_q: the least k >= 1 with e^k = 1
    one, cur, k = witt_one(residue), e, 1
    while cur != one:
        cur, k = witt_mul(cur, e, residue), k + 1
    return k


@pytest.mark.parametrize("p, f", [(7, 1), (7, 2), (11, 2), (7, 3)], ids=["q7", "q49", "q121", "q343"])
def test_field_tables_match_definitions(p, f):
    T = tables_for(Params.make(p, f))
    q, m, residue, elems, code_of = T.q, T.q - 1, T.residue, T.elems, T.code_of
    one, zero = witt_one(residue), witt_zero(residue)
    g = next(c for c in range(1, q) if _order(elems[c], residue) == m)
    assert T.generator == g
    assert list(T.exp) == [code_of[witt_pow(elems[g], k, residue)] for k in range(m)]
    assert T.dlog[0] == -1 and all(T.dlog[T.exp[k]] == k for k in range(m))
    assert all(witt_mul(elems[T.inv[a]], elems[a], residue) == one for a in range(1, q))
    assert all(witt_add(elems[T.neg[a]], elems[a], residue) == zero for a in range(q))
    assert T.zech[0] == -1
    for k in range(1, m):
        assert T.zech[k] == T.dlog[code_of[witt_sub(one, elems[T.exp[k]], residue)]]
    # the oracle's q x q tables: every pair up to q = 121, and every row
    # against 200 sampled columns at q = 343
    cols = range(q) if q <= 121 else random.Random(q).sample(range(q), 200)
    for a in range(q):
        ea = elems[a]
        assert [T.mul[a * q + b] for b in cols] == [
            code_of[witt_mul(ea, elems[b], residue)] for b in cols
        ], a
        assert [T.add[a * q + b] for b in cols] == [
            code_of[witt_add(ea, elems[b], residue)] for b in cols
        ], a


def test_add_table_makes_no_ring_call(monkeypatch):
    # add is read off exp, dlog and zech, like mul: no witt_add per pair
    calls = []
    ring_add = padic.witt_add

    def counted(x, y, params):
        calls.append(None)
        return ring_add(x, y, params)

    monkeypatch.setattr(padic, "witt_add", counted)
    params = Params.make(7, 2)
    T = FieldTables(params.p, params.f, params.modulus)
    assert len(T.add) == params.q**2
    assert calls == []
