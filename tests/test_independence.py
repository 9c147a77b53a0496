"""The numeric route never reads a closed formula.

Exchange constants are multiplied out on U- and w and only afterwards
compared with the Jacobi-sum and digit-count formulas.  If a function of the
numeric route read one of those formulas, directly or through any package
function it reads, the two routes would stop being independent.  In the same
way stickelberger-scan checks the Teichmuller sum jacobi_sum against the
digit counting of stickelberger_data, so the sum must not read the digit
counting either, and the generic GL2 products ga_multiply and ps_act, the
oracle the U- kernel is checked against, must not read the kernel, its
packing, the column arithmetic or the exchange route's maps, and neither
may the oracle's test-only helpers in tests/oracle.py; nor may the closed
forms read the kernel or the exchange route.  In group_algebra and
principal_series the numeric route reaches only THREE_PIECES' defs.  The
selftest's Frobenius check of the kernel reads neither a closed form nor
the oracle.  Walks src/wittcycle/*.py (and tests/oracle.py for the oracle)
with ast: from each root, every top-level def or class whose name a reached
body reads is followed in turn, and the names read along the way must miss
the forbidden set.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wittcycle"
CLOSED = {
    "jacobi_sum",
    "stickelberger_data",
    "contraction_lead",
    "contraction_valuation",
    "step_lead_formula",
    "s_product_closed",
}
NUMERIC = [
    "exchange_coefficient",
    "_exchange_once",
    "exchange_vectors",
    "_w_map",
    "_contract_once",
]

JACOBI = [
    "jacobi_sum",
    "_packed_powers",
    "_lane_table",
    "_exponent_lanes",
    "_lanes_mod",
    "_lane_divisor",
    "_pack_lanes",
    "_unpack_lanes",
    "_lane_struct",
]
DIGIT_COUNTING = {"stickelberger_data", "factorial_mod_p", "_factorials_mod"}

# the generic products and what tests/oracle.py builds with them;
# eigen_check compares ps_act with a scale_vector multiple, column arithmetic
ORACLE = [
    "ga_multiply",
    "ps_act",
    "gl2_mul",
    "gl2_det",
    "s_by_oracle",
    "h_components",
    "h_component_characters",
]
KERNEL = {
    "u_convolve",
    "_pack",
    "_pack_format",
    "_fold_blocks",
    "witt_fold_columns",
    "witt_mul_columns",
    "exchange_vectors",
    "_w_map",
}

# what the numeric route may reach in the operator modules: the U-
# convolution with its packing, the kernels and the w-map, the exchange
# vectors and their check, and the records they return or raise
OPERATOR_MODULES = ("group_algebra.py", "principal_series.py")
THREE_PIECES = {
    "u_convolve",
    "_pack",
    "_pack_format",
    "_fold_blocks",
    "s_operator",
    "_u_keys",
    "scale_vector",
    "_w_map",
    "exchange_vectors",
    "_exchange_once",
    "ContractionResult",
    "ExchangeError",
}

# what the closed forms must not read: the kernel and the exchange route,
# without the column arithmetic of padic
ROUTE = KERNEL - {"witt_fold_columns", "witt_mul_columns"}


def definitions(sources):
    """Top-level defs and classes of the given module texts, by name."""
    return {
        node.name: node
        for text in sources
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _names(node):
    nodes = list(ast.walk(node))
    return {n.id for n in nodes if isinstance(n, ast.Name)} | {
        n.attr for n in nodes if isinstance(n, ast.Attribute)
    }


def reached(roots, defs):
    """Every name read by the roots or by a definition they reach."""
    seen, todo, names = set(), list(roots), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        read = _names(defs[name])
        names |= read
        todo += [n for n in read if n in defs]
    return names


def test_numeric_route_reads_no_closed_formula():
    defs = definitions(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert set(NUMERIC) <= set(defs)
    assert CLOSED <= set(defs)
    assert reached(NUMERIC, defs) & CLOSED == set()


def test_numeric_route_reaches_only_the_three_pieces():
    # the U- convolution and the w-map of group_algebra and principal_series;
    # the Jacobi sum is checked against afterwards, never read
    defs = definitions(p.read_text() for p in sorted(SRC.glob("*.py")))
    operator_defs = definitions((SRC / name).read_text() for name in OPERATOR_MODULES)
    assert THREE_PIECES <= set(operator_defs)
    reached_defs = reached(["exchange_coefficient", "_contract_once"], defs) & set(operator_defs)
    assert reached_defs <= THREE_PIECES, reached_defs - THREE_PIECES


def test_jacobi_sum_reads_no_digit_counting():
    defs = definitions(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert set(JACOBI) <= set(defs)
    assert DIGIT_COUNTING <= set(defs)
    assert reached(JACOBI, defs) & DIGIT_COUNTING == set()


def test_closed_forms_read_no_kernel():
    # the closed side may multiply columns (ring arithmetic, like witt_mul),
    # but none of the U- kernel or the exchange route
    defs = definitions(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert CLOSED <= set(defs)
    assert ROUTE <= set(defs)
    assert reached(CLOSED, defs) & ROUTE == set()


def test_oracle_reads_no_kernel():
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    defs = definitions(texts + [(TESTS / "oracle.py").read_text()])
    assert set(ORACLE) <= set(defs)
    assert KERNEL <= set(defs)
    names = reached(ORACLE, defs)
    # the walk passes through FieldTables, whose add table is read off the
    # Zech column, so the check covers how the oracle's tables are built
    assert {"FieldTables", "zech"} <= names
    assert names & KERNEL == set()


def test_frobenius_check_reads_no_closed_form_and_no_oracle():
    # the selftest's large-q kernel check besides the closed forms: two
    # kernel products and the exp and dlog columns, nothing else
    defs = definitions(p.read_text() for p in sorted(SRC.glob("*.py")))
    assert "_frobenius_equivariant" in defs
    names = reached(["_frobenius_equivariant"], defs)
    assert "u_convolve" in names
    assert names & (CLOSED | set(ORACLE)) == set()


def test_checker_follows_reads():
    defs = definitions(
        [
            "def a():\n    return b\n",
            "def b():\n    return m.jacobi_sum(1)\n\ndef c():\n    return a\n",
            "def d(x):\n    return x\n",
        ]
    )
    assert "jacobi_sum" in reached(["c"], defs)
    assert "jacobi_sum" not in reached(["d"], defs)
