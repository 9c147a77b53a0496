"""Every name a module of the package or a test module imports is used there,
every top-level def or class of the package is read by the package itself,
and every local a top-level function of the package assigns, and every
parameter it takes, is read.

Walks src/wittcycle/*.py and tests/*.py with ast: a name bound by an import
statement must be read somewhere in the module, or be listed in its __all__;
a function or class defined at the top of a package module must be read, by
name or as an attribute, by a package module other than __init__ (a read
from the tests or an __all__ entry does not count), except the two names
in READ_OUTSIDE_SRC; a name a top-level def of the package stores must be
loaded somewhere in that def (nested functions included), unless it is _;
so must each of its parameters, except in the _cmd_* handlers of the CLI,
which run calls uniformly as (ns, params).
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wittcycle"
# ids: a package module by its file name, a test module as tests/<name>
PACKAGE = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))]
MODULES = PACKAGE + [pytest.param(p, id="tests/" + p.name) for p in sorted(TESTS.glob("*.py"))]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _exported(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def _used(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)


def unused_imports(source):
    tree = ast.parse(source)
    used = _used(tree)
    return [(line, name) for line, name in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_unused_and_honours_all():
    src = "import os\nfrom a import b, c as d\n__all__ = ['b']\nos.sep\n"
    assert unused_imports(src) == [(2, "d")]


def _defined(tree):
    return [
        (node.lineno, node.name)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def _read(tree):
    nodes = list(ast.walk(tree))
    names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return names | {n.attr for n in nodes if isinstance(n, ast.Attribute)}


def dead_definitions(sources):
    """(module, line, name) of each top-level def or class in sources[module]
    that no module but __init__.py reads, by name or as an attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*(_read(t) for name, t in trees.items() if name != "__init__.py"))
    return [
        (module, line, name)
        for module, tree in trees.items()
        for line, name in _defined(tree)
        if name not in read
    ]


# read from outside the package only: gl2_mul is the generic GL2 oracle the
# tests check the fast kernels against, and perfbench's layer tracer times
# exchange_constant by module and name
READ_OUTSIDE_SRC = {"exchange_constant", "gl2_mul"}


def test_no_dead_definitions():
    src = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert {name for _, _, name in dead_definitions(src)} == READ_OUTSIDE_SRC


def test_checker_flags_dead_definitions():
    srcs = {
        "a.py": "def used():\n    pass\n\ndef dead():\n    pass\n\ndef exported():\n    pass\n",
        "b.py": "import a\na.used()\n",
        "__init__.py": "from a import exported\n__all__ = ['exported', 'dead']\nexported()\n",
    }
    assert dead_definitions(srcs) == [("a.py", 4, "dead"), ("a.py", 7, "exported")]


def unused_locals(source):
    """(line, function, name) of each name a top-level def stores but never
    loads, other than _."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
            loaded = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            out += [
                (n.lineno, node.name, n.id)
                for n in names
                if isinstance(n.ctx, ast.Store) and n.id not in loaded and n.id != "_"
            ]
    return out


@pytest.mark.parametrize("path", PACKAGE)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_checker_flags_unused_locals():
    src = (
        "def f(a):\n    q = a.q\n    b, _ = a\n    return [c for c in b]\n\n"
        "def g():\n    n = 0\n    def h():\n        return n\n    return h\n"
    )
    assert unused_locals(src) == [(2, "f", "q")]


def unused_parameters(source):
    """(line, function, name) of each parameter of a top-level def that its
    body never loads, other than _ and those of the _cmd_* handlers."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_cmd_"):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            loaded = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            out += [(x.lineno, node.name, x.arg) for x in params if x.arg not in loaded | {"_"}]
    return out


@pytest.mark.parametrize("path", PACKAGE)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_checker_flags_unused_parameters():
    src = (
        "def f(a, b, *args, c=1, **kw):\n    return a + c + len(kw)\n\n"
        "def g(_, x):\n    def h(y):\n        return x\n    return h\n\n"
        "def _cmd_v(ns, params):\n    return None, []\n"
    )
    assert unused_parameters(src) == [(1, "f", "b"), (1, "f", "args")]
