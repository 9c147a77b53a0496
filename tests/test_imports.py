"""Every name a module of the package or a test module imports is used there.

Walks src/wittcycle/*.py and tests/*.py with ast: a name bound by an import
statement must be read somewhere in the module, or be listed in its __all__.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wittcycle"
# ids: a package module by its file name, a test module as tests/<name>
MODULES = [pytest.param(p, id=p.name) for p in sorted(SRC.glob("*.py"))] + [
    pytest.param(p, id="tests/" + p.name) for p in sorted(TESTS.glob("*.py"))
]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


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
