"""Free-module maps are read as sparse vectors inside the engine.

``FreeModuleMap.cols`` rebuilds dense Polynomial columns on every read, for
printing and tests.  Inside ``src/ncres`` only the class itself and the
report printer ``cli._module_desc`` may read it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncres"

# file -> the class or function names inside which ``.cols`` may be read
ALLOWED = {"groebner.py": {"FreeModuleMap"}, "cli.py": {"_module_desc"}}


def dense_reads(source: str, names):
    """Line numbers of ``.cols`` reads outside the scopes ``names``."""
    out = []

    def visit(node, allowed):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            allowed = allowed or node.name in names
        if (isinstance(node, ast.Attribute) and node.attr == "cols"
                and not allowed):
            out.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return out


def test_dense_reads_detects_a_stray_read():
    src = ("class FreeModuleMap:\n    def f(self):\n        return self.cols\n"
           "def _module_desc(m):\n    return m.relations.cols\n"
           "def g(m):\n    return m.cols[0]\n")
    assert dense_reads(src, {"FreeModuleMap", "_module_desc"}) == [7]
    assert dense_reads(src, {"FreeModuleMap"}) == [5, 7]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_engine_reads_no_dense_columns(path):
    names = ALLOWED.get(path.name, set())
    assert dense_reads(path.read_text(encoding="utf-8"), names) == []
