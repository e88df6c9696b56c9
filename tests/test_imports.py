"""Every module of the package and of the test suite uses each name it
imports.  An import marked ``# noqa: F401`` is kept for its side effect."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the package __init__ imports names in order to re-export them
MODULES = sorted(p for p in (ROOT / "src" / "ncres").glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detects_a_stray_name():
    src = "import os\nfrom .ring import Polynomial, parse\nparse(os.sep)\n"
    assert unused_imports(src) == ["Polynomial"]


def test_unused_imports_exempts_a_marked_import():
    src = "import ncres  # noqa: F401\nimport os\n"
    assert unused_imports(src) == ["os"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=(
    [p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS]))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
