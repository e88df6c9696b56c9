"""Every private module-level function of the package has a caller.

A function whose name starts with ``_`` is not exported, so a reference to
it elsewhere in ``src/ncres`` is its only reason to exist.  A reference
inside its own ``def`` (recursion) does not count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncres"


def _referenced_names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_private_functions(sources):
    """Names of the private module-level functions in ``sources`` (file
    name -> source text) that nothing outside their own def refers to."""
    private, used = set(), set()
    for text in sources.values():
        for node in ast.parse(text).body:
            own = None
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")):
                own = node.name
                private.add(own)
            used.update(n for n in _referenced_names(node) if n != own)
    return sorted(private - used)


def test_unreferenced_private_functions_detects_a_stray_def():
    sources = {"a.py": "def _used():\n    return 1\n\n\n"
                       "def _stray(n):\n    return _stray(n - 1)\n",
               "b.py": "from .a import _used\nx = _used()\n"}
    assert unreferenced_private_functions(sources) == ["_stray"]


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []
