"""Every private module-level function of the package has a caller, and so
does every public method of the engine's classes.

A function whose name starts with ``_`` is not exported, so a reference to
it elsewhere in ``src/ncres`` is its only reason to exist.  A public method
or property of a class in ``groebner``, ``modules``, ``homalg`` or ``ncr``
needs a reference in ``src/ncres`` too, unless the benchmark tracer hooks
it.  A reference inside its own ``def`` (recursion) does not count.
"""

import ast
import pathlib

from test_bench_hooks import _hooks

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncres"
ENGINE = ("groebner.py", "modules.py", "homalg.py", "ncr.py")


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


def unreferenced_public_methods(sources, checked, hooks):
    """``Class.method`` for each public method or property of a class in
    the files ``checked`` that no code in ``sources`` (file name -> source
    text) refers to outside its own def, and that is not in ``hooks``, a
    set of (module, "Class.method") pairs."""
    used = {}                  # name -> [(file name, line)]
    for fname, text in sources.items():
        for n in ast.walk(ast.parse(text)):
            name = (n.id if isinstance(n, ast.Name)
                    else n.attr if isinstance(n, ast.Attribute) else None)
            if name:
                used.setdefault(name, []).append((fname, n.lineno))
    stray = []
    for fname in checked:
        module = "ncres." + fname[:-len(".py")]
        for cls in ast.parse(sources[fname]).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (not isinstance(node, ast.FunctionDef)
                        or node.name.startswith("_")
                        or (module, f"{cls.name}.{node.name}") in hooks):
                    continue
                if not any(f != fname or not
                           node.lineno <= line <= node.end_lineno
                           for f, line in used.get(node.name, ())):
                    stray.append(f"{cls.name}.{node.name}")
    return sorted(stray)


def test_unreferenced_public_methods_detects_a_stray_method():
    sources = {"a.py": "class A:\n"
                       "    def used(self):\n        return 1\n\n"
                       "    @property\n"
                       "    def stray(self):\n        return self.stray\n\n"
                       "    def hooked(self):\n        return 2\n\n"
                       "    def _private(self):\n        return 3\n",
               "b.py": "from .a import A\nx = A().used()\n"}
    assert unreferenced_public_methods(
        sources, ("a.py",), {("ncres.a", "A.hooked")}) == ["A.stray"]


def test_every_public_method_is_referenced_or_hooked():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_public_methods(sources, ENGINE, set(_hooks())) == []
