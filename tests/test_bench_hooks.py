"""Every name the benchmark harness in ``perfbench/`` looks up in ncres exists.

The tracer wraps functions by (module, attribute) and the worker imports
entry points by name, so a rename or deletion in ``src/`` would otherwise
only show up as a broken ``perfbench/run.py --trace 1``.  The harness files
are parsed, never imported or modified.
"""

import ast
import pathlib
import subprocess
import sys

import pytest

import ncres  # noqa: F401  registers every ncres.* module in sys.modules

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

pytestmark = pytest.mark.skipif(not PERFBENCH.is_dir(),
                                reason="perfbench/ not present")


def _parse(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _table(tree, name):
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == name):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py has no {name} table")


def _hooks():
    tree = _parse("tracer.py")
    return [(module, attr) for table in ("SPANS", "COUNTS")
            for module, attr, _ in _table(tree, table)]


@pytest.mark.parametrize("module,attr", _hooks())
def test_tracer_target_resolves(module, attr):
    # the same lookup as tracer._resolve, then vars(owner)[attr]
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attr)), f"{module}.{attr}"


def test_import_ncres_loads_every_traced_module():
    """The tracer reads modules from sys.modules without importing them."""
    modules = sorted({module for module, _ in _hooks()})
    code = ("import sys, ncres; "
            f"missing = [m for m in {modules!r} if m not in sys.modules]; "
            "assert not missing, missing")
    subprocess.run([sys.executable, "-c", code], check=True)


def _imported_names():
    out = []
    for fname in ("worker.py", "trace_child.py"):
        for node in ast.walk(_parse(fname)):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("ncres")):
                out += [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Attribute):
                chain = []
                while isinstance(node, ast.Attribute):
                    chain.append(node.attr)
                    node = node.value
                if isinstance(node, ast.Name) and node.id == "ncres":
                    chain.reverse()
                    out.append((".".join(["ncres"] + chain[:-1]), chain[-1]))
    return sorted(set(out))


def test_worker_imports_found():
    assert _imported_names(), "no ncres names found in perfbench/"


@pytest.mark.parametrize("module,attr", _imported_names())
def test_worker_import_resolves(module, attr):
    __import__(module)
    assert hasattr(sys.modules[module], attr), f"{module}.{attr}"
