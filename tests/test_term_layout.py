"""The bit layout of packed terms stays in ``groebner.py``.

``modules``, ``homalg``, ``ncr`` and ``cli`` build and read terms only
through ``term``, ``split_term``, ``term_pos``, ``shift_term``,
``is_constant`` and the vector forms ``shift_vec`` and ``split_vec``: they
use no shift or bitwise-and operator and import none of the layout's
widths, bounds or its per-ring layout object.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncres"

CLIENTS = ("modules.py", "homalg.py", "ncr.py", "cli.py")
BIT_OPS = (ast.LShift, ast.RShift, ast.BitAnd)
LAYOUT_NAMES = {"FIELD_BITS", "POS_BITS", "MAX_EXPONENT", "MAX_POSITION",
                "_Layout", "_layout"}


def layout_reads(source: str):
    """Line numbers of bit operators and of layout names, imported or read
    as attributes."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, BIT_OPS):
            out.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                a.name in LAYOUT_NAMES for a in node.names):
            out.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            out.append(node.lineno)
    return sorted(out)


def test_layout_reads_detects_stray_reads():
    src = ("from .groebner import term, FIELD_BITS\n"
           "def f(ctx, t):\n"
           "    return term(ctx, 0, (0,)) | (t >> 3)\n"
           "def g(t, k):\n"
           "    t &= k\n"
           "    return groebner._layout(t).guard & t\n"
           "def h(t):\n"
           "    return t | 1, t ^ 2, t + (1 << 4)\n")
    assert layout_reads(src) == [1, 3, 5, 6, 6, 8]


@pytest.mark.parametrize("name", CLIENTS)
def test_clients_read_no_term_bits(name):
    source = (SRC / name).read_text(encoding="utf-8")
    assert layout_reads(source) == []
