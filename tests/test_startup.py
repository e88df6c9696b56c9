"""Importing ncres stays cheap, and RingContext keeps its value semantics.

Every job of the batch interface is its own process, so what ``import
ncres`` loads is paid once per job.  The record classes are plain classes
and ``typing.NamedTuple``s: ``dataclasses`` would bring ``inspect``,
``ast``, ``dis`` and ``tokenize`` with it.  RingContext's repr is part of
the benchmark tracer's term-order fingerprint, so it is pinned here.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from ncres.groebner import term
from ncres.ring import RingContext

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_dataclasses_out():
    code = ("import sys, ncres, ncres.cli\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'ast')"
            " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_ring_context_repr_is_pinned():
    assert repr(RingContext()) == ("RingContext(characteristic=101, "
                                   "variables=('x', 'y'), order='grevlex')")
    ctx = RingContext(32003, ["a", "b", "c"], "lex")
    assert repr(ctx) == ("RingContext(characteristic=32003, "
                         "variables=('a', 'b', 'c'), order='lex')")


def test_ring_context_equality_and_hash():
    ctx = RingContext(101, ("x", "y"), "grevlex")
    same = RingContext(characteristic=101, variables=["x", "y"])
    assert ctx == same and not ctx != same
    assert hash(ctx) == hash(same) == hash((101, ("x", "y"), "grevlex"))
    for other in (RingContext(103, ("x", "y")), RingContext(101, ("y", "x")),
                  RingContext(101, ("x", "y"), "lex"),
                  RingContext(101, ("x", "y", "z"))):
        assert ctx != other
    assert ctx != (101, ("x", "y"), "grevlex")
    assert len({ctx, same, RingContext(101, ("x", "y"), "lex")}) == 2
    # the packed-term layout kept on a context is not a field
    term(ctx, 0, (1, 2))
    assert ctx == same and hash(ctx) == hash(same)
    assert repr(ctx) == repr(same)


def test_ring_context_is_frozen():
    ctx = RingContext()
    for name in ("characteristic", "variables", "order", "other"):
        with pytest.raises(AttributeError):
            setattr(ctx, name, 5)
        with pytest.raises(AttributeError):
            delattr(ctx, name)
    assert ctx == RingContext()
