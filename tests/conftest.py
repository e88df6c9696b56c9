import contextlib
import gc
import os
import pathlib
import signal
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS))
# the CLI runs in child processes too: they find the package in src, as
# this process does through pytest's pythonpath setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (str(TESTS.parent / "src"), os.environ.get("PYTHONPATH"))))

from ncres.ring import RingContext
from ncres.groebner import FreeModuleMap
from ncres.modules import FPModule, free_module, make_module, syzygy


def residue_field(ctx):
    """k = R/(x_1..x_r) as an FPModule."""
    vs = [ctx.variable(v) for v in ctx.variables]
    return make_module([0], FreeModuleMap(ctx, (1,) * ctx.nvars, (0,),
                                          [[v] for v in vs]), ctx)


def unrecorded(m):
    """A copy of m that records no summands: the same presentation, which
    every check reads whole."""
    return FPModule(m.ctx, m.gen_degrees, m.relations)


def maximal_ideal(ctx):
    """m = (x_1..x_r) as a module: the first syzygy of k."""
    return syzygy(residue_field(ctx), 1)


def square_quotient(ctx):
    """R/m^2."""
    import itertools
    vs = [ctx.variable(v) for v in ctx.variables]
    cols = [[a * b] for a, b in
            itertools.combinations_with_replacement(vs, 2)]
    degs = (2,) * len(cols)
    return make_module([0], FreeModuleMap(ctx, degs, (0,), cols), ctx)


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise DeadlineExceeded in the block once it has run ``seconds``
    whole seconds, so that a hang fails the test (SIGALRM, main thread)."""
    def expired(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@contextlib.contextmanager
def collector_off():
    """Run the block with the cyclic garbage collector off, after one full
    collection, so that only reference counting frees what it builds."""
    was_on = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


def module_family(ctx):
    """Named test modules over ctx; all finitely presented and graded."""
    fam = {"R": free_module(ctx), "k": residue_field(ctx),
           "m": maximal_ideal(ctx), "R/m2": square_quotient(ctx)}
    if ctx.nvars >= 2:
        fam["omega2"] = syzygy(residue_field(ctx), 2)
    return fam


@pytest.fixture(scope="session")
def ctx1():
    return RingContext(101, ("x",))


@pytest.fixture(scope="session")
def ctx2():
    return RingContext(101, ("x", "y"))


@pytest.fixture(scope="session")
def ctx3():
    return RingContext(101, ("x", "y", "z"))


@pytest.fixture(scope="session")
def k2(ctx2):
    return residue_field(ctx2)


@pytest.fixture(scope="session")
def k3(ctx3):
    return residue_field(ctx3)
