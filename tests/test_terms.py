"""Packed terms: one int per (position, monomial) whose integer order is the
term order.

The references are the tuple keys the engine sorted terms by before terms
were packed: ``(desc_key(m), pos)`` for the term order and ``(pos >= split,
desc_key(m), pos)`` for the elimination order of ``_extended_gb``, where
``desc_key`` is the componentwise negation of ``RingContext.mono_key``.
"""

import itertools
import random

import pytest

from ncres import groebner
from ncres.groebner import (MAX_EXPONENT, MAX_POSITION, FreeModuleMap,
                            buchberger, is_constant, shift_term, shift_vec,
                            split_term, split_vec, term, term_pos)
from ncres.ring import (AlgebraError, RingContext, mono_divides, mono_mul,
                        parse_polynomial)

SPLIT = 2


def desc_key(ctx, m):
    if ctx.order == "grevlex":
        return (-sum(m), m[::-1])
    return tuple(-e for e in m)


def sample(seed, nvars, n=40, top=6):
    """Seeded (position, monomial) pairs: small exponents, so that equal
    degrees and divisibility are common, and a few near MAX_EXPONENT / 2."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        big = rng.random() < 0.2
        m = tuple(rng.randrange(MAX_EXPONENT // 2)
                  if big and rng.random() < 0.5 else rng.randrange(top)
                  for _ in range(nvars))
        out.append((rng.randrange(2 * SPLIT), m))
    return out


CASES = [(nvars, order, seed) for nvars in (1, 2, 3, 4)
         for order in ("grevlex", "lex") for seed in range(3)]


def ctx_of(nvars, order):
    return RingContext(101, ("a", "b", "c", "d")[:nvars], order)


def elim_term(ctx, pos, m):
    """The term as ``_extended_gb`` makes it: flagged from SPLIT on."""
    flag = groebner._layout(ctx).elim if pos >= SPLIT else 0
    return term(ctx, pos, m) + flag


@pytest.mark.parametrize("nvars, order, seed", CASES)
def test_integer_order_is_the_term_order(nvars, order, seed):
    ctx = ctx_of(nvars, order)
    pairs = sample(seed, nvars)
    for (p1, m1), (p2, m2) in itertools.product(pairs, repeat=2):
        want = (desc_key(ctx, m1), p1) < (desc_key(ctx, m2), p2)
        assert (term(ctx, p1, m1) < term(ctx, p2, m2)) == want
        want = ((p1 >= SPLIT, desc_key(ctx, m1), p1)
                < (p2 >= SPLIT, desc_key(ctx, m2), p2))
        assert (elim_term(ctx, p1, m1) < elim_term(ctx, p2, m2)) == want


@pytest.mark.parametrize("nvars, order, seed", CASES)
def test_product_is_one_add(nvars, order, seed):
    ctx = ctx_of(nvars, order)
    for (pos, a), (_, b) in zip(sample(seed, nvars), sample(seed + 7, nvars)):
        ab = mono_mul(a, b)
        assert term(ctx, pos, a) + term(ctx, 0, b) == term(ctx, pos, ab)
        assert (elim_term(ctx, pos, a) + term(ctx, 0, b)
                == elim_term(ctx, pos, ab))


@pytest.mark.parametrize("nvars, order, seed", CASES)
def test_guard_bits_decide_divisibility(nvars, order, seed):
    ctx = ctx_of(nvars, order)
    guard = groebner._layout(ctx).guard
    pairs = sample(seed, nvars)
    hits = 0
    for (pos, a), (_, b) in itertools.product(pairs, repeat=2):
        for make in (term, elim_term):
            divides = not (make(ctx, pos, b) - make(ctx, pos, a)) & guard
            assert divides == mono_divides(a, b)
            hits += divides
    assert hits > len(pairs)   # not only a == b


@pytest.mark.parametrize("nvars, order, seed", CASES)
def test_split_inverts_term(nvars, order, seed):
    ctx = ctx_of(nvars, order)
    for pos, m in sample(seed, nvars):
        for t in (term(ctx, pos, m), elim_term(ctx, pos, m)):
            assert split_term(ctx, t) == (pos, m)
            assert term_pos(ctx, t) == pos
        t = term(ctx, pos, m)
        assert split_term(ctx, shift_term(ctx, t, 3)) == (pos + 3, m)
        assert is_constant(ctx, t) == (not any(m))


@pytest.mark.parametrize("nvars, order, seed", CASES)
def test_vector_forms_match_term_forms(nvars, order, seed):
    """shift_vec and split_vec act term by term as shift_term and term_pos
    do."""
    ctx = ctx_of(nvars, order)
    v = {term(ctx, pos, m): 1 + i for i, (pos, m) in
         enumerate(sample(seed, nvars))}
    for k in (0, 3, 7):
        assert shift_vec(ctx, v, k) == {shift_term(ctx, t, k): c
                                        for t, c in v.items()}
    for size in (1, 2, 3):
        parts = split_vec(ctx, v, size, 2 * SPLIT)
        joined = {}
        for j, part in enumerate(parts):
            assert all(term_pos(ctx, t) < size for t in part)
            joined.update(shift_vec(ctx, part, j * size))
        assert joined == v


def test_out_of_range_terms_are_refused():
    ctx = ctx_of(2, "grevlex")
    assert split_term(ctx, term(ctx, 0, (MAX_EXPONENT, 0))) == \
        (0, (MAX_EXPONENT, 0))
    for pos, m in ((0, (MAX_EXPONENT + 1, 0)), (0, (0, -1)), (-1, (0, 0)),
                   (0, (1, 2, 3))):
        with pytest.raises(AlgebraError):
            term(ctx, pos, m)
    with pytest.raises(AlgebraError):
        shift_term(ctx, term(ctx, 1, (0, 0)), -2)
    v = {term(ctx, 1, (0, 0)): 1, term(ctx, 3, (1, 0)): 1}
    with pytest.raises(AlgebraError):
        shift_vec(ctx, v, -2)
    with pytest.raises(AlgebraError):
        shift_vec(ctx, v, MAX_POSITION - 2)
    assert shift_vec(ctx, v, MAX_POSITION - 3)


def test_spair_lcm_past_the_bound_is_refused():
    """A composition may leave a^80000 in a column, past MAX_EXPONENT; the
    S-pair with b would need that exponent in its lcm and is refused."""
    ctx = ctx_of(2, "grevlex")
    a = parse_polynomial("a^40000", ctx)
    m = FreeModuleMap(ctx, (40000,), (0,), [[a]])
    square = m.regraded((0,), (-40000,)).compose(m)
    assert split_term(ctx, min(square.column_vec(0))) == (0, (80000, 0))
    b = {term(ctx, 0, (0, 1)): 1}
    with pytest.raises(AlgebraError, match="exceed"):
        buchberger([square.column_vec(0), b], ctx)
    # one factor alone is within the bound
    assert len(buchberger([m.column_vec(0), b], ctx).generators) == 2
