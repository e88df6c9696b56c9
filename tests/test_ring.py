import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import monomials_of_degree
from ncres.ring import (AlgebraError, DegreeError, ParseError, Polynomial,
                        RingContext, format_polynomial, is_prime, mono_degree,
                        mono_divides, mono_div, mono_lcm, mono_mul,
                        parse_polynomial)
from ncres.groebner import term


# -- prime field arithmetic --------------------------------------------------

@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    """[TRIVIAL] F_p axioms checked on every element for small p."""
    ctx = RingContext(p, ("x",))
    els = range(p)
    for a, b in itertools.product(els, repeat=2):
        assert (a + b) % p == (b + a) % p
        assert (a * b) % p == (b * a) % p
    for a, b, c in itertools.product(els, repeat=3):
        assert ((a + b) + c) % p == (a + (b + c)) % p
        assert ((a * b) * c) % p == (a * (b * c)) % p
        assert (a * (b + c)) % p == (a * b + a * c) % p
    for a in range(1, p):
        assert (a * ctx.inv(a)) % p == 1
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_is_prime():
    primes = {2, 3, 5, 7, 11, 13, 101}
    for n in range(-2, 120):
        assert is_prime(n) == (n in primes or
                               (n > 13 and n != 101 and _slow_prime(n)))


def _slow_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def test_is_prime_large_characteristic_is_fast():
    start = time.perf_counter()
    ctx = RingContext(2 ** 61 - 1, ("x",))
    assert time.perf_counter() - start < 1.0
    assert ctx.characteristic == 2 ** 61 - 1
    assert not is_prime(2 ** 61 + 1)
    with pytest.raises(AlgebraError):
        RingContext(2 ** 61 + 1, ("x",))


@pytest.mark.parametrize("n", [561, 41041, 3215031751])
def test_is_prime_rejects_pseudoprimes(n):
    """Carmichael numbers and the least strong pseudoprime to bases 2-7."""
    assert not is_prime(n)


def test_is_prime_refuses_beyond_certified_range():
    with pytest.raises(AlgebraError):
        is_prime(2 ** 89 - 1)


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2 ** rng.randrange(2, 65))
        assert is_prime(n) == sympy.isprime(n), n


def test_ring_context_validation():
    with pytest.raises(AlgebraError):
        RingContext(10, ("x",))
    with pytest.raises(AlgebraError):
        RingContext(101, ())
    with pytest.raises(AlgebraError):
        RingContext(101, ("x", "x"))
    with pytest.raises(AlgebraError):
        RingContext(101, ("x",), order="weird")


# -- monomials ---------------------------------------------------------------

def test_monomial_helpers():
    a, b = (2, 1, 0), (0, 1, 3)
    assert mono_degree(a) == 3
    assert mono_mul(a, b) == (2, 2, 3)
    assert mono_lcm(a, b) == (2, 1, 3)
    assert mono_divides((1, 1, 0), a)
    assert not mono_divides(b, a)
    assert mono_div(mono_mul(a, b), b) == a


def test_monomials_of_degree_count():
    # [TRIVIAL] stars and bars
    from math import comb
    for n in (1, 2, 3):
        for d in range(5):
            ms = list(monomials_of_degree(n, d))
            assert len(ms) == comb(d + n - 1, n - 1)
            assert len(set(ms)) == len(ms)
            assert all(mono_degree(m) == d for m in ms)


monos3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@given(a=monos3, b=monos3, c=monos3)
def test_order_is_multiplicative(a, b, c):
    ctx = RingContext(101, ("x", "y", "z"))
    ka, kb = ctx.mono_key(a), ctx.mono_key(b)
    assert (ka < kb) == (ctx.mono_key(mono_mul(a, c))
                         < ctx.mono_key(mono_mul(b, c)))
    if a != b:
        assert ka != kb


@given(a=monos3, b=monos3)
def test_grevlex_is_graded(a, b):
    ctx = RingContext(101, ("x", "y", "z"))
    if mono_degree(a) < mono_degree(b):
        assert ctx.mono_key(a) < ctx.mono_key(b)


@given(a=monos3, b=monos3)
def test_descending_key_reverses_the_order(a, b):
    """Packed terms in one position: ascending ints, descending monomials."""
    for order in ("grevlex", "lex"):
        ctx = RingContext(101, ("x", "y", "z"), order=order)
        assert (term(ctx, 0, a) < term(ctx, 0, b)) == \
            (ctx.mono_key(a) > ctx.mono_key(b))


def test_grevlex_vs_lex_disagree():
    grev = RingContext(101, ("x", "y"), order="grevlex")
    lex = RingContext(101, ("x", "y"), order="lex")
    # x^2 vs x*y^3: lex prefers x^2... no, compares exponent of x first
    a, b = (2, 0), (1, 3)
    assert grev.mono_key(a) < grev.mono_key(b)
    assert lex.mono_key(a) > lex.mono_key(b)


# -- polynomials -------------------------------------------------------------

def homogeneous_polys(ctx, degree=None):
    degs = st.just(degree) if degree is not None else st.integers(0, 3)

    def build(d, coeffs):
        ms = list(monomials_of_degree(ctx.nvars, d))
        return Polynomial(ctx, {m: c for m, c in zip(ms, coeffs)})

    return degs.flatmap(lambda d: st.builds(
        build, st.just(d),
        st.lists(st.integers(0, 100),
                 min_size=len(list(monomials_of_degree(ctx.nvars, d))),
                 max_size=len(list(monomials_of_degree(ctx.nvars, d))))))


CTX = RingContext(101, ("x", "y"))


@given(f=homogeneous_polys(CTX, 2), g=homogeneous_polys(CTX, 2),
       h=homogeneous_polys(CTX, 3))
@settings(max_examples=50)
def test_polynomial_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + g) == f * g + f * g
    assert (f - f).is_zero()
    assert f * CTX.one() == f
    assert (f * CTX.zero()).is_zero()


@given(f=homogeneous_polys(CTX), g=homogeneous_polys(CTX))
@settings(max_examples=50)
def test_product_degree(f, g):
    fg = f * g
    if f.is_zero() or g.is_zero():
        assert fg.is_zero()
    else:
        assert fg.degree == f.degree + g.degree
        assert fg.is_homogeneous()


def test_strict_homogeneous_addition():
    x, y = CTX.variable("x"), CTX.variable("y")
    with pytest.raises(DegreeError):
        _ = x + x * y
    assert (x + y).is_homogeneous()
    assert (x + CTX.zero()) == x
    # an inhomogeneous operand is refused too, whichever side it is on
    mixed = parse_polynomial("x + y^2", CTX)
    with pytest.raises(DegreeError):
        _ = x + mixed
    with pytest.raises(DegreeError):
        _ = mixed + x
    with pytest.raises(DegreeError):
        _ = mixed - x
    assert (x + (-x)).is_zero()
    assert mixed + CTX.zero() == mixed


def test_leading_data():
    """Leading data is read off packed terms: the smallest term of a
    polynomial's vector is its leading term."""
    x, y = CTX.variable("x"), CTX.variable("y")
    f = 3 * x * x + 5 * x * y
    v = {term(CTX, 0, m): c for m, c in f.terms.items()}
    assert min(v) == term(CTX, 0, (2, 0)) and v[min(v)] == 3


# -- parse / format ----------------------------------------------------------

@given(f=homogeneous_polys(CTX))
@settings(max_examples=80)
def test_format_parse_round_trip(f):
    assert parse_polynomial(format_polynomial(f), CTX) == f


def test_parse_examples():
    x, y = CTX.variable("x"), CTX.variable("y")
    assert parse_polynomial("x^2 - y^2", CTX) == x * x - y * y
    assert parse_polynomial("-x", CTX) == -x
    assert parse_polynomial("2*x*y + 3*x*y", CTX) == 5 * x * y
    assert parse_polynomial("0", CTX).is_zero()
    assert parse_polynomial("100*x", CTX) == -x


def test_parse_errors():
    for bad in ("", "q", "x^", "x**y", "x+", "x*2"):
        with pytest.raises(ParseError):
            parse_polynomial(bad, CTX)


def test_format_is_canonical():
    f = parse_polynomial("y^2 + x*y", CTX)
    assert format_polynomial(f) == "x*y + y^2"
