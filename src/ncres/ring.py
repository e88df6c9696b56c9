"""Prime-field coefficients, sparse homogeneous polynomials and monomial orders.

Everything downstream works over R = F_p[x_1..x_r] with a global monomial
order.  Monomials are exponent tuples, polynomials are sparse maps from
exponent tuples to nonzero coefficients in 0..p-1.  All values are immutable
after construction.
"""

from __future__ import annotations

import operator
import re


class AlgebraError(Exception):
    """Base class for errors raised by the engine."""


class DegreeError(AlgebraError):
    """Incompatible homogeneous degrees."""


class ParseError(AlgebraError):
    """Malformed polynomial or job text."""


class EngineError(AlgebraError):
    """An internal consistency check failed: a fault of the engine, not of
    its input."""


GREVLEX = "grevlex"
LEX = "lex"
ORDERS = (GREVLEX, LEX)

# Miller-Rabin with the first 13 primes as bases is exact below _MR_BOUND
# (Sorenson & Webster 2015; bases up to 37 alone only reach 3.2e23)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n beyond its proven range."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise AlgebraError(f"cannot certify primality of {n}: too large")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# -- monomials ---------------------------------------------------------------
# A monomial is a tuple of non-negative exponents, one per ring variable.

def mono_degree(m: tuple) -> int:
    return sum(m)


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(operator.add, a, b))


def mono_divides(a: tuple, b: tuple) -> bool:
    """True when a divides b."""
    return all(map(operator.le, a, b))


def mono_div(a: tuple, b: tuple) -> tuple:
    """a / b, assuming b divides a."""
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(map(max, a, b))


class RingContext:
    """Ambient ring F_p[x_1..x_r] with a fixed monomial order; immutable,
    compared and hashed by (characteristic, variables, order)."""

    def __init__(self, characteristic: int = 101,
                 variables: tuple = ("x", "y"), order: str = GREVLEX):
        variables = tuple(variables)
        if not is_prime(characteristic):
            raise AlgebraError(f"characteristic {characteristic} is not prime")
        if len(variables) < 1:
            raise AlgebraError("need at least one variable")
        if len(set(variables)) != len(variables):
            raise AlgebraError("duplicate variable")
        if order not in ORDERS:
            raise AlgebraError(f"unknown order {order!r}")
        fields = self.__dict__
        fields["characteristic"] = characteristic
        fields["variables"] = variables
        fields["order"] = order

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.characteristic, self.variables, self.order)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"RingContext(characteristic={self.characteristic!r}, "
                f"variables={self.variables!r}, order={self.order!r})")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def inv(self, a: int) -> int:
        a %= self.characteristic
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.characteristic - 2, self.characteristic)

    def mono_key(self, m: tuple):
        """Sort key: larger key = larger monomial in the ring order.  Free
        modules order their packed terms by the same order (groebner.py)."""
        if self.order == GREVLEX:
            return (sum(m), tuple(-e for e in reversed(m)))
        return tuple(m)

    # -- element constructors ------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        c %= self.characteristic
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise AlgebraError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: 1})


class Polynomial:
    """Sparse polynomial with coefficients in F_p.

    ``terms`` maps exponent tuples to coefficients in 1..p-1; zero
    coefficients are never stored.  Instances are not mutated after
    construction.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: RingContext, terms: dict):
        p = ctx.characteristic
        clean = {}
        for m, c in terms.items():
            c %= p
            if c:
                clean[tuple(m)] = c
        self.ctx = ctx
        self.terms = clean

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Common total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(mono_degree(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {mono_degree(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic ----------------------------------------------------------

    def _check_ctx(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise AlgebraError("polynomials from different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ctx(other)
        if self.terms and other.terms:
            degs = {mono_degree(m) for m in self.terms}
            degs.update(mono_degree(m) for m in other.terms)
            if len(degs) > 1:
                raise DegreeError(
                    f"cannot add terms of degrees {sorted(degs)}")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(self.ctx, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ctx, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(
                self.ctx, {m: c * other for m, c in self.terms.items()})
        self._check_ctx(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return Polynomial(self.ctx, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.ctx == other.ctx
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


# -- text grammar ------------------------------------------------------------
# term = optional integer coefficient, '*'-separated powers like x^2*y;
# terms joined by '+'/'-'.  Canonical form: terms in descending monomial
# order, coefficients reduced to 0..p-1, so canonical text only uses '+'.

_VAR_RE = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?\Z")
_INT_RE = re.compile(r"\d+\Z")


def format_polynomial(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    parts = []
    for m in sorted(f.terms, key=f.ctx.mono_key, reverse=True):
        c = f.terms[m]
        factors = []
        for name, e in zip(f.ctx.variables, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


def parse_polynomial(text: str, ctx: RingContext) -> Polynomial:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms
    sign = 1
    start = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        start = 1
    cur = start
    pieces = []
    for i in range(start, len(s)):
        if s[i] in "+-":
            pieces.append((sign, s[cur:i]))
            sign = -1 if s[i] == "-" else 1
            cur = i + 1
    pieces.append((sign, s[cur:]))
    terms: dict = {}
    for sgn, term in pieces:
        if not term:
            raise ParseError(f"empty term in {text!r}")
        coeff = sgn
        exps = [0] * ctx.nvars
        for idx, part in enumerate(term.split("*")):
            if _INT_RE.match(part):
                if idx != 0:
                    raise ParseError(
                        f"integer coefficient must come first in {term!r}")
                coeff *= int(part)
                continue
            m = _VAR_RE.match(part)
            if not m:
                raise ParseError(f"bad factor {part!r} in {text!r}")
            name, power = m.group(1), m.group(2)
            if name not in ctx.variables:
                raise ParseError(f"unknown variable {name!r}")
            exps[ctx.variables.index(name)] += int(power) if power else 1
        mono = tuple(exps)
        terms[mono] = terms.get(mono, 0) + coeff
    return Polynomial(ctx, terms)
