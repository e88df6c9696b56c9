"""Buchberger's algorithm on submodules of graded free modules.

Free-module elements are sparse dicts mapping packed terms (below) to a
coefficient.  Syzygies and lifts both come from one mechanism: a Groebner
basis, under an elimination order, of the columns of a block [x | y] with a
flagged unit vector added to each column of x only.  Its elements led by a
flagged term give the relative syzygies {c : x c in im y}, and normal forms
give lift coefficients on x modulo im y (Greuel & Pfister, *A Singular
Introduction to Commutative Algebra*, 2.8, ``modulo``); with y empty these
are the syzygies of x and plain lifts.
"""

from __future__ import annotations

import heapq
import operator

from .ring import (LEX, AlgebraError, DegreeError, Polynomial, RingContext,
                   mono_degree, mono_div, mono_lcm)

# -- packed terms -------------------------------------------------------------
# The term x^m e_pos of a free module over R = F_p[x_0..x_{n-1}] is one int
#
#     T = (D(m) << (POS_BITS + EB)) + (pos << EB) + E(m),  EB = n * FIELD_BITS
#
# E(m) holds exponent e_i in the FIELD_BITS-bit field at bit i * FIELD_BITS;
# the top bit of each field is a guard bit.  D(m) is linear in m with
# W = 2^FIELD_BITS: -deg(m) W^(n-1) + sum_{i>=1} e_i W^(i-1) for grevlex and
# -sum_i e_i W^(n-1-i) for lex, so ascending D is descending ring order.
# Hence:
#   - ascending ints are descending terms, term over position, and of two
#     terms with one monomial the lower position is the larger; ``min(v)`` is
#     the leading term of v and a heap pops terms largest first;
#   - T * x^a is T + shift(a), shift(a) the term of x^a at position 0, and a
#     reduction step by leading term L of the same position shifts by T - L;
#   - L divides T (same position) exactly when (T - L) & guard == 0: a field
#     where L exceeds T borrows through its guard bit.
# The elimination order of ``_extended_gb`` adds the layout's ``elim`` to
# every term in a bookkeeping position, above any D, so those terms lose to
# all others.
#
# Terms made from exponent tuples and S-pair lcms are checked against
# MAX_EXPONENT; the 31 value bits of a field leave room for the products
# formed between checks (a composition adds two degrees).  Only this module
# reads the bits of a term; others use ``term``, ``split_term``,
# ``term_pos``, ``shift_term``, ``is_constant`` and the vector forms
# ``shift_vec`` and ``split_vec``.

FIELD_BITS = 32
POS_BITS = 24
MAX_EXPONENT = (1 << 16) - 1
MAX_POSITION = (1 << POS_BITS) - 1


class _Layout:
    """Field positions and constants of the packed terms of one ring."""

    __slots__ = ("nvars", "eb", "emask", "posmask", "guard", "fields",
                 "vmasks", "variables", "elim", "elim_min")

    def __init__(self, nvars: int, order: str):
        fb = FIELD_BITS
        w = 1 << fb
        self.nvars = nvars
        self.eb = eb = nvars * fb
        shift = eb + POS_BITS
        self.emask = (1 << eb) - 1
        self.posmask = MAX_POSITION << eb
        self.guard = sum(1 << (i * fb + fb - 1) for i in range(nvars))
        self.fields = tuple(i * fb for i in range(nvars))
        self.vmasks = ((1 << fb) - 1,) * nvars
        if order == LEX:
            weights = [-w ** (nvars - 1 - i) for i in range(nvars)]
        else:
            top = w ** (nvars - 1)
            weights = [-top] + [w ** (i - 1) - top for i in range(1, nvars)]
        # the term of x_i at position 0: D and E of one variable
        self.variables = tuple((d << shift) + (1 << f)
                               for d, f in zip(weights, self.fields))
        # |D| < n 2^(fb n) while exponents fit their fields: far below the
        # flag, whose half elim_min separates flagged from plain terms
        self.elim = 1 << (fb * (nvars + 1) + shift)
        self.elim_min = self.elim >> 1

    def pack(self, pos: int, mono) -> int:
        if not 0 <= pos <= MAX_POSITION:
            raise AlgebraError(f"free-module position {pos} is out of range "
                               f"0..{MAX_POSITION}")
        if len(mono) != self.nvars or not all(
                0 <= e <= MAX_EXPONENT for e in mono):
            raise AlgebraError(f"monomial exponents {tuple(mono)} are out of "
                               f"range 0..{MAX_EXPONENT}")
        return (pos << self.eb) + sum(map(operator.mul, mono, self.variables))

    def exponents(self, t: int) -> tuple:
        return tuple(map(operator.and_, map(t.__rshift__, self.fields),
                         self.vmasks))

    def pos(self, t: int) -> int:
        return (t & self.posmask) >> self.eb

    def split(self, t: int):
        return self.pos(t), self.exponents(t)

    def lcm(self, a: int, b: int):
        """(lcm, its degree) of two terms in one position."""
        ea = self.exponents(a)
        m = mono_lcm(ea, self.exponents(b))
        if max(m) > MAX_EXPONENT:
            raise AlgebraError(f"S-pair exponents {m} exceed {MAX_EXPONENT}")
        return (a + sum(map(operator.mul, mono_div(m, ea), self.variables)),
                mono_degree(m))


def _layout(ctx: RingContext) -> _Layout:
    """The layout of ``ctx``, kept on the context itself: a lookup keyed by
    the context would compare equal contexts field by field."""
    try:
        return ctx._term_layout
    except AttributeError:
        lay = _Layout(ctx.nvars, ctx.order)
        # beside the fields: equality, hash and repr do not see it
        object.__setattr__(ctx, "_term_layout", lay)
        return lay


def term(ctx: RingContext, pos: int, mono) -> int:
    """The packed term x^mono e_pos; AlgebraError when out of range."""
    return _layout(ctx).pack(pos, mono)


def split_term(ctx: RingContext, t: int):
    """(position, exponent tuple) of a packed term."""
    return _layout(ctx).split(t)


def term_pos(ctx: RingContext, t: int) -> int:
    return _layout(ctx).pos(t)


def shift_term(ctx: RingContext, t: int, k: int) -> int:
    """The term t moved from its position to that position + k."""
    lay = _layout(ctx)
    if not 0 <= lay.pos(t) + k <= MAX_POSITION:
        raise AlgebraError(f"free-module position {lay.pos(t) + k} is out of "
                           f"range 0..{MAX_POSITION}")
    return t + (k << lay.eb)


def shift_vec(ctx: RingContext, v: dict, k: int) -> dict:
    """v with every term moved from its position to that position + k."""
    lay = _layout(ctx)
    if v and k:
        edge = lay.pos((max if k > 0 else min)(t & lay.posmask for t in v))
        if not 0 <= edge + k <= MAX_POSITION:
            raise AlgebraError(f"free-module position {edge + k} is out of "
                               f"range 0..{MAX_POSITION}")
    s = k << lay.eb
    return {t + s: c for t, c in v.items()}


def split_vec(ctx: RingContext, v: dict, size: int, count: int):
    """``count`` vectors, the j-th made of the terms of v in positions
    j * size .. (j + 1) * size - 1, moved down by j * size."""
    lay = _layout(ctx)
    out = [{} for _ in range(count)]
    for t, c in v.items():
        j = lay.pos(t) // size
        out[j][t - ((j * size) << lay.eb)] = c
    return out


def is_constant(ctx: RingContext, t: int) -> bool:
    """True when the monomial of t is 1."""
    return not t & _layout(ctx).emask


def vec_add_scaled(v: dict, w: dict, coeff: int, shift: int, p: int,
                   fresh: list | None = None) -> dict:
    """v += coeff * x^a * w, reduced mod p, in place, where ``shift`` is the
    term of x^a at position 0; returns v.  Terms that enter v are appended
    to ``fresh`` when it is given."""
    for t, c in w.items():
        key = t + shift
        old = v.get(key)
        if old is None:
            val = coeff * c % p
            if val:
                v[key] = val
                if fresh is not None:
                    fresh.append(key)
        else:
            val = (old + coeff * c) % p
            if val:
                v[key] = val
            else:
                del v[key]
    return v


def vec_scale(v: dict, coeff: int, p: int) -> dict:
    coeff %= p
    if coeff == 0:
        return {}
    return {t: (c * coeff) % p for t, c in v.items()}


def vec_degree(v: dict, degrees, ctx: RingContext) -> int:
    """Common degree of a homogeneous vector; degrees are the basis twists."""
    if not v:
        raise AlgebraError("zero vector has no degree")
    pos, m = split_term(ctx, next(iter(v)))
    return mono_degree(m) + degrees[pos]


def vec_to_column(v: dict, rank: int, ctx: RingContext):
    """Sparse vector -> column of ``rank`` Polynomials."""
    lay = _layout(ctx)
    cols = [dict() for _ in range(rank)]
    for t, c in v.items():
        pos, m = lay.split(t)
        cols[pos][m] = c
    return [Polynomial(ctx, t) for t in cols]


def _vec_apply(cols, v: dict, lay: _Layout, p: int) -> dict:
    """Sum of c * x^m * cols[k] over the terms c x^m e_k of v, the image of
    v under the map whose columns are ``cols``.  Not a reduction step."""
    acc = {}
    for t, c in v.items():
        k = lay.pos(t)
        shift = t - (k << lay.eb)
        for u, d in cols[k].items():
            u += shift
            acc[u] = acc.get(u, 0) + c * d
    return {t: r for t, c in acc.items() if (r := c % p)}


# -- reduction and Buchberger ------------------------------------------------

def by_position(lts, ctx: RingContext) -> dict:
    """Index of leading terms: position bits -> [(leading term, basis
    index)], each list in basis order."""
    posmask = _layout(ctx).posmask
    index = {}
    for i, t in enumerate(lts):
        index.setdefault(t & posmask, []).append((t, i))
    return index


def reduce_vec(v: dict, basis, reducers, ctx: RingContext) -> dict:
    """Full normal form of v against basis (monic elements assumed), whose
    leading terms are indexed by ``by_position`` in ``reducers``.

    Terms come off a heap largest first (Monagan & Pearce's heap division):
    a term is pushed when it enters the working vector, and an entry whose
    term has since cancelled is skipped.  Every term added by a step is
    smaller than the term it removes, so the heap order is the order in
    which a rescan of the whole vector would find leading terms.  The
    reducer of a term is the lowest-index basis element whose leading term
    divides it.
    """
    lay = _layout(ctx)
    guard, posmask = lay.guard, lay.posmask
    p = ctx.characteristic
    work = dict(v)
    heap = list(work)
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    result = {}
    fresh = []
    while heap:
        t = pop(heap)
        c = get(t)
        if c is None:
            continue
        for lt, i in reducers.get(t & posmask, ()):
            shift = t - lt
            if not shift & guard:
                vec_add_scaled(work, basis[i], -c, shift, p, fresh)
                for u in fresh:
                    push(heap, u)
                fresh.clear()
                break
        else:
            result[t] = c
            del work[t]
    return result


def _push(basis, lts, reducers, v, ctx: RingContext):
    """Append v, made monic, and its leading term to the basis, its leading
    terms and their index.  A v that is already monic is kept, not copied."""
    t = min(v)
    reducers.setdefault(t & _layout(ctx).posmask, []).append((t, len(basis)))
    c = v[t]
    basis.append(v if c == 1 else vec_scale(v, ctx.inv(c), ctx.characteristic))
    lts.append(t)


def _complete(basis, lts, reducers, start: int, ctx: RingContext):
    """Grow ``basis`` (monic, leading terms ``lts`` indexed in ``reducers``)
    in place to a Groebner basis of its span.

    ``basis[:start]`` must already be a Groebner basis: only pairs with an
    element at or after ``start`` are formed, and pairs among the older
    elements count as handled.  Pairs come off a heap keyed by (lcm degree,
    i, j), the lcm computed once when the pair is formed: the normal
    selection strategy, deterministic by index.  The chain criterion drops a
    pair whose lcm is divisible by a third leading term when both flanking
    pairs are handled.
    """
    lay = _layout(ctx)
    guard, posmask = lay.guard, lay.posmask
    p = ctx.characteristic
    heap = []

    def add_pairs(n):
        ln = lts[n]
        for lm, k in reducers[ln & posmask]:
            if k < n:
                lcm, deg = lay.lcm(lm, ln)
                heapq.heappush(heap, (deg, k, n, lcm))

    for n in range(start, len(basis)):
        add_pairs(n)
    done = set()
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        done.add((i, j))
        skip = False
        for km, k in reducers[lts[i] & posmask]:
            if k == i or k == j or (lcm - km) & guard:
                continue
            pik = (i, k) if i < k else (k, i)
            pjk = (j, k) if j < k else (k, j)
            if ((pik[1] < start or pik in done)
                    and (pjk[1] < start or pjk in done)):
                skip = True
                break
        if skip:
            continue
        s = vec_add_scaled(vec_add_scaled({}, basis[i], 1, lcm - lts[i], p),
                           basis[j], -1, lcm - lts[j], p)
        r = reduce_vec(s, basis, reducers, ctx)
        if r:
            _push(basis, lts, reducers, r, ctx)
            add_pairs(len(basis) - 1)


def _reduced(basis, ctx: RingContext):
    """The auto-reduced form of a monic Groebner basis, sorted by
    descending leading term: drop each element whose leading term another's
    divides (of two equal ones, the later), then tail-reduce each kept
    element against the rest.  It stays a Groebner basis of the same span
    only if ``basis`` is one."""
    lay = _layout(ctx)
    lts = [min(g) for g in basis]
    reducers = by_position(lts, ctx)
    keep = [i for i, t in enumerate(lts) if not any(
        j != i and not (t - lm) & lay.guard and (lm != t or j < i)
        for lm, j in reducers[t & lay.posmask])]
    basis = [basis[i] for i in keep]
    lts = [lts[i] for i in keep]
    reducers = by_position(lts, ctx)
    out = {}
    for g, lt in zip(basis, lts):
        # No other leading term divides lt, and lt divides no smaller term,
        # so the tail reduces against the whole basis as against the others
        # and lt stays with coefficient 1.
        tail = {t: c for t, c in g.items() if t != lt}
        out[lt] = {lt: 1, **reduce_vec(tail, basis, reducers, ctx)}
    return [out[lt] for lt in sorted(out)]


def buchberger_vecs(vecs, ctx: RingContext):
    """Auto-reduced monic Groebner basis of the span of vecs, sorted by
    descending leading term: one ``GroebnerBasis.extend`` from empty, its
    pairs taken by lcm degree from a heap, ties by index, so the output is
    deterministic, then ``_reduced``."""
    gb = GroebnerBasis(ctx)
    gb.extend(vecs)
    return _reduced(gb.generators, ctx)


class GroebnerBasis:
    """Groebner basis of a submodule of a graded free module, kept as
    ``extend`` grows it: auto-reduced only when ``buchberger`` builds it.
    Normal forms do not depend on that (Cox, Little & O'Shea, 2.7).  The
    term order is the one packed into the terms; ``generators`` are monic."""

    def __init__(self, ctx: RingContext, generators=()):
        self.ctx = ctx
        self.generators = list(generators)
        self.leading_terms = [min(g) for g in self.generators]
        self.reducers = by_position(self.leading_terms, ctx)

    def normal_form_vec(self, v: dict) -> dict:
        return reduce_vec(v, self.generators, self.reducers, self.ctx)

    def contains_vec(self, v: dict) -> bool:
        return not self.normal_form_vec(v)

    def extend(self, vecs) -> bool:
        """Grow this basis in place to a Groebner basis of its span plus
        vecs: push the nonzero normal form of each vector against the basis
        so far, then form only the pairs with new elements.  False, with
        the basis unchanged, when every vector already lies in the span."""
        parts = (self.generators, self.leading_terms, self.reducers)
        start = len(self.generators)
        for v in filter(None, vecs):
            if r := self.normal_form_vec(v):
                _push(*parts, r, self.ctx)
        if len(self.generators) > start:
            _complete(*parts, start, self.ctx)
        return len(self.generators) > start

    def add(self, v: dict) -> bool:
        """``extend((v,))``: False when v already lies in the span."""
        return self.extend((v,))


def buchberger(vecs, ctx: RingContext) -> GroebnerBasis:
    """Groebner basis of the submodule spanned by the sparse vectors ``vecs``.

    All elements must be homogeneous with respect to some common grading of
    the ambient free module.
    """
    return GroebnerBasis(ctx, buchberger_vecs(vecs, ctx))


# -- graded free-module maps -------------------------------------------------

class FreeModuleMap:
    """Graded matrix between free modules with degree twists.

    Stored as one sparse vector per column: column j maps the term of a
    monomial in position i to its coefficient in the entry in target
    position i of source basis vector j.  Every nonzero entry must be
    homogeneous of degree source_degrees[j] - target_degrees[i].  Stored
    vectors are never mutated; a caller that needs to change one copies it
    first.

    The constructor takes columns of Polynomials, converts them once and
    refuses an inhomogeneous entry with a DegreeError; ``from_vecs`` keeps
    the vectors it is given unchecked, and ``cols`` rebuilds the Polynomial
    columns for printing and tests.
    """

    def __init__(self, ctx: RingContext, source_degrees, target_degrees, cols):
        source_degrees = tuple(source_degrees)
        target_degrees = tuple(target_degrees)
        cols = [list(col) for col in cols]
        if len(cols) != len(source_degrees):
            raise AlgebraError("column count does not match source rank")
        if any(len(col) != len(target_degrees) for col in cols):
            raise AlgebraError("column length does not match target rank")
        lay = _layout(ctx)
        vecs = [{lay.pack(i, m): c for i, f in enumerate(col)
                 for m, c in f.terms.items()} for col in cols]
        self._set(ctx, source_degrees, target_degrees, vecs)
        self._check_homogeneous()

    def _set(self, ctx, source_degrees, target_degrees, vecs):
        self.ctx = ctx
        self.source_degrees = tuple(source_degrees)
        self.target_degrees = tuple(target_degrees)
        self._vecs = vecs
        self._ext_gb = {}

    @classmethod
    def from_vecs(cls, ctx: RingContext, vecs, target_degrees,
                  degrees=None) -> "FreeModuleMap":
        """Map whose columns are the given sparse vectors, kept as given;
        ``degrees`` defaults to the degrees of the (nonzero) vectors."""
        vecs = list(vecs)
        if degrees is None:
            degrees = [vec_degree(v, target_degrees, ctx) for v in vecs]
        m = cls.__new__(cls)
        m._set(ctx, degrees, target_degrees, vecs)
        return m

    def regraded(self, source_degrees, target_degrees) -> "FreeModuleMap":
        """The same columns between free modules with other twists."""
        return FreeModuleMap.from_vecs(self.ctx, self._vecs, target_degrees,
                                       source_degrees)

    def _check_homogeneous(self):
        lay = _layout(self.ctx)
        for j, v in enumerate(self._vecs):
            for t in v:
                i, m = lay.split(t)
                want = self.source_degrees[j] - self.target_degrees[i]
                if mono_degree(m) != want:
                    f = vec_to_column(v, self.target_rank, self.ctx)[i]
                    raise DegreeError(
                        f"entry ({i},{j}) = {f} has a term of degree "
                        f"{mono_degree(m)}, expected {want}")

    @property
    def cols(self):
        """Polynomial columns, ``cols[j][i]`` the entry in target position i
        of source basis vector j; built on each read."""
        return [vec_to_column(v, self.target_rank, self.ctx)
                for v in self._vecs]

    @property
    def source_rank(self) -> int:
        return len(self.source_degrees)

    @property
    def target_rank(self) -> int:
        return len(self.target_degrees)

    def is_zero(self) -> bool:
        return not any(self._vecs)

    def column_vec(self, j: int) -> dict:
        return self._vecs[j]

    def column_vecs(self):
        return list(self._vecs)

    def constant_vecs(self):
        """Degree-0 (constant) parts of the columns as sparse vectors, the
        columns with none left out."""
        emask = _layout(self.ctx).emask
        out = []
        for v in self._vecs:
            w = {t: c for t, c in v.items() if not t & emask}
            if w:
                out.append(w)
        return out

    def compose(self, other: "FreeModuleMap") -> "FreeModuleMap":
        """self o other (other feeds into self)."""
        if other.target_degrees != self.source_degrees:
            raise AlgebraError("inner degree lists do not match in composition")
        p = self.ctx.characteristic
        return FreeModuleMap.from_vecs(
            self.ctx,
            [_vec_apply(self._vecs, v, _layout(self.ctx), p)
             for v in other._vecs],
            self.target_degrees, other.source_degrees)

    def hstack(self, *others: "FreeModuleMap") -> "FreeModuleMap":
        maps = (self,) + others
        if any(m.target_degrees != self.target_degrees for m in others):
            raise AlgebraError("cannot stack maps with different targets")
        return FreeModuleMap.from_vecs(
            self.ctx, [v for m in maps for v in m._vecs], self.target_degrees,
            tuple(d for m in maps for d in m.source_degrees))

    def transpose(self) -> "FreeModuleMap":
        """Dual map between the dual free modules (degrees negated)."""
        lay = _layout(self.ctx)
        vecs = [{} for _ in self.target_degrees]
        for j, v in enumerate(self._vecs):
            for t, c in v.items():
                i = lay.pos(t)
                vecs[i][t + ((j - i) << lay.eb)] = c
        return FreeModuleMap.from_vecs(
            self.ctx, vecs, tuple(-d for d in self.source_degrees),
            tuple(-d for d in self.target_degrees))

    @classmethod
    def identity(cls, ctx: RingContext, degrees) -> "FreeModuleMap":
        zero = (0,) * ctx.nvars
        degrees = tuple(degrees)
        units = [{term(ctx, j, zero): 1} for j in range(len(degrees))]
        return cls.from_vecs(ctx, units, degrees, degrees)

    @classmethod
    def zero_map(cls, ctx: RingContext, source_degrees,
                 target_degrees) -> "FreeModuleMap":
        source_degrees = tuple(source_degrees)
        return cls.from_vecs(ctx, [{} for _ in source_degrees],
                             target_degrees, source_degrees)

    # -- membership machinery ------------------------------------------------

    def _extended_gb(self, kept: int):
        """GB, cached per ``kept``, of {col_j + e_{t+j} : j < kept} and the
        plain columns j >= kept under an elimination order: one ``extend``
        from empty, not auto-reduced.

        The bookkeeping terms carry the elimination flag, so every term in
        positions >= t loses to every term in positions < t.  For the block
        [x | y], x its first ``kept`` columns, the elements led by a flagged
        term are then a Groebner basis of {c : x c in im y}, and the normal
        form of a vector b of im x + im y is -c, on the flagged positions,
        for a c with x c = b mod im y.
        """
        if kept in self._ext_gb:
            return self._ext_gb[kept]
        last = self.target_rank + kept - 1
        if last > MAX_POSITION:
            raise AlgebraError(f"free-module position {last} is out of range "
                               f"0..{MAX_POSITION}")
        flag, eb = _unflag(self), _layout(self.ctx).eb
        vecs = [dict(col) for col in self._vecs]
        for j, v in enumerate(vecs[:kept]):
            v[flag + (j << eb)] = 1       # the flagged term of e_{t+j}
        gb = GroebnerBasis(self.ctx)
        gb.extend(vecs)
        self._ext_gb[kept] = gb
        return gb

    def __repr__(self):
        cols = self.cols
        rows = []
        for i in range(self.target_rank):
            rows.append("[" + ", ".join(str(col[i]) for col in cols) + "]")
        return "FreeModuleMap(" + "; ".join(rows) + ")"


def _unflag(m: FreeModuleMap) -> int:
    """What to subtract from a bookkeeping term of ``m._extended_gb`` for
    the term of its column index."""
    lay = _layout(m.ctx)
    return lay.elim + (m.target_rank << lay.eb)


def syzygy_basis(m: FreeModuleMap) -> FreeModuleMap:
    """Map s with m o s = 0 and image(s) = kernel(m), its columns sorted by
    degree, then by their (position, monomial) items."""
    return _relative_syzygies(m, m.source_rank)


def _relative_syzygies(m: FreeModuleMap, kept: int) -> FreeModuleMap:
    """For m = [x | y], x its first ``kept`` columns: the reduced Groebner
    basis of {c : x c in im y} as a map into the source of x, sorted as
    ``syzygy_basis`` sorts, read off ``m._extended_gb(kept)``.

    Only the elements led by a flagged term are auto-reduced.  Their terms
    are all flagged, and a flagged term is divisible only by a flagged
    leading term, so they are reduced as the whole basis would reduce them.
    """
    lay = _layout(m.ctx)
    off = _unflag(m)
    syz = []
    # all of g is bookkeeping when its leading term is
    for g in _reduced([g for g in m._extended_gb(kept).generators
                       if min(g) >= lay.elim_min], m.ctx):
        v = {t - off: c for t, c in g.items()}
        syz.append((vec_degree(v, m.source_degrees, m.ctx),
                    sorted((lay.split(t), c) for t, c in v.items()), v))
    syz.sort(key=operator.itemgetter(0, 1))
    return FreeModuleMap.from_vecs(m.ctx, [v for _, _, v in syz],
                                   m.source_degrees[:kept],
                                   [d for d, _, _ in syz])


def lift_solve(a: FreeModuleMap, b: FreeModuleMap):
    """x with a o x = b when every column of b lies in image(a), else None."""
    return _relative_lift(a, b, a.source_rank)


def _relative_lift(a: FreeModuleMap, b: FreeModuleMap, kept: int):
    """For a = [x | y], x its first ``kept`` columns: c with x o c = b
    modulo im y, read off ``a._extended_gb(kept)``; None when some column
    of b lies outside im x + im y."""
    if a.target_degrees != b.target_degrees:
        raise AlgebraError("targets of a and b do not agree")
    gb = a._extended_gb(kept)
    elim_min = _layout(a.ctx).elim_min
    off = _unflag(a)
    p = a.ctx.characteristic
    xcols = []
    for v in b.column_vecs():
        r = gb.normal_form_vec(v)
        if r and min(r) < elim_min:
            return None
        x = {t - off: (-c) % p for t, c in r.items()}
        xcols.append(x)
    return FreeModuleMap.from_vecs(a.ctx, xcols, a.source_degrees[:kept],
                                   degrees=b.source_degrees)
