"""Buchberger's algorithm on submodules of graded free modules.

Free-module elements are sparse dicts mapping (position, monomial) to a
coefficient.  Syzygies and lifts both come from one mechanism: a Groebner
basis of the columns extended by unit-vector bookkeeping components under an
elimination order, so membership certificates double as lift coefficients.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .ring import (AlgebraError, DegreeError, Polynomial, RingContext,
                   mono_degree, mono_div, mono_divides, mono_lcm, mono_mul)

# Vec: dict[(position, exponent-tuple)] -> coefficient in 1..p-1


def vec_add_scaled(v: dict, w: dict, coeff: int, mono: tuple, p: int,
                   fresh: list | None = None) -> dict:
    """v += coeff * x^mono * w, reduced mod p, in place; returns v.  Terms
    that enter v are appended to ``fresh`` when it is given."""
    for (pos, m), c in w.items():
        key = (pos, mono_mul(m, mono))
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


def vec_degree(v: dict, degrees) -> int:
    """Common degree of a homogeneous vector; degrees are the basis twists."""
    if not v:
        raise AlgebraError("zero vector has no degree")
    (pos, m), _ = next(iter(v.items()))
    return mono_degree(m) + degrees[pos]


def vec_to_column(v: dict, rank: int, ctx: RingContext):
    """Sparse vector -> column of ``rank`` Polynomials."""
    cols = [dict() for _ in range(rank)]
    for (pos, m), c in v.items():
        cols[pos][m] = c
    return [Polynomial(ctx, t) for t in cols]


def _vec_apply(cols, v: dict, p: int) -> dict:
    """Sum of c * x^m * cols[k] over the terms (k, m): c of v, the image of
    v under the map whose columns are ``cols``.  Not a reduction step."""
    acc = {}
    for (k, m), c in v.items():
        for (i, n), d in cols[k].items():
            t = (i, mono_mul(n, m))
            acc[t] = acc.get(t, 0) + c * d
    return {t: r for t, c in acc.items() if (r := c % p)}


# -- term orders on free modules --------------------------------------------

def make_order_key(ctx: RingContext):
    """Term-over-position key on (position, monomial) whose ascending order
    is descending term order; of two terms with the same monomial the lower
    position is the larger.  The smallest key is the leading term, and a
    heap pops terms largest first."""
    mk = ctx.mono_desc_key

    def key(t):
        pos, m = t
        return (mk(m), pos)
    return key


def make_elim_key(ctx: RingContext, split: int):
    """Any term in positions < split beats any term in positions >= split;
    within each side, the order of ``make_order_key``."""
    mk = ctx.mono_desc_key

    def key(t):
        pos, m = t
        return (pos >= split, mk(m), pos)
    return key


# -- reduction and Buchberger ------------------------------------------------

def leading_term(v: dict, key):
    t = min(v, key=key)
    return t, v[t]


def by_position(lts) -> dict:
    """Index of leading terms: position -> [(monomial, basis index)], each
    list in basis order."""
    index = {}
    for i, (pos, lm) in enumerate(lts):
        index.setdefault(pos, []).append((lm, i))
    return index


def reduce_vec(v: dict, basis, reducers, key, p: int) -> dict:
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
    work = dict(v)
    heap = [(key(t), t) for t in work]
    heapq.heapify(heap)
    result = {}
    fresh = []
    while heap:
        t = heapq.heappop(heap)[1]
        c = work.get(t)
        if c is None:
            continue
        pos, m = t
        for lm, i in reducers.get(pos, ()):
            if mono_divides(lm, m):
                vec_add_scaled(work, basis[i], -c, mono_div(m, lm), p, fresh)
                for u in fresh:
                    heapq.heappush(heap, (key(u), u))
                fresh.clear()
                break
        else:
            result[t] = c
            del work[t]
    return result


def _push(basis, lts, reducers, v, key, ctx: RingContext):
    """Append v, made monic, and its leading term to the basis, its leading
    terms and their index."""
    t, c = leading_term(v, key)
    reducers.setdefault(t[0], []).append((t[1], len(basis)))
    basis.append(vec_scale(v, ctx.inv(c), ctx.characteristic))
    lts.append(t)


def _complete(basis, lts, reducers, start: int, key, ctx: RingContext):
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
    p = ctx.characteristic
    heap = []

    def add_pairs(n):
        pos, ln = lts[n]
        for lm, k in reducers[pos]:
            if k < n:
                lcm = mono_lcm(lm, ln)
                heapq.heappush(heap, (mono_degree(lcm), k, n, lcm))

    for n in range(start, len(basis)):
        add_pairs(n)
    done = set()
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        done.add((i, j))
        skip = False
        for km, k in reducers[lts[i][0]]:
            if k == i or k == j or not mono_divides(km, lcm):
                continue
            pik = (i, k) if i < k else (k, i)
            pjk = (j, k) if j < k else (k, j)
            if ((pik[1] < start or pik in done)
                    and (pjk[1] < start or pjk in done)):
                skip = True
                break
        if skip:
            continue
        s = vec_add_scaled(
            vec_add_scaled({}, basis[i], 1, mono_div(lcm, lts[i][1]), p),
            basis[j], -1, mono_div(lcm, lts[j][1]), p)
        r = reduce_vec(s, basis, reducers, key, p)
        if r:
            _push(basis, lts, reducers, r, key, ctx)
            add_pairs(len(basis) - 1)


def _reduce_into(basis, lts, reducers, vecs, key, ctx: RingContext):
    """Append the nonzero normal forms of vecs, each against the basis so
    far."""
    p = ctx.characteristic
    for v in vecs:
        if v:
            r = reduce_vec(v, basis, reducers, key, p)
            if r:
                _push(basis, lts, reducers, r, key, ctx)


def buchberger_vecs(vecs, key, ctx: RingContext):
    """Auto-reduced monic Groebner basis of the span of vecs, sorted by
    descending leading term.

    Completion by ``_complete``: pairs are taken by lcm degree from a heap,
    ties by index, so the output is deterministic.
    """
    p = ctx.characteristic
    basis = []
    lts = []
    reducers = {}
    _reduce_into(basis, lts, reducers, vecs, key, ctx)
    _complete(basis, lts, reducers, 0, key, ctx)
    # auto-reduce: drop redundant leading terms, then tail-reduce
    keep = []
    for i, (pos, m) in enumerate(lts):
        redundant = any(
            j != i and mono_divides(lm, m) and (lm != m or j < i)
            for lm, j in reducers[pos])
        if not redundant:
            keep.append(i)
    basis = [basis[i] for i in keep]
    lts = [lts[i] for i in keep]
    reducers = by_position(lts)
    out = []
    for g, lt in zip(basis, lts):
        # No other leading term divides lt, and lt divides no smaller term,
        # so the tail reduces against the whole basis as against the others
        # and lt stays with coefficient 1.
        tail = dict(g)
        del tail[lt]
        r = {lt: 1}
        r.update(reduce_vec(tail, basis, reducers, key, p))
        out.append(r)
    order = sorted(range(len(out)), key=lambda i: key(lts[i]))
    return [out[i] for i in order]


@dataclass
class GroebnerBasis:
    """Groebner basis of a submodule of a graded free module: auto-reduced
    when it comes from ``buchberger_vecs``, not after ``extend``."""

    ctx: RingContext
    generators: list          # list of Vec, monic
    key: object               # term-order key function
    leading_terms: list = field(default=None)
    reducers: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.leading_terms is None:
            self.leading_terms = [leading_term(g, self.key)[0]
                                  for g in self.generators]
        self.reducers = by_position(self.leading_terms)

    def normal_form_vec(self, v: dict) -> dict:
        return reduce_vec(v, self.generators, self.reducers, self.key,
                          self.ctx.characteristic)

    def contains_vec(self, v: dict) -> bool:
        return not self.normal_form_vec(v)

    def extend(self, vecs) -> "GroebnerBasis":
        """Groebner basis of this span plus ``vecs``, grown from this basis:
        only pairs with a new element are formed.  The result is not
        auto-reduced; it serves membership tests."""
        basis = list(self.generators)
        lts = list(self.leading_terms)
        reducers = by_position(lts)
        start = len(basis)
        _reduce_into(basis, lts, reducers, vecs, self.key, self.ctx)
        _complete(basis, lts, reducers, start, self.key, self.ctx)
        return GroebnerBasis(self.ctx, basis, self.key, lts)


def buchberger(vecs, ctx: RingContext) -> GroebnerBasis:
    """Groebner basis of the submodule spanned by the sparse vectors ``vecs``.

    All elements must be homogeneous with respect to some common grading of
    the ambient free module.
    """
    key = make_order_key(ctx)
    return GroebnerBasis(ctx, buchberger_vecs(vecs, key, ctx), key)


# -- graded free-module maps -------------------------------------------------

class FreeModuleMap:
    """Graded matrix between free modules with degree twists.

    Stored as one sparse vector per column: column j maps (i, monomial) to
    the coefficient of that monomial in the entry in target position i of
    source basis vector j.  Every nonzero entry must be homogeneous of
    degree source_degrees[j] - target_degrees[i].  Stored vectors are never
    mutated; a caller that needs to change one copies it first.

    The constructor takes columns of Polynomials and converts them once;
    ``from_vecs`` keeps the vectors it is given, and ``cols`` rebuilds the
    Polynomial columns for printing and tests.
    """

    def __init__(self, ctx: RingContext, source_degrees, target_degrees,
                 cols, check: bool = True):
        source_degrees = tuple(source_degrees)
        target_degrees = tuple(target_degrees)
        cols = [list(col) for col in cols]
        if len(cols) != len(source_degrees):
            raise AlgebraError("column count does not match source rank")
        if any(len(col) != len(target_degrees) for col in cols):
            raise AlgebraError("column length does not match target rank")
        vecs = [{(i, m): c for i, f in enumerate(col)
                 for m, c in f.terms.items()} for col in cols]
        self._set(ctx, source_degrees, target_degrees, vecs)
        if check:
            self._check_homogeneous()

    def _set(self, ctx, source_degrees, target_degrees, vecs):
        self.ctx = ctx
        self.source_degrees = tuple(source_degrees)
        self.target_degrees = tuple(target_degrees)
        self._vecs = vecs
        self._ext_gb = None

    @classmethod
    def from_vecs(cls, ctx: RingContext, vecs, target_degrees,
                  degrees=None) -> "FreeModuleMap":
        """Map whose columns are the given sparse vectors, kept as given;
        ``degrees`` defaults to the degrees of the (nonzero) vectors."""
        vecs = list(vecs)
        if degrees is None:
            degrees = [vec_degree(v, target_degrees) for v in vecs]
        m = cls.__new__(cls)
        m._set(ctx, degrees, target_degrees, vecs)
        return m

    def regraded(self, source_degrees, target_degrees) -> "FreeModuleMap":
        """The same columns between free modules with other twists."""
        return FreeModuleMap.from_vecs(self.ctx, self._vecs, target_degrees,
                                       source_degrees)

    def _check_homogeneous(self):
        for j, v in enumerate(self._vecs):
            for i, m in v:
                want = self.source_degrees[j] - self.target_degrees[i]
                if mono_degree(m) != want:
                    f = self.cols[j][i]
                    raise DegreeError(
                        f"entry ({i},{j}) = {f} has degree {f.degree}, "
                        f"expected {want}")

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
        out = []
        for v in self._vecs:
            w = {t: c for t, c in v.items() if not any(t[1])}
            if w:
                out.append(w)
        return out

    def compose(self, other: "FreeModuleMap") -> "FreeModuleMap":
        """self o other (other feeds into self)."""
        if other.target_degrees != self.source_degrees:
            raise AlgebraError("inner degree lists do not match in composition")
        p = self.ctx.characteristic
        return FreeModuleMap.from_vecs(
            self.ctx, [_vec_apply(self._vecs, v, p) for v in other._vecs],
            self.target_degrees, other.source_degrees)

    def hstack(self, other: "FreeModuleMap") -> "FreeModuleMap":
        if other.target_degrees != self.target_degrees:
            raise AlgebraError("cannot stack maps with different targets")
        return FreeModuleMap.from_vecs(
            self.ctx, self._vecs + other._vecs, self.target_degrees,
            self.source_degrees + other.source_degrees)

    def transpose(self) -> "FreeModuleMap":
        """Dual map between the dual free modules (degrees negated)."""
        vecs = [{} for _ in self.target_degrees]
        for j, v in enumerate(self._vecs):
            for (i, m), c in v.items():
                vecs[i][(j, m)] = c
        return FreeModuleMap.from_vecs(
            self.ctx, vecs, tuple(-d for d in self.source_degrees),
            tuple(-d for d in self.target_degrees))

    @classmethod
    def identity(cls, ctx: RingContext, degrees) -> "FreeModuleMap":
        zero = (0,) * ctx.nvars
        degrees = tuple(degrees)
        units = [{(j, zero): 1} for j in range(len(degrees))]
        return cls.from_vecs(ctx, units, degrees, degrees)

    @classmethod
    def zero_map(cls, ctx: RingContext, source_degrees,
                 target_degrees) -> "FreeModuleMap":
        source_degrees = tuple(source_degrees)
        return cls.from_vecs(ctx, [{} for _ in source_degrees],
                             target_degrees, source_degrees)

    # -- membership machinery ------------------------------------------------

    def _extended_gb(self):
        """GB of {col_j + e_{t+j}} under an elimination order, cached.

        Elements supported purely on the bookkeeping block form a generating
        set of the syzygy module (Schreyer-style), and normal forms yield
        explicit lift coefficients.
        """
        if self._ext_gb is not None:
            return self._ext_gb
        t = self.target_rank
        vecs = []
        for j, col in enumerate(self._vecs):
            v = dict(col)
            v[(t + j, (0,) * self.ctx.nvars)] = 1
            vecs.append(v)
        key = make_elim_key(self.ctx, t)
        basis = buchberger_vecs(vecs, key, self.ctx)
        self._ext_gb = GroebnerBasis(self.ctx, basis, key)
        return self._ext_gb

    def __repr__(self):
        cols = self.cols
        rows = []
        for i in range(self.target_rank):
            rows.append("[" + ", ".join(str(col[i]) for col in cols) + "]")
        return "FreeModuleMap(" + "; ".join(rows) + ")"


def syzygy_basis(m: FreeModuleMap) -> FreeModuleMap:
    """Map s with m o s = 0 and image(s) = kernel(m)."""
    gb = m._extended_gb()
    t = m.target_rank
    syz = []
    for g in gb.generators:
        if all(pos >= t for pos, _ in g):
            syz.append({(pos - t, mono): c for (pos, mono), c in g.items()})
    syz.sort(key=lambda v: (vec_degree(v, m.source_degrees),
                            sorted(v.items())))
    return FreeModuleMap.from_vecs(m.ctx, syz, m.source_degrees)


def lift_solve(a: FreeModuleMap, b: FreeModuleMap):
    """x with a o x = b when every column of b lies in image(a), else None."""
    if a.target_degrees != b.target_degrees:
        raise AlgebraError("targets of a and b do not agree")
    gb = a._extended_gb()
    t = a.target_rank
    p = a.ctx.characteristic
    xcols = []
    for v in b.column_vecs():
        r = gb.normal_form_vec(v)
        if any(pos < t for pos, _ in r):
            return None
        x = {(pos - t, mono): (-c) % p for (pos, mono), c in r.items()}
        xcols.append(x)
    return FreeModuleMap.from_vecs(a.ctx, xcols, a.source_degrees,
                                   degrees=b.source_degrees)
