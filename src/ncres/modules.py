"""Finitely presented graded modules over F_p[x_1..x_r].

A module is a free cover with twist degrees plus a homogeneous relation
matrix.  Presentations are never minimalized behind the caller's back;
minimalization happens only inside ``minimal_presentation`` and the
resolution machinery, which cache their results on the module.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .ring import AlgebraError, EngineError, RingContext, mono_divides
from .groebner import (FreeModuleMap, GroebnerBasis, _relative_syzygies,
                       buchberger, is_constant, shift_term, shift_vec,
                       split_term, syzygy_basis, term_pos, vec_add_scaled,
                       vec_scale)

INFINITE = math.inf


def _shifted(m: FreeModuleMap, e: int) -> FreeModuleMap:
    if e == 0:
        return m
    return m.regraded(tuple(d + e for d in m.source_degrees),
                      tuple(d + e for d in m.target_degrees))


def _beside(x: FreeModuleMap, y: FreeModuleMap) -> FreeModuleMap:
    """The block [x | y], which is x itself when y has no columns."""
    return x if y.source_rank == 0 else x.hstack(y)


class FPModule:
    """Finitely presented graded module: generator degrees + relations,
    trusted to be homogeneous (``make_module`` is the validated entry)."""

    def __init__(self, ctx: RingContext, gen_degrees, relations=None):
        self.ctx = ctx
        self.gen_degrees = tuple(gen_degrees)
        if relations is None:
            relations = FreeModuleMap.zero_map(ctx, (), self.gen_degrees)
        if relations.target_degrees != self.gen_degrees:
            raise AlgebraError("relation target degrees do not match generators")
        self.relations = relations
        self._rel_gb = None
        self._min = None           # (min_module, to_min, from_min)
        self._res_maps = None      # list of minimal resolution differentials
        self._res_complete = False
        self._syz_cache = {}
        self._split = None         # (generator_split_pair(self),)
        self._summands = None      # from direct_sum, or checked to present it
        self._torsionfree = (0, INFINITE)   # (largest d true, least d false)

    # -- basics --------------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gen_degrees)

    def rel_gb(self) -> GroebnerBasis:
        if self._rel_gb is None:
            self._rel_gb = buchberger(self.relations.column_vecs(), self.ctx)
        return self._rel_gb

    def is_zero(self) -> bool:
        return not minimal_generator_indices(self)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FPModule) and self.ctx == other.ctx
                and self.gen_degrees == other.gen_degrees
                and self.relations.source_degrees == other.relations.source_degrees
                and (self.relations.column_vecs()
                     == other.relations.column_vecs()))

    __hash__ = None

    def __repr__(self):
        return (f"FPModule(gens={list(self.gen_degrees)}, "
                f"relations={self.relations.source_rank})")

    def twist(self, e: int) -> "FPModule":
        return FPModule(self.ctx, [d + e for d in self.gen_degrees],
                        _shifted(self.relations, e))

    # -- Hilbert data ---------------------------------------------------------

    def _position_lts(self):
        lts = [[] for _ in range(self.rank)]
        for t in self.rel_gb().leading_terms:
            pos, m = split_term(self.ctx, t)
            lts[pos].append(m)
        return lts

    def _series(self):
        """Per position, (N, dim, h(1)) for R/J, J the ideal of the leading
        terms there: R/J has Hilbert series N(s)/(1-s)^r = h(s)/(1-s)^dim
        with h(1) != 0, and dim = -1 when J = R."""
        r = self.ctx.nvars
        out = []
        for lts in self._position_lts():
            num = _hilbert_numerator(lts, r)
            h, dim = [num.get(k, 0) for k in range(max(num) + 1)], r
            while any(h) and not sum(h):       # (1 - s) divides h
                h, dim = list(itertools.accumulate(h))[:-1], dim - 1
            out.append((num, dim if any(h) else -1, sum(h)))
        return out

    def hilbert_function(self, up_to: int):
        """Dimension of each graded piece 0..up_to, counted, not listed:
        s^k / (1-s)^r has C(e - k + r - 1, r - 1) in degree e."""
        r, series = self.ctx.nvars, self._series()
        return [sum(c * math.comb(t - d - k + r - 1, r - 1)
                    for d, (num, _, _) in zip(self.gen_degrees, series)
                    for k, c in num.items() if k <= t - d)
                for t in range(up_to + 1)]

    def k_dimension(self):
        """Number of standard monomials, counted, or INFINITE."""
        series = self._series()
        return (INFINITE if any(dim > 0 for _, dim, _ in series)
                else sum(h1 for _, _, h1 in series))


def _hilbert_numerator(gens, r: int) -> dict:
    """{k: a_k}, sum a_k s^k / (1-s)^r the Hilbert series of R/J, J = (gens),
    by HS(R/J) = HS(R/(J + p)) + s^e HS(R/(J : p)) (Bayer and Stillman 1992)
    for p = x_v^e not in J: x_v in the most gens, e the lower median of its
    exponents there; coprime generators give prod (1 - s^deg).  gens are
    minimal (the leading terms of a reduced basis are), and so are p and
    the gens it does not divide for J + p."""
    counts = [sum(1 for m in gens if m[v]) for v in range(r)]
    v = max(range(r), key=counts.__getitem__)
    if counts[v] < 2:
        out = {0: 1}
        for d in map(sum, gens):
            for k, c in list(out.items()):
                out[k + d] = out.get(k + d, 0) - c
        return out
    e = sorted(m[v] for m in gens if m[v])[(counts[v] - 1) // 2]
    out = _hilbert_numerator(
        [m for m in gens if m[v] < e]
        + [tuple(e if w == v else 0 for w in range(r))], r)
    # J : p.  The image m / p of a gen p divides is minimal there: the image
    # of no other gen divides it.  The others lose x_v and are filtered.
    colon = [m[:v] + (m[v] - e,) + m[v + 1:] for m in gens if m[v] >= e]
    for m in sorted({m[:v] + (0,) + m[v + 1:] for m in gens if m[v] < e},
                    key=sum):
        if not any(mono_divides(g, m) for g in colon):
            colon.append(m)
    for k, c in _hilbert_numerator(colon, r).items():
        out[k + e] = out.get(k + e, 0) + c
    return out


def make_module(gen_degrees, relations, ctx: RingContext) -> FPModule:
    """Validated FPModule; relation columns must be homogeneous."""
    m = FPModule(ctx, gen_degrees, relations)
    m.relations._check_homogeneous()
    return m


def make_morphism(source: FPModule, target: FPModule, matrix: FreeModuleMap,
                  degree: int = 0) -> "ModuleMorphism":
    """Validated ModuleMorphism: the matrix entries must be homogeneous and
    the matrix must carry the source relations into the target relations."""
    f = ModuleMorphism(source, target, matrix, degree)
    matrix._check_homogeneous()
    pushed = matrix.compose(_shifted(source.relations, degree))
    if not all(map(target.rel_gb().contains_vec, pushed.column_vecs())):
        raise AlgebraError("matrix does not descend to a morphism of modules")
    return f


def free_module(ctx: RingContext, degrees=(0,)) -> FPModule:
    return FPModule(ctx, degrees, None)


# -- morphisms ---------------------------------------------------------------

class ModuleMorphism:
    """Matrix on generator covers, trusted to descend to the quotients;
    ``make_morphism`` is the validated entry.

    ``degree`` is the homogeneous degree of the morphism; the matrix maps the
    source cover shifted by ``degree`` to the target cover.
    """

    def __init__(self, source: FPModule, target: FPModule,
                 matrix: FreeModuleMap, degree: int = 0):
        self.source = source
        self.target = target
        self.degree = degree
        want_src = tuple(d + degree for d in source.gen_degrees)
        if matrix.target_degrees != target.gen_degrees:
            raise AlgebraError("matrix target does not match target module")
        if matrix.source_degrees != want_src:
            raise AlgebraError("matrix source does not match source module")
        self.matrix = matrix

    def is_zero(self) -> bool:
        gb = self.target.rel_gb()
        return all(gb.contains_vec(v) for v in self.matrix.column_vecs())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModuleMorphism):
            return NotImplemented
        if (self.source is not other.source and self.source != other.source):
            return False
        if (self.target is not other.target and self.target != other.target):
            return False
        if self.degree != other.degree:
            return False
        return (self - other).is_zero()

    __hash__ = None

    def compose(self, other: "ModuleMorphism") -> "ModuleMorphism":
        """self o other."""
        mat = self.matrix.compose(_shifted(other.matrix, self.degree))
        return ModuleMorphism(other.source, self.target, mat,
                              self.degree + other.degree)

    def __sub__(self, other) -> "ModuleMorphism":
        if self.degree != other.degree:
            raise AlgebraError("cannot subtract morphisms of different degrees")
        p = self.ctx.characteristic
        vecs = [vec_add_scaled(dict(v), w, -1, 0, p) for v, w in
                zip(self.matrix.column_vecs(), other.matrix.column_vecs())]
        mat = FreeModuleMap.from_vecs(self.ctx, vecs,
                                      self.matrix.target_degrees,
                                      self.matrix.source_degrees)
        return ModuleMorphism(self.source, self.target, mat, self.degree)

    @property
    def ctx(self):
        return self.source.ctx

    @classmethod
    def identity(cls, m: FPModule) -> "ModuleMorphism":
        return cls(m, m, FreeModuleMap.identity(m.ctx, m.gen_degrees))

    @classmethod
    def zero(cls, source: FPModule, target: FPModule,
             degree: int = 0) -> "ModuleMorphism":
        mat = FreeModuleMap.zero_map(
            source.ctx, tuple(d + degree for d in source.gen_degrees),
            target.gen_degrees)
        return cls(source, target, mat, degree)

    def __repr__(self):
        return (f"ModuleMorphism(degree={self.degree}, "
                f"matrix={self.matrix!r})")


# -- direct sums -------------------------------------------------------------

def direct_sum(*modules: FPModule) -> FPModule:
    """The sum of one or more modules: their generators, then their
    relation columns, in the order given.  It keeps its summands."""
    ctx = modules[0].ctx
    if any(m.ctx != ctx for m in modules):
        raise AlgebraError("context mismatch in direct sum")
    gens, vecs, degrees = (), [], ()
    for m in modules:
        vecs += [shift_vec(ctx, v, len(gens))
                 for v in m.relations.column_vecs()]
        gens += m.gen_degrees
        degrees += m.relations.source_degrees
    out = FPModule(ctx, gens, FreeModuleMap.from_vecs(ctx, vecs, gens,
                                                      degrees))
    out._summands = modules
    return out


# -- kernels and cokernels ---------------------------------------------------

def _kernel_modulo(g: ModuleMorphism, sub: FreeModuleMap):
    """(K, pre, block): the kernel of g modulo the span of the columns
    ``sub`` on the cover of g's source, the columns ``pre`` of K's
    generators, and the block [pre | sub] whose relative syzygies
    {c : pre c in im sub} are K's relations.  The block keeps that extended
    basis, with the columns of pre flagged, which also lifts into K."""
    ctx = g.ctx
    pre = _relative_syzygies(_beside(g.matrix, g.target.relations),
                             g.matrix.source_rank)
    # pre lives over the shifted cover of the source; shift degrees back
    gen_degrees = tuple(d - g.degree for d in pre.source_degrees)
    block = _beside(pre, _shifted(sub, g.degree))
    rel = _relative_syzygies(block, pre.source_rank)
    rel = rel.regraded(tuple(d - g.degree for d in rel.source_degrees),
                       gen_degrees)
    return FPModule(ctx, gen_degrees, rel), pre, block


def kernel_with_inclusion(f: ModuleMorphism):
    K, pre, _ = _kernel_modulo(f, f.source.relations)
    incl_mat = pre.regraded(K.gen_degrees, f.source.gen_degrees)
    return K, ModuleMorphism(K, f.source, incl_mat)


def kernel(f: ModuleMorphism) -> FPModule:
    return kernel_with_inclusion(f)[0]


def _quotient(m: FPModule, cols: FreeModuleMap) -> FPModule:
    """m modulo the submodule spanned by the columns ``cols`` on its cover;
    they come before the relations of m."""
    return FPModule(m.ctx, m.gen_degrees, cols.hstack(m.relations))


def cokernel(f: ModuleMorphism) -> FPModule:
    return _quotient(f.target, f.matrix)


def cokernel_with_projection(f: ModuleMorphism):
    C = cokernel(f)
    T = f.target
    return C, ModuleMorphism(T, C, FreeModuleMap.identity(f.ctx,
                                                         T.gen_degrees))


def homology(g: ModuleMorphism, f: ModuleMorphism) -> FPModule:
    """kernel(g)/image(f) for a composable pair with g o f = 0."""
    B = g.source
    if f.target is not B and f.target != B:
        raise AlgebraError("maps are not composable")
    return _kernel_modulo(g, f.matrix.hstack(B.relations))[0]


# -- minimal presentations and resolutions ----------------------------------

def _nakayama_keep(ctx: RingContext, base, cands, degrees):
    """Graded Nakayama greedy pass: indices of the candidate vectors, taken
    in (degree, index) order, that lie outside the span of the vectors
    ``base`` plus the candidates kept before them.  One basis, grown from
    empty, holds that span."""
    gb = GroebnerBasis(ctx)
    for v in base:
        gb.add(v)
    return [j for j in sorted(range(len(cands)), key=lambda j: (degrees[j], j))
            if gb.add(cands[j])]


def _trim_columns(m: FreeModuleMap) -> FreeModuleMap:
    """Minimal generating set of the column span."""
    vecs = m.column_vecs()
    kept = _nakayama_keep(m.ctx, (), vecs, m.source_degrees)
    return FreeModuleMap.from_vecs(m.ctx, [vecs[j] for j in kept],
                                   m.target_degrees,
                                   [m.source_degrees[j] for j in kept])


def minimal_presentation(m: FPModule):
    """(m_min, to_min, from_min) with mutually inverse isomorphisms, cached.

    One pass over the relation columns, in order, substitutes the generators
    eliminated so far into each; a constant entry left eliminates the
    generator at its lowest position.  Substitution gives no constant entry
    to a column without one, so the pivots are the column-order echelon of
    the constant parts.  to_min is the one map that fixes the kept
    generators and kills the pivot columns (unitriangular on the pivot
    generators); the relations are all columns substituted, then trimmed."""
    if m._min is not None:
        return m._min
    ctx, p = m.ctx, m.ctx.characteristic
    pivots = {}     # eliminated position -> (order of elimination, column)

    def substituted(v):
        # one eliminated generator at a time, in the order of elimination:
        # a pivot column holds only generators eliminated after its own
        v = dict(v)
        while at := {pivots[i][0]: i for t in v
                     if (i := term_pos(ctx, t)) in pivots}:
            i = at[min(at)]
            for t in [t for t in v if term_pos(ctx, t) == i]:
                vec_add_scaled(v, pivots[i][1], -v[t],
                               shift_term(ctx, t, -i), p)
        return v

    cols = []
    for v in m.relations.column_vecs():
        cols.append(v := substituted(v))
        if consts := [t for t in v if is_constant(ctx, t)]:
            u = min(consts)     # the leading one, at the lowest position
            pivots[term_pos(ctx, u)] = (len(pivots),
                                        vec_scale(v, ctx.inv(v[u]), p))
    keep = [i for i in range(m.rank) if i not in pivots]
    moves = {i: n - i for n, i in enumerate(keep)}
    gens = tuple(m.gen_degrees[i] for i in keep)

    def renumbered(v):
        return {shift_term(ctx, t, moves[term_pos(ctx, t)]): c
                for t, c in substituted(v).items()}

    units = FreeModuleMap.identity(ctx, m.gen_degrees).column_vecs()
    # the pivot columns substitute to zero; _trim_columns drops them
    m_min = FPModule(ctx, gens, _trim_columns(FreeModuleMap.from_vecs(
        ctx, map(renumbered, cols), gens, m.relations.source_degrees)))
    rho = FreeModuleMap.from_vecs(ctx, map(renumbered, units), gens,
                                  m.gen_degrees)
    iota = FreeModuleMap.from_vecs(ctx, [units[i] for i in keep],
                                   m.gen_degrees, gens)
    m._min = (m_min, ModuleMorphism(m, m_min, rho),
              ModuleMorphism(m_min, m, iota))
    m_min._min = (m_min, ModuleMorphism.identity(m_min),
                  ModuleMorphism.identity(m_min))
    return m._min


class FreeResolution(NamedTuple):
    """Minimal graded free resolution data.

    ``maps`` are the differentials d_1, d_2, ... over the minimalized
    presentation ``min_module``; ``complete`` records whether the last
    kernel vanished.
    """

    min_module: FPModule
    maps: list
    complete: bool

    @property
    def betti(self):
        return (self.min_module.rank,) + tuple(d.source_rank
                                               for d in self.maps)


def _check_differential(d: FreeModuleMap, prev: FreeModuleMap | None):
    """Refuse a new differential d that does not compose to zero with the
    differential ``prev`` before it, or that has a constant entry."""
    if prev is not None and not prev.compose(d).is_zero():
        raise AlgebraError("resolution differentials do not compose to 0")
    if d.constant_vecs():
        raise AlgebraError("resolution is not minimal")


def minimal_resolution(m: FPModule, max_len: int) -> FreeResolution:
    """Minimal graded free resolution up to length max_len (cached).

    Each differential is checked once, when it is computed."""
    if max_len < 0:
        raise AlgebraError("max_len must be >= 0")
    m_min, _, _ = minimal_presentation(m)
    if m._res_maps is None:
        _check_differential(m_min.relations, None)
        m._res_complete = m_min.relations.source_rank == 0
        m._res_maps = [] if m._res_complete else [m_min.relations]
    while not m._res_complete and len(m._res_maps) < max_len:
        nxt = _trim_columns(syzygy_basis(m._res_maps[-1]))
        if nxt.source_rank == 0:
            m._res_complete = True
        else:
            _check_differential(nxt, m._res_maps[-1])
            m._res_maps.append(nxt)
            if len(m._res_maps) > m.ctx.nvars:
                raise EngineError(
                    "resolution exceeded the Hilbert syzygy bound; "
                    "this is an engine bug")
    return FreeResolution(m_min, m._res_maps[:max_len],
                          m._res_complete and len(m._res_maps) <= max_len)


def syzygy(m: FPModule, c: int) -> FPModule:
    """c-th syzygy in the minimal graded resolution (cached)."""
    if c < 0:
        raise AlgebraError("negative syzygy index")
    if c in m._syz_cache:
        return m._syz_cache[c]
    res = minimal_resolution(m, c + 1)
    if c == 0:
        out = res.min_module
    elif c <= len(res.maps):
        # with c maps of the c + 1 asked for, the resolution is complete
        out = FPModule(m.ctx, res.maps[c - 1].source_degrees,
                       res.maps[c] if c < len(res.maps) else None)
    else:
        out = FPModule(m.ctx, (), None)
    m._syz_cache[c] = out
    return out


def minimal_generator_indices(m: FPModule):
    """Indices of a minimal generating subset of m's given generators, in
    (degree, index) order.  By graded Nakayama this is the greedy pass over
    m/(x_1..x_r)m: k^rank modulo the constant entries of the relation
    columns, so it row-reduces constant vectors and never uses rel_gb()."""
    units = FreeModuleMap.identity(m.ctx, m.gen_degrees).column_vecs()
    return _nakayama_keep(m.ctx, m.relations.constant_vecs(), units,
                          m.gen_degrees)
