"""Hom and Ext modules, Auslander transpose, grade, torsionfree tests,
stable Hom, factor-through ideals, syzygy action on morphisms and add-M
approximation resolutions."""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .ring import AlgebraError, EngineError
from .groebner import (FreeModuleMap, GroebnerBasis, lift_solve,
                       shift_term, term, term_pos)
from .modules import (FPModule, ModuleMorphism, INFINITE, _nakayama_keep,
                      _shifted, cokernel, direct_sum, free_module, homology,
                      kernel, kernel_with_inclusion, minimal_generator_indices,
                      minimal_presentation, minimal_resolution, syzygy)


# -- Hom modules -------------------------------------------------------------

def hom_free(degrees, n: FPModule) -> FPModule:
    """Hom(F, n) for a free module F with the given twist degrees.

    Basis index (j, i) is flattened as j * n.rank + i: source basis vector j
    of F sent to generator i of n.
    """
    ctx = n.ctx
    nr = n.rank
    gens = [n.gen_degrees[i] - d for d in degrees for i in range(nr)]
    vecs = []
    col_degs = []
    for jblk, d in enumerate(degrees):
        for v, e in zip(n.relations.column_vecs(),
                        n.relations.source_degrees):
            vecs.append({shift_term(ctx, t, jblk * nr): c
                         for t, c in v.items()})
            col_degs.append(e - d)
    rel = FreeModuleMap.from_vecs(ctx, vecs, gens, col_degs)
    return FPModule(ctx, gens, rel, check=False)


def induced_hom_map(d: FreeModuleMap, n: FPModule) -> ModuleMorphism:
    """Hom(target(d), n) -> Hom(source(d), n), composition with d."""
    hb = hom_free(d.target_degrees, n)
    ha = hom_free(d.source_degrees, n)
    nr = n.rank
    # basis vector (j, i) goes to row j of d, placed at the offsets i: the
    # row's term in position j2 moves to position j2 * nr + i
    ctx = n.ctx
    vecs = [{shift_term(ctx, t, term_pos(ctx, t) * (nr - 1) + i): c
             for t, c in row.items()}
            for row in d.transpose().column_vecs() for i in range(nr)]
    mat = FreeModuleMap.from_vecs(ctx, vecs, ha.gen_degrees, hb.gen_degrees)
    return ModuleMorphism(hb, ha, mat, check=False)


class HomModule:
    """Presentation of Hom_R(source, target) with realized generators."""

    def __init__(self, source: FPModule, target: FPModule):
        self.source = source
        self.target = target
        ctx = source.ctx
        if ctx != target.ctx:
            raise AlgebraError("context mismatch in Hom")
        self.ctx = ctx
        self._ambient = hom_free(source.gen_degrees, target)
        a = source.relations
        if a.source_rank == 0:
            self.module = self._ambient
            self._incl = FreeModuleMap.identity(ctx, self._ambient.gen_degrees)
        else:
            phi = induced_hom_map(a, target)
            K, incl = kernel_with_inclusion(phi)
            self.module = K
            self._incl = incl.matrix
        self.basis_morphisms = [
            _unjoined(v, source, target, deg, check=False)
            for v, deg in zip(self._incl.column_vecs(),
                              self.module.gen_degrees)]
        self._lift_block = None

    def _block(self) -> FreeModuleMap:
        """Generators beside the ambient relations, built once so that every
        lift reuses its cached elimination basis."""
        if self._lift_block is None:
            self._lift_block = self._incl.hstack(self._ambient.relations)
        return self._lift_block

    def coords_of_morphism(self, f: ModuleMorphism) -> dict:
        """Coordinate vector of f on the presentation generators."""
        return self.coords_map((f,)).column_vec(0)

    def coords_map(self, morphisms) -> FreeModuleMap:
        """Map whose column j is the coordinate vector of the j-th morphism
        on the presentation generators, in the morphism's degree.

        Any well-defined morphism source -> target is a combination of the
        realized generators modulo the ambient relations, so all columns
        come from one lift; failure to lift is an engine fault.
        """
        rhs = _joined(self.ctx, morphisms, self._ambient.gen_degrees)
        if not rhs.source_rank:
            return FreeModuleMap.zero_map(self.ctx, (),
                                          self.module.gen_degrees)
        sol = lift_solve(self._block(), rhs)
        if sol is None:
            raise EngineError("morphism does not lie in its Hom module")
        return FreeModuleMap.from_vecs(
            self.ctx, [_generator_part(self.ctx, v, self.module.rank)
                       for v in sol.column_vecs()],
            self.module.gen_degrees, rhs.source_degrees)

    def morphism_from_element(self, coords: dict,
                              degree: int) -> ModuleMorphism:
        """Realize a cover element (a coordinate vector on the generators)."""
        elem = FreeModuleMap.from_vecs(self.ctx, [coords],
                                       self.module.gen_degrees, (degree,))
        return _unjoined(self._incl.compose(elem).column_vec(0), self.source,
                         self.target, degree, check=False)


def _joined(ctx, morphisms, degrees) -> FreeModuleMap:
    """Map whose column k is the matrix columns of the k-th morphism joined
    end to end, in that morphism's degree: its vector in the ambient
    ``hom_free(source.gen_degrees, target)``, whose generator degrees are
    ``degrees``."""
    morphisms = list(morphisms)
    vecs = [{shift_term(ctx, t, j * f.target.rank): c
             for j, v in enumerate(f.matrix.column_vecs())
             for t, c in v.items()} for f in morphisms]
    return FreeModuleMap.from_vecs(ctx, vecs, degrees,
                                   [f.degree for f in morphisms])


def _unjoined(vec: dict, source: FPModule, target: FPModule, deg: int,
              check: bool) -> ModuleMorphism:
    """Morphism source -> target of degree ``deg`` whose matrix columns,
    joined end to end, form the ambient vector ``vec``."""
    ctx = source.ctx
    nr = target.rank
    cols = [{} for _ in range(source.rank)]
    for t, c in vec.items():
        j = term_pos(ctx, t) // nr
        cols[j][shift_term(ctx, t, -j * nr)] = c
    mat = FreeModuleMap.from_vecs(
        ctx, cols, target.gen_degrees,
        tuple(d + deg for d in source.gen_degrees))
    return ModuleMorphism(source, target, mat, degree=deg, check=check)


def _generator_part(ctx, vec: dict, rank: int) -> dict:
    """The terms of ``vec`` in positions below ``rank``."""
    return {t: c for t, c in vec.items() if term_pos(ctx, t) < rank}


def hom_module(m: FPModule, n: FPModule) -> HomModule:
    return HomModule(m, n)


def ext(i: int, m: FPModule, n: FPModule) -> FPModule:
    """i-th cohomology of Hom(minimal resolution of m, n)."""
    if i < 0:
        raise AlgebraError("negative Ext index")
    if i == 0:
        return hom_module(m, n).module
    res = minimal_resolution(m, i + 1)
    if i > len(res.maps):
        return FPModule(m.ctx, (), None)
    phi_i = induced_hom_map(res.maps[i - 1], n)
    if i < len(res.maps):
        phi_next = induced_hom_map(res.maps[i], n)
        return homology(phi_next, phi_i)
    return cokernel(phi_i)


# -- transpose, grade, torsionfree ------------------------------------------

def transpose(m: FPModule) -> FPModule:
    """Auslander transpose: cokernel of the dual of the minimal presentation."""
    m_min, _, _ = minimal_presentation(m)
    a = m_min.relations
    if a.source_rank == 0:
        return FPModule(m.ctx, (), None)
    at = a.transpose()
    return FPModule(m.ctx, at.target_degrees, at, check=False)


def grade(m: FPModule):
    """Least i with Ext^i(m, R) nonzero; INFINITE for the zero module.

    R is Cohen-Macaulay, so a nonzero m has grade r - dim m (Bruns-Herzog,
    Cohen-Macaulay Rings, Cor. 2.1.4).  m has the Hilbert function of the
    sum of the R/J_i, J_i the monomial ideal of the leading terms of its
    relation basis in position i, so dim m is the largest dim R/J_i; every
    J_i is the unit ideal exactly when m is zero.
    """
    r = m.ctx.nvars
    dim = max((_monomial_quotient_dim(lts, r) for lts in m._position_lts()),
              default=-1)
    return INFINITE if dim < 0 else r - dim


def _monomial_quotient_dim(monos, r: int) -> int:
    """dim R/J for J generated by the monomials ``monos``: the size of the
    largest set of variables that contains the support of no generator,
    or -1 when J is the unit ideal."""
    supports = {frozenset(v for v, e in enumerate(mono) if e)
                for mono in monos}
    for size in range(r, -1, -1):
        for free in itertools.combinations(range(r), size):
            if not any(s.issubset(free) for s in supports):
                return size
    return -1


def is_d_torsionfree(m: FPModule, d: int) -> bool:
    """Ext^i(Tr m, R) = 0 for 1 <= i <= d; d = 2 is the reflexivity test.

    Every module has a free resolution of length at most r, the number of
    variables, so Ext^i(·, R) vanishes for i > r and only i <= min(d, r)
    are computed.
    """
    if d < 1:
        raise AlgebraError("torsionfree index must be >= 1")
    tr = transpose(m)
    R = free_module(m.ctx)
    return all(ext(i, tr, R).is_zero()
               for i in range(1, min(d, m.ctx.nvars) + 1))


def generator_split_pair(m: FPModule):
    """(f: m -> R, g: R -> m) with f o g = id, or None.

    The trace ideal of m is generated by the values of the Hom(m, R)
    generators on the generators of m; since those values are homogeneous,
    the trace ideal is the unit ideal exactly when one of them is a nonzero
    constant, which immediately yields the split pair.
    """
    ctx = m.ctx
    R = free_module(ctx)
    h = hom_module(m, R)
    zero = (0,) * ctx.nvars
    for f in h.basis_morphisms:
        for j, v in enumerate(f.matrix.column_vecs()):
            c = v.get(term(ctx, 0, zero))
            if c:
                mat = FreeModuleMap.from_vecs(
                    ctx, [{term(ctx, j, zero): ctx.inv(c)}], m.gen_degrees,
                    (m.gen_degrees[j],))
                g = ModuleMorphism(R, m, mat, degree=m.gen_degrees[j],
                                   check=False)
                if f.compose(g) == ModuleMorphism.identity(R):
                    return f, g
                raise EngineError("split pair failed to verify; engine bug")
    return None


def is_generator(m: FPModule) -> bool:
    """True iff the trace ideal of m is the unit ideal (R in add m)."""
    return generator_split_pair(m) is not None


# -- stable Hom --------------------------------------------------------------

def _quotient(h: HomModule, cols: FreeModuleMap) -> FPModule:
    """Hom module modulo the submodule spanned by ``cols``; the generator
    columns come before the relations of ``h.module``."""
    return FPModule(h.ctx, h.module.gen_degrees,
                    cols.hstack(h.module.relations), check=False)


class StableHom(NamedTuple):
    """Hom(w, z) and its quotient by the morphisms through projectives."""

    total: HomModule
    quotient: FPModule


def stable_hom(w: FPModule, z: FPModule,
               cover: ModuleMorphism | None = None) -> StableHom:
    """Quotient of Hom(w, z) by morphisms factoring through projectives.

    Any morphism through any projective factors through any fixed surjection
    from a free module onto z, so a single generator cover suffices; an
    alternative ``cover`` surjection may be supplied for cross-checks.
    """
    ctx = w.ctx
    total = hom_module(w, z)
    if cover is None:
        F = free_module(ctx, z.gen_degrees)
        cover = ModuleMorphism(
            F, z, FreeModuleMap.identity(ctx, z.gen_degrees), check=False)
    cols = induced_post_hom(cover, hom_module(w, cover.source), total).matrix
    return StableHom(total, _quotient(total, cols))


def factor_ideal(z: FPModule, m: FPModule,
                 end: HomModule | None = None) -> FPModule:
    """Quotient End(z)/[m] by the morphisms factoring through add m.

    The ideal [m] is generated as an R-submodule by the composites of the
    Hom(z, m) and Hom(m, z) generators; bilinearity of composition makes
    that span the whole two-sided ideal.  A morphism lies in [m] exactly
    when the normal form of its coordinates in the quotient is zero.
    """
    if end is None:
        end = hom_module(z, z)
    hzm = hom_module(z, m)
    hmz = hom_module(m, z)
    outs = [hzm.basis_morphisms[i]
            for i in minimal_generator_indices(hzm.module)]
    ins = [hmz.basis_morphisms[i]
           for i in minimal_generator_indices(hmz.module)]
    comps = (g.compose(f) for f in outs for g in ins)
    cols = end.coords_map(c for c in comps if not c.is_zero())
    return _quotient(end, cols)


# -- syzygy action on morphisms ----------------------------------------------

def omega_on_morphism(phi: ModuleMorphism) -> ModuleMorphism:
    """Chain-map lift of phi restricted to the first syzygies.

    Well-defined up to morphisms through projectives; iterating gives the
    action of the c-fold syzygy functor on stable Hom.
    """
    X, Y = phi.source, phi.target
    ox, oy = syzygy(X, 1), syzygy(Y, 1)
    if ox.rank == 0 or oy.rank == 0:
        return ModuleMorphism.zero(ox, oy, phi.degree)
    _, to_x, from_x = minimal_presentation(X)
    _, to_y, from_y = minimal_presentation(Y)
    psi = to_y.compose(phi).compose(from_x)
    d1x = minimal_resolution(X, 1).maps[0]
    d1y = minimal_resolution(Y, 1).maps[0]
    rhs = psi.matrix.compose(_shifted(d1x, phi.degree))
    lifted = lift_solve(d1y, rhs)
    if lifted is None:
        raise EngineError("chain lift failed against a free target; engine bug")
    mat = lifted.regraded(tuple(d + phi.degree for d in ox.gen_degrees),
                          oy.gen_degrees)
    return ModuleMorphism(ox, oy, mat, degree=phi.degree, check=False)


def omega_power_on_morphism(phi: ModuleMorphism, c: int) -> ModuleMorphism:
    for _ in range(c):
        phi = omega_on_morphism(phi)
    return phi


def induced_post_hom(f: ModuleMorphism, src: "HomModule",
                     tgt: "HomModule") -> ModuleMorphism:
    """Hom(w, f): Hom(w, source(f)) -> Hom(w, target(f)), on presentations."""
    mat = tgt.coords_map(f.compose(b) for b in src.basis_morphisms)
    return ModuleMorphism(src.module, tgt.module, mat, degree=f.degree,
                          check=False)


# -- Hom-exactness of short exact sequences ----------------------------------

class LiftExactnessVerdict(NamedTuple):
    """Outcome of testing Hom(w, -) exactness on a short exact sequence."""

    hypothesis_holds: bool       # stable Hom(w, Z) vanishes
    left_exact: bool
    surjective: bool
    hom_exact: bool
    counterexample: str | None = None


def check_lift_exactness(ses, w: FPModule) -> LiftExactnessVerdict:
    """ses = (X, Y, Z, i, p) with 0 -> X -> Y -> Z -> 0 exact."""
    X, Y, Z, inc, prj = ses
    if not prj.compose(inc).is_zero():
        raise AlgebraError("p o i is nonzero; not a complex")
    if not kernel(inc).is_zero():
        raise AlgebraError("i is not injective; not a short exact sequence")
    if not cokernel(prj).is_zero():
        raise AlgebraError("p is not surjective; not a short exact sequence")
    if not homology(prj, inc).is_zero():
        raise AlgebraError("sequence is not exact in the middle")
    hyp = stable_hom(w, Z).quotient.is_zero()
    hx = hom_module(w, X)
    hy = hom_module(w, Y)
    hz = hom_module(w, Z)
    ind_i = induced_post_hom(inc, hx, hy)
    ind_p = induced_post_hom(prj, hy, hz)
    left = kernel(ind_i).is_zero()
    mid = homology(ind_p, ind_i).is_zero()
    right = cokernel(ind_p).is_zero()
    counter = None
    if hyp and not (left and mid and right):
        counter = ("Hom(w, Z) generator outside the image of Hom(w, Y)"
                   if not right else "exactness failure in the Hom sequence")
    return LiftExactnessVerdict(hypothesis_holds=hyp,
                                left_exact=left and mid,
                                surjective=right,
                                hom_exact=left and mid and right,
                                counterexample=counter)


# -- add-M approximation resolutions -----------------------------------------

class AddMResolution(NamedTuple):
    """Iterated right add-M approximations 0 -> K_{i+1} -> M_i -> K_i -> 0.

    ``terminated`` certifies that the final kernel lies in add M: it is
    zero, or its own add-M cover is injective (when M is provably basic
    and the cover minimal, so the cover is an isomorphism onto it) or has
    a section, found and checked by ``hom_factorization`` (otherwise).
    The resolution then closes up with the last inclusion as final map.
    """

    modules: list                 # K_0 = z, K_1, ...
    approximations: list          # ModuleMorphism M_i -> K_i (surjective)
    inclusions: list              # ModuleMorphism K_{i+1} -> M_i
    terminated: bool

    @property
    def depth(self) -> int:
        return len(self.approximations)

    def connecting_map(self, i: int) -> ModuleMorphism:
        """f_i: M_i -> M_{i-1} through K_i, for i >= 1."""
        return self.inclusions[i - 1].compose(self.approximations[i])


def hom_factorization(f: ModuleMorphism, g: ModuleMorphism):
    """h with g o h = f as module morphisms, or None.

    The unknown is the matrix S of h on the cover of A = source(f), one
    coordinate per basis element of the ambient Hom(cover of A, B), B =
    source(g).  S is a morphism when S o (relations of A) vanishes modulo
    the relations of B, and g o h = f when g o S and f agree modulo the
    relations of C = target(g); both are linear in S, so one lift of
    (0 ; f) against the stacked block decides factorization.  A bare
    cover-level lift of f through g is not enough, since its matrix need
    not respect the relations of A.  No Hom module is presented: the
    extended basis of the block is the only Groebner basis built, and the
    returned h is checked to descend and to compose to f.
    """
    if f.target is not g.target and f.target != g.target:
        raise AlgebraError("factorization: f and g have different targets")
    ctx = f.ctx
    A, B, C = f.source, g.source, g.target
    shift = -g.degree
    # rows above: S o (relations of A), in Hom(cover of A's relations, B)
    wd = induced_hom_map(A.relations, B)
    top = wd.target.rank
    # rows below: g o S joined in Hom(cover of A, C), regraded by the
    # degree of g so that every column has the degree of its unknown
    amb = hom_free(A.gen_degrees, C)

    def below(v: dict, j: int) -> dict:
        return {shift_term(ctx, t, top + j * C.rank): c for t, c in v.items()}

    g_cols = g.matrix.column_vecs()
    units = [{**w, **below(g_cols[k % B.rank], k // B.rank)}
             for k, w in enumerate(wd.matrix.column_vecs())]
    block = FreeModuleMap.from_vecs(
        ctx, units + wd.target.relations.column_vecs()
        + [below(v, 0) for v in amb.relations.column_vecs()],
        wd.target.gen_degrees + tuple(d + shift for d in amb.gen_degrees),
        wd.source.gen_degrees + wd.target.relations.source_degrees
        + tuple(d + shift for d in amb.relations.source_degrees))
    f_vec = _joined(ctx, [f], amb.gen_degrees).column_vec(0)
    rhs = FreeModuleMap.from_vecs(ctx, [below(f_vec, 0)],
                                  block.target_degrees, (f.degree + shift,))
    sol = lift_solve(block, rhs)
    if sol is None:
        return None
    h = _unjoined(_generator_part(ctx, sol.column_vec(0), len(units)),
                  A, B, f.degree + shift, check=True)
    if g.compose(h) != f:
        raise EngineError("factorization failed to verify; engine bug")
    return h


def _cover_selection(hmk: HomModule, comp, degrees):
    """Indices of the candidate blocks ``comp`` (coordinate columns in
    ``hmk``) kept by the add-M cover prune, which drops blocks in
    (-degree, index) order while the rest still generate ``hmk.module``.

    By graded Nakayama a selection generates exactly when the constant
    parts of its columns and of the relations span k^rank, so each trial is
    the rank of constant vectors: a Groebner basis of constant vectors has
    one element per leading position, so its size is that rank.  The
    constant parts are taken once.  The trial that drops the k-th block in
    that order keeps the blocks kept before it and every later block, so
    it grows the basis of the relations and the later blocks, built once
    per position from the back, by the kept earlier blocks only.
    """
    ctx = hmk.ctx
    rank = hmk.module.rank
    order = sorted(range(len(comp)), key=lambda j: (-degrees[j], j))
    blocks = [comp[j].constant_vecs() for j in order]
    # suffix[k]: basis of the relations' constant parts and blocks[k:],
    # each a copy, as the one trial that reads it grows it in place
    gb = GroebnerBasis(ctx)
    suffix = []
    for b in [hmk.module.relations.constant_vecs()] + blocks[::-1]:
        gb = GroebnerBasis(ctx, gb.generators)
        for v in b:
            gb.add(v)
        suffix.append(gb)
    suffix.reverse()
    if len(suffix[0].generators) != rank:
        raise EngineError("add-M candidates fail to cover Hom(m, K); "
                          "engine bug")
    # Covering is monotone in the selection: a candidate that cannot be
    # dropped from a selection cannot be dropped from any subset of it,
    # so one pass leaves a selection from which nothing can be dropped.
    kept = []
    for k in range(len(order)):
        gb = suffix[k + 1]
        for i in kept:
            for v in blocks[i]:
                gb.add(v)
        if len(gb.generators) != rank:
            kept.append(k)
    return sorted(order[k] for k in kept)


def _radicals(summands):
    """Generators of the radical of add M, ``rad[a][b]`` spanning the
    radical maps S_a -> S_b as an R-module, when M = sum of ``summands`` is
    provably basic; otherwise None.

    M is basic when each summand has End(S_l)_0 = k (so it is
    indecomposable) and no two are isomorphic up to twist.  The radical is
    then every map between different summands and every endomorphism of
    nonzero degree: the minimal generators of Hom(S_a, S_b), without the
    degree-0 one (the identity, up to a scalar) when a = b.  Summands
    whose minimal presentations have the same degrees up to a common
    shift are not told apart, and give None.
    """
    shapes = set()
    for S in summands:
        s_min = minimal_presentation(S)[0]
        low = min(s_min.gen_degrees, default=0)
        shapes.add((tuple(sorted(d - low for d in s_min.gen_degrees)),
                    tuple(sorted(d - low for d in
                                 s_min.relations.source_degrees))))
    if len(shapes) < len(summands):
        return None
    rad = []
    for a, Sa in enumerate(summands):
        row = []
        for b, Sb in enumerate(summands):
            h = hom_module(Sa, Sb)
            gens = [h.basis_morphisms[i]
                    for i in minimal_generator_indices(h.module)]
            if a == b:
                if h.module.hilbert_function(0)[0] != 1:
                    return None
                gens = [g for g in gens if g.degree]
            row.append(gens)
        rad.append(row)
    return rad


def _top_selection(K: FPModule, summands, rad):
    """The minimal right add-M approximation of K for a basic M: one
    (l, g), g: S_l -> K, per basis element of the top of Hom(M, K) as a
    right End(M)-module, Hom(M, K) / (Hom(M, K) o rad(M, M)).

    Coordinates live in the sum of the presentations of Hom(S_l, K).  The
    top is k^rank modulo the constant parts of the Hom relations and of
    the composites g o rho of every candidate g (a minimal generator of
    Hom(S_b, K)) with every radical rho: S_a -> S_b; a composite of a
    degree that no generator of Hom(S_a, K) has has no constant part and
    is not lifted.  A candidate is kept when its unit vector lies outside
    that span and the candidates kept before it, in (degree, index) order.
    """
    ctx = K.ctx
    homs = [hom_module(S, K) for S in summands]
    cands = [(l, i) for l, h in enumerate(homs)
             for i in minimal_generator_indices(h.module)]
    morphs = [(l, homs[l].basis_morphisms[i]) for l, i in cands]
    offsets = list(itertools.accumulate((h.module.rank for h in homs),
                                        initial=0))
    span = []
    for a, h in enumerate(homs):
        degrees = set(h.module.gen_degrees)
        comps = h.coords_map(g.compose(rho) for b, g in morphs
                             for rho in rad[a][b]
                             if g.degree + rho.degree in degrees)
        span += [{shift_term(ctx, t, offsets[a]): c for t, c in v.items()}
                 for v in h.module.relations.hstack(comps).constant_vecs()]
    zero = (0,) * ctx.nvars
    units = [{term(ctx, offsets[l] + i, zero): 1} for l, i in cands]
    kept = _nakayama_keep(ctx, span, units, [g.degree for _, g in morphs])
    return [morphs[j] for j in sorted(kept)]


def _pruned_selection(K: FPModule, m: FPModule, summands, hom_m_s):
    """The add-M cover of K for an M not known to be basic: (l, g) for the
    candidate blocks that ``_cover_selection`` keeps."""
    hmk = hom_module(m, K)
    cands = []
    for l, S in enumerate(summands):
        hS = hmk if S is m else hom_module(S, K)
        for i in minimal_generator_indices(hS.module):
            cands.append((l, hS.basis_morphisms[i]))
    # composites with Hom(m, S_l) generators R-span the image of
    # Hom(m, S_l-part of the cover) inside Hom(m, K); a composite of a
    # degree e that no generator has gets coordinates of degrees e - d_i
    # != 0, with no constant part for the prune to read
    gen_degrees = set(hmk.module.gen_degrees)
    comp = [hmk.coords_map(g.compose(psi) for psi in hom_m_s[l]
                           if g.degree + psi.degree in gen_degrees)
            for l, g in cands]
    kept = _cover_selection(hmk, comp, [g.degree for _, g in cands])
    return [cands[j] for j in kept]


def add_M_resolution(z: FPModule, m: FPModule, depth: int,
                     summands=None) -> AddMResolution:
    """Right add-M approximation resolution of z, to the requested depth.

    Each step surjects a sum of twisted summands of m onto K_i, built from
    generators of Hom(m, K_i); surjectivity holds because m is a
    generator, and is asserted.  ``summands`` optionally decomposes m as a
    direct sum (default: m alone).  When the summands are provably basic
    (``_radicals``), each cover is the minimal approximation read off the
    top of Hom(m, K_i) over End(m), and the resolution stops at the first
    step >= 1 whose cover is injective: a minimal right approximation of a
    module in add m is an isomorphism (Auslander-Smalo 1980).  Otherwise
    each cover is pruned by ``_cover_selection`` and the resolution stops
    when ``hom_factorization`` finds a section of it.
    """
    if depth < 0:
        raise AlgebraError("depth must be >= 0")
    if not is_generator(m):
        raise AlgebraError("m is not a generator")
    if summands is None:
        summands = (m,)
    else:
        summands = tuple(summands)
        if not summands:
            raise AlgebraError("summands: expected at least one module")
        if functools.reduce(direct_sum, summands) != m:
            raise AlgebraError("summands do not present the direct sum m")
    rad = _radicals(summands)
    if rad is None:
        hom_m_s = []
        for S in summands:
            hS = hom_module(m, S)
            hom_m_s.append([hS.basis_morphisms[i]
                            for i in minimal_generator_indices(hS.module)])

    def cover(K):
        morphs = (_top_selection(K, summands, rad) if rad is not None
                  else _pruned_selection(K, m, summands, hom_m_s))
        if not morphs:
            raise EngineError("Hom(m, K) vanished for a generator; engine bug")
        blocks = [summands[l].twist(g.degree) for l, g in morphs]
        Mi = functools.reduce(direct_sum, blocks)
        ev_mat = functools.reduce(
            FreeModuleMap.hstack, [g.matrix for _, g in morphs])
        return ModuleMorphism(Mi, K, ev_mat, check=False)

    modules = [z]
    approximations = []
    inclusions = []
    K = z
    terminated = z.is_zero()
    for step in range(depth + 1):
        if terminated:
            break
        ev = cover(K)
        # Every map from m to K factors through the approximation ev, so K
        # lies in add m exactly when ev has a section, and, for a minimal
        # ev, exactly when ev is injective.  The first step is always taken
        # so that a z already in add m still gets its split cover recorded;
        # the pass at step == depth only tests.
        exit_test = step >= 1 or step == depth
        if exit_test and rad is None:
            terminated = hom_factorization(ModuleMorphism.identity(K),
                                           ev) is not None
            if terminated or step == depth:
                break
        if not cokernel(ev).is_zero():
            raise EngineError("add-M approximation failed to surject; "
                              "engine bug")
        Knext, incl = kernel_with_inclusion(ev)
        if exit_test and rad is not None:
            terminated = Knext.is_zero()
            if terminated or step == depth:
                break
        # keep presentations small: replace the kernel by its minimal model
        Kmin, _, from_min = minimal_presentation(Knext)
        Knext, incl = Kmin, incl.compose(from_min)
        approximations.append(ev)
        inclusions.append(incl)
        modules.append(Knext)
        K = Knext
        terminated = K.is_zero()
    return AddMResolution(modules, approximations, inclusions, terminated)
