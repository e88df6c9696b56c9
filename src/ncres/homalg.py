"""Hom and Ext modules, Auslander transpose, grade, torsionfree tests,
stable Hom, factor-through ideals, syzygy action on morphisms and add-M
approximation resolutions."""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .ring import AlgebraError, EngineError
from .groebner import (FreeModuleMap, _relative_lift, is_constant,
                       lift_solve, shift_term, shift_vec, split_vec, term,
                       term_pos)
from .modules import (FPModule, ModuleMorphism, INFINITE, _beside,
                      _kernel_modulo, _nakayama_keep, _quotient, _shifted,
                      cokernel, direct_sum, free_module, homology, kernel,
                      kernel_with_inclusion, minimal_generator_indices,
                      minimal_presentation, minimal_resolution, syzygy)


# -- Hom modules -------------------------------------------------------------

def hom_free(degrees, n: FPModule) -> FPModule:
    """Hom(F, n) for a free module F with the given twist degrees, the sum
    of the twists n(-d): basis index (j, i), flattened as j * n.rank + i,
    sends source basis vector j of F to generator i of n."""
    ctx, rel = n.ctx, n.relations
    gens = tuple(g - d for d in degrees for g in n.gen_degrees)
    return FPModule(ctx, gens, FreeModuleMap.from_vecs(
        ctx, [shift_vec(ctx, v, j * n.rank) for j in range(len(degrees))
              for v in rel.column_vecs()],
        gens, [e - d for d in degrees for e in rel.source_degrees]))


def induced_hom_map(d: FreeModuleMap, n: FPModule) -> ModuleMorphism:
    """Hom(target(d), n) -> Hom(source(d), n), composition with d."""
    hb, ha = hom_free(d.target_degrees, n), hom_free(d.source_degrees, n)
    nr = n.rank
    # basis vector (j, i) goes to row j of d, placed at the offsets i: the
    # row's term in position j2 moves to position j2 * nr + i
    ctx = n.ctx
    vecs = [{shift_term(ctx, t, term_pos(ctx, t) * (nr - 1) + i): c
             for t, c in row.items()}
            for row in d.transpose().column_vecs() for i in range(nr)]
    mat = FreeModuleMap.from_vecs(ctx, vecs, ha.gen_degrees, hb.gen_degrees)
    return ModuleMorphism(hb, ha, mat)


class HomModule:
    """Presentation of Hom_R(source, target) with realized generators.

    It lies in the ambient Hom(F_0, target), F_0 the cover of source, as
    the kernel of composition with the relations F_1 -> F_0 of source (the
    whole ambient when source is free).  The generators ``_incl`` sit
    beside the ambient relations in one block [incl | ambient relations].
    Its one extended basis flags the ``module.rank`` generator columns
    only: its flagged-led elements are the relations of a kernel, and its
    normal forms give every lift of ``coords_map``.
    """

    def __init__(self, source: FPModule, target: FPModule):
        self.source = source
        self.target = target
        ctx = source.ctx
        if ctx != target.ctx:
            raise AlgebraError("context mismatch in Hom")
        self.ctx = ctx
        self._ambient = amb = hom_free(source.gen_degrees, target)
        a = source.relations
        if a.source_rank == 0:
            self.module = amb
            self._incl = FreeModuleMap.identity(ctx, amb.gen_degrees)
            self._block = _beside(self._incl, amb.relations)
        else:
            self.module, self._incl, self._block = _kernel_modulo(
                induced_hom_map(a, target), amb.relations)

    @functools.cached_property
    def basis_morphisms(self):
        """The generators of ``module`` as morphisms source -> target."""
        return [_unjoined(v, self.source, self.target, deg)
                for v, deg in zip(self._incl.column_vecs(),
                                  self.module.gen_degrees)]

    @functools.cached_property
    def minimal_morphisms(self):
        """A minimal generating set of ``module``, as morphisms."""
        return [self.basis_morphisms[i]
                for i in minimal_generator_indices(self.module)]

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
        sol = _relative_lift(self._block, rhs, self.module.rank)
        if sol is None:
            raise EngineError("morphism does not lie in its Hom module")
        return sol


def _joined(ctx, morphisms, degrees) -> FreeModuleMap:
    """Map whose column k is the matrix columns of the k-th morphism joined
    end to end, in that morphism's degree: its vector in the ambient
    ``hom_free(source.gen_degrees, target)``, whose generator degrees are
    ``degrees``."""
    morphisms = list(morphisms)
    vecs = []
    for f in morphisms:
        vec = {}
        nr = f.target.rank
        for j, v in enumerate(f.matrix.column_vecs()):
            if v:
                vec.update(shift_vec(ctx, v, j * nr))
        vecs.append(vec)
    return FreeModuleMap.from_vecs(ctx, vecs, degrees,
                                   [f.degree for f in morphisms])


def _unjoined(vec: dict, source: FPModule, target: FPModule,
              deg: int) -> ModuleMorphism:
    """Morphism source -> target of degree ``deg`` whose matrix columns,
    joined end to end, form the ambient vector ``vec``; it is not checked
    to descend to the quotients."""
    ctx = source.ctx
    cols = split_vec(ctx, vec, target.rank, source.rank)
    mat = FreeModuleMap.from_vecs(
        ctx, cols, target.gen_degrees,
        tuple(d + deg for d in source.gen_degrees))
    return ModuleMorphism(source, target, mat, degree=deg)


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
    return FPModule(m.ctx, at.target_degrees, at)


def grade(m: FPModule):
    """Least i with Ext^i(m, R) nonzero; INFINITE for the zero module.

    R is Cohen-Macaulay, so a nonzero m has grade r - dim m (Bruns-Herzog,
    Cohen-Macaulay Rings, Cor. 2.1.4).  m has the Hilbert function of the
    sum of the R/J_i, J_i the monomial ideal of the leading terms of its
    relation basis in position i, so dim m is the largest dim R/J_i, the
    pole order of its Hilbert series at s = 1; every J_i is the unit ideal
    exactly when m is zero.
    """
    dim = max((d for _, d, _ in m._series()), default=-1)
    return INFINITE if dim < 0 else m.ctx.nvars - dim


def _distinct_summands(m: FPModule):
    """One of each class up to twist of the nonzero summands that
    ``direct_sum`` recorded on m; None for fewer than two."""
    parts = [S for S in m._summands or () if S.rank]
    if len(parts) < 2:
        return None
    distinct = {}
    for S in parts:
        low = S.gen_degrees[0]
        distinct.setdefault((tuple(d - low for d in S.gen_degrees),
                             tuple(tuple(sorted(v.items()))
                                   for v in S.relations.column_vecs())), S)
    return list(distinct.values())


def is_d_torsionfree(m: FPModule, d: int) -> bool:
    """Ext^i(Tr m, R) = 0 for 1 <= i <= d; d = 2 is the reflexivity test.

    Every module has a free resolution of length at most r, the number of
    variables, so Ext^i(·, R) vanishes for i > r and only i <= min(d, r)
    are computed.  Tr and Ext^i(-, R) are additive (Auslander and Bridger
    1969), so a direct sum asks its distinct summands.  Another m keeps
    its verdict, monotone in d: true below a true d, false above a false d.
    """
    if d < 1:
        raise AlgebraError("torsionfree index must be >= 1")
    if not m.relations.source_rank:
        return True             # the transpose of a free module is zero
    d = min(d, m.ctx.nvars)
    if parts := _distinct_summands(m):
        return all(is_d_torsionfree(S, d) for S in parts)
    known, failed = m._torsionfree
    if known < d < failed:
        tr, R = transpose(m), free_module(m.ctx)
        ok = all(ext(i, tr, R).is_zero() for i in range(known + 1, d + 1))
        m._torsionfree = (d, failed) if ok else (known, d)
    return d <= m._torsionfree[0]


def _free_generators(m: FPModule) -> tuple:
    """Indices of generators of m that span a free summand of the largest
    rank, cached on m.  By graded Nakayama that rank is the rank over k of
    the trace pairing Hom(m, R) x m -> R modulo the maximal ideal, the
    constant parts of the Hom(m, R) generators on the generators of m; the
    Hom generators paired with a full-rank set map its span isomorphically
    onto a free module, which splits off."""
    if m._free is None:
        ctx = m.ctx
        pairing = hom_module(m, free_module(ctx))._incl.transpose()
        tops = [{t: c for t, c in v.items() if is_constant(ctx, t)}
                for v in pairing.column_vecs()]
        m._free = tuple(sorted(_nakayama_keep(ctx, (), tops, m.gen_degrees)))
    return m._free


def is_generator(m: FPModule) -> bool:
    """True iff m has a free summand (R in add m, its trace ideal is R); a
    direct sum has one exactly when one of its summands has."""
    if not m.relations.source_rank:
        return m.rank > 0
    if parts := _distinct_summands(m):
        return any(is_generator(S) for S in parts)
    return bool(_free_generators(m))


# -- stable Hom --------------------------------------------------------------

class StableHom(NamedTuple):
    """Hom(w, z) and its quotient by the morphisms through projectives."""

    total: HomModule
    quotient: FPModule


def stable_hom(w: FPModule, z: FPModule) -> StableHom:
    """Quotient of Hom(w, z) by morphisms factoring through projectives.

    Any morphism through any projective factors through any fixed surjection
    from a free module onto z, so the generator cover of z suffices.
    """
    ctx = w.ctx
    total = hom_module(w, z)
    F = free_module(ctx, z.gen_degrees)
    cover = ModuleMorphism(F, z, FreeModuleMap.identity(ctx, z.gen_degrees))
    cols = induced_post_hom(cover, hom_module(w, F), total).matrix
    return StableHom(total, _quotient(total.module, cols))


def factor_ideal(z: FPModule, m: FPModule, end: HomModule) -> FPModule:
    """Quotient End(z)/[m] by the morphisms factoring through add m, with
    ``end`` the Hom module End(z).

    The ideal [m] is generated as an R-submodule by the composites of the
    Hom(z, m) and Hom(m, z) generators; bilinearity of composition makes
    that span the whole two-sided ideal.  A morphism lies in [m] exactly
    when the normal form of its coordinates in the quotient is zero.
    """
    outs = hom_module(z, m).minimal_morphisms
    ins = hom_module(m, z).minimal_morphisms
    comps = (g.compose(f) for f in outs for g in ins)
    cols = end.coords_map(c for c in comps if not c.is_zero())
    return _quotient(end.module, cols)


# -- syzygy action on morphisms ----------------------------------------------

def omega_power_on_morphism(phi: ModuleMorphism, c: int) -> ModuleMorphism:
    """Omega^c phi: syzygy(X, c) -> syzygy(Y, c) for phi: X -> Y, the c-th
    component of a chain map lifting phi between the cached minimal
    resolutions, so Omega^0 phi is phi on the minimal models; unique up to
    maps through projectives (the syzygy functor on stable Hom)."""
    X, Y = phi.source, phi.target
    ox, oy = syzygy(X, c), syzygy(Y, c)
    if ox.rank == 0 or oy.rank == 0:
        return ModuleMorphism.zero(ox, oy, phi.degree)
    mat = (minimal_presentation(Y)[1].compose(phi)
           .compose(minimal_presentation(X)[2]).matrix)
    dx, dy = minimal_resolution(X, c).maps, minimal_resolution(Y, c).maps
    for k in range(c):
        # phi_{k+1} with d^Y_{k+1} o phi_{k+1} = phi_k o d^X_{k+1}
        mat = lift_solve(dy[k], mat.compose(_shifted(dx[k], phi.degree)))
        if mat is None:
            raise EngineError("chain lift failed against a free target; "
                              "engine bug")
    return ModuleMorphism(ox, oy, mat, degree=phi.degree)


def induced_post_hom(f: ModuleMorphism, src: "HomModule",
                     tgt: "HomModule") -> ModuleMorphism:
    """Hom(w, f): Hom(w, source(f)) -> Hom(w, target(f)), on presentations."""
    mat = tgt.coords_map(f.compose(b) for b in src.basis_morphisms)
    return ModuleMorphism(src.module, tgt.module, mat, degree=f.degree)


# -- Hom-exactness of short exact sequences ----------------------------------

class LiftExactnessVerdict(NamedTuple):
    """Outcome of testing Hom(w, -) exactness on a short exact sequence."""

    hypothesis_holds: bool       # stable Hom(w, Z) vanishes
    hom_exact: bool


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
    sz = stable_hom(w, Z)
    hyp = sz.quotient.is_zero()
    hy = hom_module(w, Y)
    ind_i = induced_post_hom(inc, hom_module(w, X), hy)
    ind_p = induced_post_hom(prj, hy, sz.total)
    exact = (cokernel(ind_p).is_zero() and kernel(ind_i).is_zero()
             and homology(ind_p, ind_i).is_zero())
    return LiftExactnessVerdict(hypothesis_holds=hyp, hom_exact=exact)


# -- add-M approximation resolutions -----------------------------------------

class AddMResolution(NamedTuple):
    """Iterated right add-M approximations 0 -> K_{i+1} -> M_i -> K_i -> 0.

    Every approximation is minimal.  ``terminated`` certifies that the final
    kernel lies in add M: it is zero, or its own minimal add-M cover is
    injective, so an isomorphism onto it.  The resolution then closes up
    with the last inclusion as final map.
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


def _radicals(summands):
    """(basic, rad): summands of a basic M' with add M' = add M up to twist,
    M the sum of ``summands`` (the flat list ``direct_sum`` records, or M
    alone), and generators of the radical of add M',
    ``rad[a][b]`` spanning the radical maps S_a -> S_b as an R-module.

    M' is basic when each summand has End(S_l)_0 = k (so it is
    indecomposable) and no two are isomorphic up to twist.  A summand with
    a larger End_0 has all its free summands split off in one quotient, by
    the generators ``_free_generators`` picks, and R listed once in their
    place; what is left must then have End_0 = k, or M is refused by an
    AlgebraError whose ``summand`` is the index l of S_l.  Zero summands
    are dropped, and so is a summand isomorphic up to twist to an earlier
    one: with End_0 = k on both sides, S_a and S_b are isomorphic
    up to twist exactly when minimal generators f of Hom(S_a, S_b) and g of
    Hom(S_b, S_a) of opposite degrees compose to a nonzero g o f, an
    element of End(S_a)_0 = k (a composite with a factor in the maximal
    ideal times Hom vanishes on the top of S_a, so the minimal generators
    suffice).  A basic list comes back as given.  The radical is every map
    between different summands and every endomorphism of nonzero degree:
    the minimal generators of Hom(S_a, S_b), without the degree-0 one (the
    identity, up to a scalar) when a = b.
    """
    def end_zero(S):
        """dim End(S)_0 and the minimal generators of End(S)."""
        end = hom_module(S, S)
        return end.module.hilbert_function(0)[0], end.minimal_morphisms

    R = free_module(summands[0].ctx)
    parts = []                     # (S, minimal generators of End(S))
    for l, S in enumerate(summands):
        dim0, gens = end_zero(S)
        if dim0 > 1 and (free := _free_generators(S)):
            parts.append((R, []))     # End(R) is spanned by id, of degree 0
            units = FreeModuleMap.identity(S.ctx, S.gen_degrees).column_vecs()
            want = len(minimal_generator_indices(S)) - len(free)
            S = minimal_presentation(_quotient(S, FreeModuleMap.from_vecs(
                S.ctx, [units[j] for j in free], S.gen_degrees,
                [S.gen_degrees[j] for j in free])))[0]
            if S.rank != want:
                raise EngineError("free summands failed to split; engine bug")
            dim0, gens = end_zero(S)
        if dim0 > 1:
            err = AlgebraError(
                f"summand {l} of M (generator degrees "
                f"{list(summands[l].gen_degrees)}) decomposes beyond its "
                "free summands; give its indecomposable summands")
            err.summand = l
            raise err
        if dim0:
            parts.append((S, gens))
    basic, rad = [], []
    for S, gens in parts:
        ins = [hom_module(T, S).minimal_morphisms for T in basic]
        outs = [hom_module(S, T).minimal_morphisms for T in basic]
        if any(f.degree + g.degree == 0 and not g.compose(f).is_zero()
               for fs, gs in zip(ins, outs) for f in fs for g in gs):
            continue
        for row, fs in zip(rad, ins):
            row.append(fs)
        rad.append(outs + [[g for g in gens if g.degree]])
        basic.append(S)
    return tuple(basic), rad


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
        rows = h.module.relations.hstack(comps).constant_vecs()
        span += [shift_vec(ctx, v, offsets[a]) for v in rows]
    zero = (0,) * ctx.nvars
    units = [{term(ctx, offsets[l] + i, zero): 1} for l, i in cands]
    kept = _nakayama_keep(ctx, span, units, [g.degree for _, g in morphs])
    return [morphs[j] for j in sorted(kept)]


def add_M_resolution(z: FPModule, m: FPModule, depth: int) -> AddMResolution:
    """Right add-M approximation resolution of z, to the requested depth.

    m is read through the summands ``direct_sum`` recorded on it, or whole;
    ``_radicals`` makes that list basic without changing add m, so m must
    be built as a sum only when its non-free part decomposes.  m must have
    a free summand, or it is refused.  Each cover is the minimal right
    approximation of K_i, read off the top of Hom(m, K_i) over End(m).
    The resolution stops at the first step >= 1 whose cover is injective: a
    minimal right approximation of a module in add m is an isomorphism
    (Auslander-Smalo 1980).
    """
    if depth < 0:
        raise AlgebraError("depth must be >= 0")
    if not is_generator(m):
        raise AlgebraError("m is not a generator")
    summands, rad = _radicals(m._summands or (m,))

    def cover(K):
        morphs = _top_selection(K, summands, rad)
        if not morphs:
            raise EngineError("Hom(m, K) vanished for a generator; engine bug")
        blocks = [summands[l].twist(g.degree) for l, g in morphs]
        ev_mat = FreeModuleMap.hstack(*(g.matrix for _, g in morphs))
        return ModuleMorphism(direct_sum(*blocks), K, ev_mat)

    modules, approximations, inclusions = [z], [], []
    K, terminated = z, z.is_zero()
    for step in range(depth + 1):
        if terminated:
            break
        ev = cover(K)
        if not cokernel(ev).is_zero():
            raise EngineError("add-M approximation failed to surject; "
                              "engine bug")
        Knext, incl = kernel_with_inclusion(ev)
        # K lies in add m exactly when its minimal approximation ev is an
        # isomorphism, that is, injective.  The first cover is recorded
        # even then, so that a z already in add m still has one; the pass
        # at step == depth only tests.
        terminated = Knext.is_zero()
        if step == depth or (terminated and step >= 1):
            break
        # keep presentations small: replace the kernel by its minimal model
        K, _, from_min = minimal_presentation(Knext)
        approximations.append(ev)
        inclusions.append(incl.compose(from_min))
        modules.append(K)
    return AddMResolution(modules, approximations, inclusions, terminated)
