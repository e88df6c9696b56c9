import collections
import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import maximal_ideal, module_family, residue_field, square_quotient
from oracles import (grade_oracle, hom_k_dimension_oracle, koszul_ext_dims,
                     rank_mod_p)
from ncres.ring import LEX, AlgebraError, EngineError, RingContext
from ncres import groebner, homalg, modules
from ncres.groebner import FreeModuleMap, lift_solve, split_term, term
from ncres.modules import (INFINITE, FPModule, ModuleMorphism, _quotient,
                           cokernel, direct_sum, free_module, kernel,
                           kernel_with_inclusion, make_module,
                           minimal_resolution, syzygy)
from ncres.homalg import (add_M_resolution, check_lift_exactness, ext,
                          factor_ideal, grade, hom_module, induced_hom_map,
                          induced_post_hom, is_d_torsionfree, is_generator,
                          omega_power_on_morphism, stable_hom, transpose)


# -- Hom ---------------------------------------------------------------------

def test_hom_dimensions_match_bruteforce_oracle(ctx2, ctx3):
    """[DERIVED] k-dimension of Hom on finite-length pairs, two ways."""
    fam2 = module_family(ctx2)
    fam3 = module_family(ctx3)
    instances = [
        (fam2["k"], fam2["k"]),
        (fam2["k"], fam2["R/m2"]),
        (fam2["R/m2"], fam2["k"]),
        (fam2["R/m2"], fam2["R/m2"]),
        (fam3["k"], fam3["R/m2"]),
        (fam3["R/m2"], fam3["R/m2"]),
    ]
    for m, n in instances:
        engine = hom_module(m, n).module.k_dimension()
        oracle = hom_k_dimension_oracle(m, n, range(-4, 5))
        assert engine == oracle


def test_hom_of_free_source(ctx2):
    m2 = square_quotient(ctx2)
    h = hom_module(free_module(ctx2), m2)
    assert h.module.hilbert_function(3) == m2.hilbert_function(3)


def test_hom_presentation_matches_two_step_kernel(ctx2, ctx3):
    """HomModule reads its generators and relations off one block; they
    equal those of the kernel of Hom(F_0, n) -> Hom(F_1, n) taken by
    ``kernel_with_inclusion``, column for column: on the oracle families
    (grevlex in two and three variables, lex in three), and a twisted
    source."""
    lex = RingContext(101, ("x", "y", "z"), LEX)
    pairs = []
    for ctx in (ctx2, ctx3, lex):
        fam = module_family(ctx)
        pairs += [(m, n) for m in fam.values() if m.relations.source_rank
                  for n in fam.values()]
    fam = module_family(ctx3)
    pairs += [(fam["k"].twist(2), fam["m"]), (fam["R/m2"].twist(-1), fam["k"])]
    for src, tgt in pairs:
        h = hom_module(src, tgt)
        K, incl = kernel_with_inclusion(induced_hom_map(src.relations, tgt))
        assert h.module.gen_degrees == K.gen_degrees
        assert (h.module.relations.source_degrees
                == K.relations.source_degrees)
        assert h.module.relations.column_vecs() == K.relations.column_vecs()
        assert h._incl.source_degrees == incl.matrix.source_degrees
        assert h._incl.target_degrees == incl.matrix.target_degrees
        assert h._incl.column_vecs() == incl.matrix.column_vecs()


def test_hom_additive_in_direct_sums(ctx2):
    k = residue_field(ctx2)
    m2 = square_quotient(ctx2)
    s = direct_sum(k, m2)
    lhs = hom_module(s, k).module.k_dimension()
    rhs = (hom_module(k, k).module.k_dimension()
           + hom_module(m2, k).module.k_dimension())
    assert lhs == rhs


def test_hom_module_round_trip(ctx2):
    """The coordinates of the j-th realized generator are the unit vector
    e_j, modulo the relations of the Hom module."""
    k = residue_field(ctx2)
    m2 = square_quotient(ctx2)
    zero = (0,) * ctx2.nvars
    for h in (hom_module(m2, k), hom_module(m2, m2), hom_module(k, m2)):
        for j, f in enumerate(h.basis_morphisms):
            coords = dict(h.coords_of_morphism(f))
            e_j = term(ctx2, j, zero)
            coords[e_j] = (coords.get(e_j, 0) - 1) % ctx2.characteristic
            assert h.module.rel_gb().contains_vec(
                {t: c for t, c in coords.items() if c})


# -- Ext, grade, torsionfreeness --------------------------------------------

def test_coords_of_morphism_builds_one_lift_basis(ctx2, ctx3, monkeypatch):
    """The lift basis is the extended basis that gave the Hom relations, so
    coordinates after construction run no Buchberger at all."""
    for ctx in (ctx2, ctx3):
        h = hom_module(maximal_ideal(ctx), square_quotient(ctx))
        calls = []
        real = groebner.buchberger_vecs

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(groebner, "buchberger_vecs", counting)
        coords = [h.coords_of_morphism(f) for f in h.basis_morphisms]
        monkeypatch.setattr(groebner, "buchberger_vecs", real)
        assert h.module.rank >= 2 and not calls
        for f, got in zip(h.basis_morphisms, coords):
            assert got == _coords_by_own_lift(h, f)


def _coords_by_own_lift(h, f):
    """Coordinates of f from a lift of its own joined columns against a
    fresh copy of the lift block of h: the reference for ``coords_map``.
    None when f does not lift."""
    ctx = h.ctx
    nr = h.target.rank
    vec = {term(ctx, jblk * nr + i, mono): c
           for jblk, col in enumerate(f.matrix.cols)
           for i, g in enumerate(col) for mono, c in g.terms.items()}
    rhs = FreeModuleMap.from_vecs(ctx, [vec], h._ambient.gen_degrees,
                                  degrees=[f.degree])
    sol = lift_solve(h._incl.hstack(h._ambient.relations), rhs)
    if sol is None:
        return None
    return {t: c for t, c in sol.column_vec(0).items()
            if split_term(ctx, t)[0] < h.module.rank}


def test_coords_map_is_one_lift_of_all_morphisms(ctx2, ctx3, monkeypatch):
    """coords_map lifts all its morphisms in one call, on the generator
    columns of its block, and column j equals the lift of the j-th morphism
    alone: on End(z) with the composites through m that ``factor_ideal``
    lifts, the generators, and a zero morphism; no morphisms cost no
    lift.  Each column c solves incl * c = rhs modulo the ambient
    relations."""
    calls = []
    real = homalg._relative_lift

    def counting(a, b, kept):
        calls.append((b.source_rank, kept))
        return real(a, b, kept)

    monkeypatch.setattr(homalg, "_relative_lift", counting)
    lifted = 0
    for ctx in (ctx2, ctx3):
        fam = module_family(ctx)
        for z, m in ((fam["m"], fam["R"]), (fam["R/m2"], fam["k"]),
                     (fam["m"], fam["R/m2"])):
            end = hom_module(z, z)
            hzm, hmz = hom_module(z, m), hom_module(m, z)
            fs = [g.compose(f) for f in hzm.basis_morphisms
                  for g in hmz.basis_morphisms]
            fs += end.basis_morphisms + [ModuleMorphism.zero(z, z, 1)]
            calls.clear()
            got = end.coords_map(iter(fs))
            assert calls == [(len(fs), end.module.rank)]
            assert got.target_degrees == end.module.gen_degrees
            assert got.source_degrees == tuple(f.degree for f in fs)
            for f, v in zip(fs, got.column_vecs()):
                assert v == _coords_by_own_lift(end, f)
            # incl * c and rhs agree modulo the ambient relations
            nf = end._ambient.rel_gb().normal_form_vec
            rhs = homalg._joined(ctx, fs, end._ambient.gen_degrees)
            back = end._incl.compose(got).column_vecs()
            for have, want in zip(back, rhs.column_vecs()):
                assert nf(have) == nf(want)
            lifted += len(fs)
            calls.clear()
            assert end.coords_map(()).source_rank == 0 and calls == []
    assert lifted > 50


def test_each_hom_block_builds_one_extended_basis(ctx2, ctx3, monkeypatch):
    """A Hom module's block [incl | ambient relations] builds one extended
    basis, with its ``module.rank`` generator columns flagged: it gives the
    relations of Hom, and every later coords_map only reads it."""
    built = []
    real = FreeModuleMap._extended_gb

    def recording(m, kept):
        if kept not in m._ext_gb:
            built.append((m, kept))
        return real(m, kept)

    monkeypatch.setattr(FreeModuleMap, "_extended_gb", recording)
    cases = 0
    for ctx in (ctx2, ctx3):
        fam = module_family(ctx)
        for a, b in itertools.product(("k", "R/m2", "m", "R"), repeat=2):
            built.clear()
            h = hom_module(fam[a], fam[b])
            h.coords_map(h.basis_morphisms)
            h.coords_map(h.basis_morphisms[:1])
            on_block = [kept for m, kept in built if m is h._block]
            assert on_block == [h.module.rank]
            assert list(h._block._ext_gb) == [h.module.rank]
            cases += h._block.source_rank > h.module.rank
    assert cases > 4


def test_extended_bases_run_no_buchberger(ctx2, ctx3, monkeypatch):
    """Building every Hom module of ``module_family`` and reading its
    morphisms' coordinates runs no ``buchberger_vecs``: each extended basis
    is one ``extend``, and only its flagged-led part is auto-reduced, when
    ``_relative_syzygies`` reads it.  A count, not a timing."""
    calls, seen = [], []
    real_gb, real_reduced = groebner.buchberger_vecs, groebner._reduced

    def counting(*args):
        calls.append(1)
        return real_gb(*args)

    def recording(basis, ctx):
        seen.append((basis, groebner._layout(ctx).elim_min))
        return real_reduced(basis, ctx)

    for ctx in (ctx2, ctx3):
        fam = module_family(ctx)
        monkeypatch.setattr(groebner, "buchberger_vecs", counting)
        monkeypatch.setattr(groebner, "_reduced", recording)
        for a, b in itertools.product(fam.values(), repeat=2):
            h = hom_module(a, b)
            h.coords_map(h.basis_morphisms)
        monkeypatch.setattr(groebner, "buchberger_vecs", real_gb)
        monkeypatch.setattr(groebner, "_reduced", real_reduced)
    assert calls == []
    assert sum(len(basis) for basis, _ in seen) > 100
    assert all(min(g) >= flagged for basis, flagged in seen for g in basis)


def test_coords_map_refuses_a_morphism_outside_hom(ctx2):
    """1 -> 1 from R/(x) to R/(y) is no morphism (x goes to x, which is
    not 0 mod y): coords_map raises whether it comes alone or after a
    morphism that lifts, and coords_of_morphism raises too."""
    x, y = ctx2.variable("x"), ctx2.variable("y")
    src = make_module([0], FreeModuleMap(ctx2, (1,), (0,), [[x]]), ctx2)
    tgt = make_module([0], FreeModuleMap(ctx2, (1,), (0,), [[y]]), ctx2)
    h = hom_module(src, tgt)
    bad = ModuleMorphism(src, tgt, FreeModuleMap.identity(ctx2, (0,)))
    assert _coords_by_own_lift(h, bad) is None
    for fs in ([bad], [ModuleMorphism.zero(src, tgt), bad]):
        with pytest.raises(EngineError):
            h.coords_map(fs)
    with pytest.raises(EngineError):
        h.coords_of_morphism(bad)


def test_ext_of_k_matches_koszul_oracle(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        r = ctx.nvars
        k = residue_field(ctx)
        R = free_module(ctx)
        dims = [ext(i, k, R).k_dimension() for i in range(r + 1)]
        assert dims == koszul_ext_dims(ctx, r + 2)


def test_ext_zero_is_hom(ctx2):
    k = residue_field(ctx2)
    m2 = square_quotient(ctx2)
    assert ext(0, m2, k).hilbert_function(4) == \
        hom_module(m2, k).module.hilbert_function(4)


def test_grade_matches_resolution_oracle(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for name, m in module_family(ctx).items():
            assert grade(m) == grade_oracle(m, ctx.nvars + 3), name


def test_grade_known_values(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        assert grade(residue_field(ctx)) == ctx.nvars
        assert grade(free_module(ctx)) == 0
    assert grade(square_quotient(ctx2)) == 2


def _grade_by_ext(m):
    """Least i with Ext^i(m, R) nonzero, by computing Ext^0..Ext^r: the
    reference for ``grade``, which reads the dimension instead."""
    if m.is_zero():
        return INFINITE
    R = free_module(m.ctx)
    for i in range(m.ctx.nvars + 1):
        if not ext(i, m, R).is_zero():
            return i
    raise AssertionError("nonzero module with no Ext against R")


def _random_form(ctx, rng, degree):
    """A seeded form of the given degree with one to three terms; zero for
    a negative degree and a nonzero constant (a unit) for degree 0."""
    f = ctx.zero()
    if degree < 0:
        return f
    for _ in range(rng.randint(1, 3)):
        mono = ctx.constant(rng.randrange(1, ctx.characteristic))
        for _ in range(degree):
            mono = mono * ctx.variable(rng.choice(ctx.variables))
        f = f + mono
    return f


def _random_module(ctx, rng):
    """A seeded module on one or two generators of degree 0 or 1 with up to
    r + 1 relations; entries of degree 0 are units, so some presentations
    are not minimal."""
    gens = sorted(rng.choice((0, 1)) for _ in range(rng.randint(1, 2)))
    cols = []
    degs = []
    for _ in range(rng.randint(0, ctx.nvars + 1)):
        d = max(gens) + rng.choice((0, 1, 1, 2))
        col = [_random_form(ctx, rng, d - g) if rng.random() < 0.7
               else ctx.zero() for g in gens]
        if all(f.is_zero() for f in col):
            col[0] = _random_form(ctx, rng, d - gens[0])
        cols.append(col)
        degs.append(d)
    return make_module(gens, FreeModuleMap(ctx, degs, gens, cols), ctx)


def _grade_cases(ctx, seed):
    """Seeded modules plus the zero module, free summands and presentations
    with unit entries, one of them with a unit leading term in one
    position only."""
    rng = random.Random(seed)
    x = ctx.variable(ctx.variables[0])
    one = ctx.one()
    zero = ctx.zero()
    R = free_module(ctx)
    k = residue_field(ctx)
    cases = [_random_module(ctx, rng) for _ in range(6)]
    # R/(f_1..f_s) for s seeded forms of degree 1 or 2: grades up to r
    for s in (ctx.nvars - 1, ctx.nvars):
        degs = [rng.randint(1, 2) for _ in range(s)]
        cols = [[_random_form(ctx, rng, d)] for d in degs]
        cases.append(make_module([0], FreeModuleMap(ctx, degs, (0,), cols),
                                 ctx))
    cases += [
        make_module([0], FreeModuleMap(ctx, (0,), (0,), [[one]]), ctx),
        free_module(ctx, ()),
        direct_sum(R, k), direct_sum(k, free_module(ctx, (1,))),
        # x e_0 = e_1: a copy of R/(x^2) on a non-minimal presentation
        make_module([0, 1], FreeModuleMap(ctx, (1, 2), (0, 1),
                                          [[x, -one], [zero, x]]), ctx),
        # e_1 = 0 and x e_0 = 0: R/(x) beside a position whose relation
        # basis has the leading term 1
        make_module([0, 0], FreeModuleMap(ctx, (1, 0), (0, 0),
                                          [[x, zero], [zero, one]]), ctx),
    ]
    return cases


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_grade_from_dimension_matches_ext_and_oracle(nvars):
    ctx = RingContext(101, ("x", "y", "z", "w")[:nvars])
    cases = _grade_cases(ctx, 10 + nvars)
    grades = []
    for m in cases:
        want = _grade_by_ext(m)
        assert grade(m) == want, m
        oracle = grade_oracle(m, nvars + 1)
        assert oracle == (None if want is INFINITE else want), m
        grades.append(want)
    # the special cases are exercised: a unit leading term in exactly one
    # position of the last case, and the zero module
    lts = cases[-1]._position_lts()
    assert (0,) * nvars in lts[1] and (0,) * nvars not in lts[0]
    assert grades[-1] == 1 and grades[8] is INFINITE and grades[9] is INFINITE
    # the seeded modules reach more than one grade
    assert len(set(grades[:8])) >= min(nvars, 2)


def test_grade_calls_no_ext(ctx3, monkeypatch):
    calls = []
    real = homalg.ext

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(homalg, "ext", counting)
    for m in _grade_cases(ctx3, 0) + list(module_family(ctx3).values()):
        grade(m)
    assert calls == []


def test_transpose_of_free_vanishes(ctx2):
    assert transpose(free_module(ctx2)).is_zero()


def test_torsionfree_ladder(ctx2, ctx3):
    m = maximal_ideal(ctx2)
    assert is_d_torsionfree(m, 1)
    assert not is_d_torsionfree(m, 2)
    o2 = syzygy(residue_field(ctx3), 2)
    assert is_d_torsionfree(o2, 2)
    with pytest.raises(AlgebraError):
        is_d_torsionfree(m, 0)


def test_syzygies_are_increasingly_torsionfree(ctx3):
    k = residue_field(ctx3)
    for c in range(1, ctx3.nvars + 1):
        assert is_d_torsionfree(syzygy(k, c), c)


def test_is_generator(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    assert is_generator(R)
    assert is_generator(direct_sum(R, k))
    assert not is_generator(k)
    assert not is_generator(maximal_ideal(ctx2))


@settings(max_examples=25, deadline=None)
@given(nvars=st.sampled_from([2, 3]),
       parts=st.lists(st.tuples(
           st.sampled_from(["k", "R/m2", "m", "R", "omega2"]),
           st.integers(-1, 1)), min_size=1, max_size=3),
       order=st.permutations(range(1, 5)))
def test_summand_checks_agree_with_the_whole_module(nvars, parts, order):
    """is_generator and is_d_torsionfree of a direct sum, read off its
    summands, agree with the same module read whole (an unrecorded copy,
    fresh for each d), for d = 1..r+1 asked in any order: the verdicts
    kept on the summands stay right."""
    ctx = RingContext(101, ("x", "y", "z")[:nvars])
    fam = module_family(ctx)
    S = direct_sum(*(fam[name].twist(e) for name, e in parts))

    def whole():
        return FPModule(ctx, S.gen_degrees, S.relations)
    assert is_generator(S) == is_generator(whole())
    for d in (d for d in order if d <= nvars + 1):
        assert is_d_torsionfree(S, d) == is_d_torsionfree(whole(), d), d


# -- stable Hom --------------------------------------------------------------

def test_stable_hom_vanishing_sweep(ctx2, ctx3):
    """Syzygy-to-deeper-syzygy stable Homs vanish for c + n <= r."""
    for ctx in (ctx2, ctx3):
        r = ctx.nvars
        k = residue_field(ctx)
        for c in range(r):
            for n in range(1, r - c + 1):
                sh = stable_hom(syzygy(k, c), syzygy(k, c + n))
                assert sh.quotient.is_zero(), (r, c, n)


def test_stable_hom_nonvanishing(ctx2):
    k = residue_field(ctx2)
    assert stable_hom(k, k).quotient.k_dimension() == 1
    assert stable_hom(free_module(ctx2), k).quotient.is_zero()


def test_stable_hom_cover_independence(ctx2):
    """A redundant cover of the target gives the same stable quotient."""
    k = residue_field(ctx2)
    m2 = square_quotient(ctx2)
    sh = stable_hom(m2, k)
    x = ctx2.variable("x")
    F = free_module(ctx2, (0, 1))
    mat = FreeModuleMap(ctx2, (0, 1), (0,), [[ctx2.one()], [x]])
    cover = ModuleMorphism(F, k, mat)
    assert cokernel(cover).is_zero()
    cols = induced_post_hom(cover, hom_module(m2, F), sh.total).matrix
    redundant = _quotient(sh.total.module, cols)
    assert (redundant.hilbert_function(4)
            == sh.quotient.hilbert_function(4))


def test_omega_action_on_identity_is_stably_identity(ctx2):
    k = residue_field(ctx2)
    o1 = syzygy(k, 1)
    lifted = omega_power_on_morphism(ModuleMorphism.identity(k), 1)
    diff = lifted - ModuleMorphism.identity(o1)
    sh = stable_hom(o1, o1)
    assert sh.quotient.rel_gb().contains_vec(
        sh.total.coords_of_morphism(diff))


@pytest.mark.parametrize("c", [0, 1, 2])
def test_omega_power_on_identity_is_stably_identity(ctx3, c):
    """Omega^c id_k is the identity of syzygy(k, c), the cached object
    itself, modulo maps through projectives."""
    k = residue_field(ctx3)
    oc = syzygy(k, c)
    lifted = omega_power_on_morphism(ModuleMorphism.identity(k), c)
    assert lifted.source is oc and lifted.target is oc
    diff = lifted - ModuleMorphism.identity(oc)
    sh = stable_hom(oc, oc)
    assert sh.quotient.rel_gb().contains_vec(
        sh.total.coords_of_morphism(diff))


def test_omega_power_lifts_along_the_cached_resolution(ctx3, monkeypatch):
    """Once syzygy(k, 2) is cached, Omega^2 on a morphism of k computes no
    syzygies: it lifts along the differentials already there."""
    k = residue_field(ctx3)
    syzygy(k, 2)
    calls = []
    real = modules.syzygy_basis

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "syzygy_basis", counted)
    omega_power_on_morphism(ModuleMorphism.identity(k), 2)
    assert calls == []


def test_omega_bijective_on_stable_end_of_k(ctx3):
    """dim of stable End is preserved along the syzygy functor below grade."""
    k = residue_field(ctx3)
    ident = ModuleMorphism.identity(k)
    for c in range(1, ctx3.nvars):
        oc = syzygy(k, c)
        sh = stable_hom(oc, oc)
        q = sh.quotient
        # stable End(k) is 1-dimensional; its image under Omega^c is nonzero
        img = omega_power_on_morphism(ident, c)
        v = q.rel_gb().normal_form_vec(sh.total.coords_of_morphism(img))
        assert v, c
        assert q.k_dimension() >= 1


# -- factor ideals -----------------------------------------------------------

def test_factor_ideal_of_free_in_end_k(ctx2):
    k = residue_field(ctx2)
    R = free_module(ctx2)
    fi = factor_ideal(k, R, end=hom_module(k, k))
    # nothing factors k -> R -> k, so the quotient is all of End(k)
    assert fi.k_dimension() == 1


def test_identity_in_own_factor_ideal(ctx2):
    R = free_module(ctx2)
    m2 = square_quotient(ctx2)
    for m in (R, m2):
        end = hom_module(m, m)
        fi = factor_ideal(m, m, end=end)
        ident = end.coords_of_morphism(ModuleMorphism.identity(m))
        assert fi.rel_gb().contains_vec(ident)


def test_factor_ideal_quotients_equal_by_reduced_basis(ctx2, ctx3):
    """Two quotients of End(z) have equal reduced relation bases exactly
    when each one's relations lie in the other's span."""
    def within(q1, q2):
        return all(map(q2.rel_gb().contains_vec,
                       q1.relations.column_vecs()))

    for ctx in (ctx2, ctx3):
        k = residue_field(ctx)
        for z in (k, syzygy(k, 1)):
            end = hom_module(z, z)
            qs = [factor_ideal(z, m, end=end)
                  for m in (free_module(ctx), k, z)]
            for q1 in qs:
                for q2 in qs:
                    same = q1.rel_gb().generators == q2.rel_gb().generators
                    assert same == (within(q1, q2) and within(q2, q1))
    # End(k)/[k] is zero, End(k)/[R] is End(k)
    k = residue_field(ctx2)
    end = hom_module(k, k)
    through_k = factor_ideal(k, k, end=end)
    through_R = factor_ideal(k, free_module(ctx2), end=end)
    assert through_k.is_zero() and through_R.k_dimension() == 1
    assert through_R.rel_gb().generators == end.module.rel_gb().generators
    assert through_k.rel_gb().generators != through_R.rel_gb().generators
    assert not within(through_k, through_R)


def _identity_in_factor_ideal(K, M):
    """id_K lies in [M](K, K): the reference test for K in add M."""
    end = hom_module(K, K)
    ident = end.coords_of_morphism(ModuleMorphism.identity(K))
    return factor_ideal(K, M, end=end).rel_gb().contains_vec(ident)


def _cover_injective(K, M, summands=None):
    """The add-M cover of K, as the first approximation of a depth-1
    resolution, is injective; being minimal, it then is an isomorphism."""
    ev = add_M_resolution(K, M, 1, summands=summands).approximations[0]
    return kernel(ev).is_zero()


def _membership_cases(ctx3):
    """(K, M, K in add M) for a free K, and Omega k against three M."""
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1, o2 = syzygy(k, 1), syzygy(k, 2)
    return [(free_module(ctx3, (0, 0)), R, True), (o1, R, False),
            (o1, direct_sum(R, o1), True), (o1, direct_sum(R, o2), False)]


def test_factor_ideal_detects_membership_of_add(ctx3):
    """id_K in [M](K, K) iff K is a summand of a sum of copies of M, iff
    the minimal add-M cover of K is injective."""
    for K, M, member in _membership_cases(ctx3):
        assert _identity_in_factor_ideal(K, M) == member
        assert _cover_injective(K, M) == member


# -- Hom-exactness harness ---------------------------------------------------

def syzygy_ses(m, i, twist=0):
    """0 -> omega^{i+1} m -> F -> omega^i m -> 0, optionally twisted."""
    ctx = m.ctx
    res = minimal_resolution(m, i + 2)
    if i >= len(res.maps):
        return None
    Ki = syzygy(m, i).twist(twist)
    Kn = syzygy(m, i + 1).twist(twist)
    F = free_module(ctx, Ki.gen_degrees)
    prj = ModuleMorphism(F, Ki,
                         FreeModuleMap.identity(ctx, F.gen_degrees))
    from ncres.modules import _shifted
    inc = ModuleMorphism(Kn, F, _shifted(res.maps[i], twist))
    return (Kn, F, Ki, inc, prj)


def run_lift_exactness_harness(seed=2024, min_hypothesis_cases=20):
    """Randomized Hom-exactness checks; returns (hyp_cases, failures)."""
    rng = random.Random(seed)
    ctx2 = RingContext(101, ("x", "y"))
    ctx3 = RingContext(101, ("x", "y", "z"))
    hyp_cases = 0
    failures = []
    total = 0
    while hyp_cases < min_hypothesis_cases or total < 30:
        ctx = rng.choice((ctx2, ctx3))
        fam = module_family(ctx)
        base = fam[rng.choice(("k", "R/m2", "m"))]
        i = rng.randrange(ctx.nvars)
        ses = syzygy_ses(base, i, twist=rng.randrange(-1, 2))
        if ses is None:
            continue
        wc = rng.randrange(ctx.nvars + 1)
        w = syzygy(residue_field(ctx), wc)
        if rng.random() < 0.3:
            w = direct_sum(w, free_module(ctx))
        verdict = check_lift_exactness(ses, w)
        total += 1
        if verdict.hypothesis_holds:
            hyp_cases += 1
            if not verdict.hom_exact:
                failures.append((ctx.nvars, i, wc))
        if total > 200:
            break
    return hyp_cases, failures


def test_lift_exactness_harness():
    hyp_cases, failures = run_lift_exactness_harness()
    assert hyp_cases >= 20
    assert failures == []


def test_check_lift_exactness_rejects_non_exact(ctx2):
    k = residue_field(ctx2)
    R = free_module(ctx2)
    prj = ModuleMorphism(R, k, FreeModuleMap.identity(ctx2, (0,)))
    bad_inc = ModuleMorphism.zero(k, R, 0)
    with pytest.raises(AlgebraError):
        check_lift_exactness((k, R, k, bad_inc, prj), R)


def test_induced_post_hom_functorial(ctx2):
    k = residue_field(ctx2)
    m2 = square_quotient(ctx2)
    R = free_module(ctx2)
    f = ModuleMorphism(R, m2, FreeModuleMap.identity(ctx2, (0,)))
    g = ModuleMorphism(m2, k, FreeModuleMap.identity(ctx2, (0,)))
    w = m2
    hR, hm2, hk = hom_module(w, R), hom_module(w, m2), hom_module(w, k)
    lhs = induced_post_hom(g.compose(f), hR, hk)
    rhs = induced_post_hom(g, hm2, hk).compose(induced_post_hom(f, hR, hm2))
    assert lhs == rhs


# -- add-M approximation resolutions ----------------------------------------

def test_add_R_resolution_of_maximal_ideal(ctx2):
    m = maximal_ideal(ctx2)
    amr = add_M_resolution(m, free_module(ctx2), 4)
    assert amr.terminated
    # the cover is R(-1)^2 and the next kernel is already free
    ranks = [ev.source.rank for ev in amr.approximations]
    assert ranks == [2]
    assert amr.modules[-1].relations.source_rank == 0
    for ev in amr.approximations:
        assert cokernel(ev).is_zero()
    for inc, ev in zip(amr.inclusions, amr.approximations):
        assert ev.compose(inc).is_zero()


def test_add_M_resolution_with_summands(ctx3):
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1, o2 = syzygy(k, 1), syzygy(k, 2)
    M = direct_sum(R, o2)
    amr = add_M_resolution(o1, M, 4, summands=(R, o2))
    assert amr.terminated
    assert amr.depth <= 3
    for ev in amr.approximations:
        assert cokernel(ev).is_zero()
    for inc, ev in zip(amr.inclusions, amr.approximations):
        assert ev.compose(inc).is_zero()
        assert kernel(inc).is_zero()


def test_add_M_resolution_rejects_bad_summands(ctx3):
    R = free_module(ctx3)
    k = residue_field(ctx3)
    M = direct_sum(R, syzygy(k, 2))
    with pytest.raises(AlgebraError):
        add_M_resolution(syzygy(k, 1), M, 2, summands=(R, R))


def _seeded_residue_field(ctx, rng):
    """k = R/(l_1..l_r) for seeded linearly independent linear forms."""
    p = ctx.characteristic
    while True:
        rows = [[rng.randrange(p) for _ in ctx.variables]
                for _ in ctx.variables]
        if rank_mod_p(rows, p) == ctx.nvars:
            break
    forms = [sum((ctx.constant(c) * ctx.variable(v)
                  for c, v in zip(row, ctx.variables)), ctx.zero())
             for row in rows]
    rel = FreeModuleMap(ctx, (1,) * ctx.nvars, (0,), [[l] for l in forms])
    return make_module([0], rel, ctx)


def _quotient_rule_selection(hmk, comp, degrees):
    """The add-M cover prune with the module rule: a selection covers when
    Hom(m, K) modulo its composite columns is the zero module."""
    none = FreeModuleMap.zero_map(hmk.ctx, (), hmk.module.gen_degrees)

    def covers(sel):
        cols = functools.reduce(FreeModuleMap.hstack,
                                (comp[j] for j in sel), none)
        return _quotient(hmk.module, cols).is_zero()

    kept = list(range(len(comp)))
    assert covers(kept)
    for j in sorted(kept, key=lambda j: (-degrees[j], j)):
        trial = [i for i in kept if i != j]
        if covers(trial):
            kept = trial
    return kept


def _seeded_scenarios(seed):
    """(z, M, summands) of the exact2 scenarios: z = Omega^c k with k in
    seeded coordinates; M = R over 2 and 3 variables with c = 1, 2, and
    M = R + Omega^2 k with its summands."""
    rng = random.Random(seed)
    ctx2 = RingContext(101, ("x", "y"))
    ctx3 = RingContext(101, ("x", "y", "z"))
    k2, k3 = _seeded_residue_field(ctx2, rng), _seeded_residue_field(ctx3, rng)
    R2, R3 = free_module(ctx2), free_module(ctx3)
    o2 = syzygy(k3, 2)
    return [(syzygy(k2, 1), R2, None), (syzygy(k3, 1), R3, None),
            (syzygy(k3, 2), R3, None),
            (syzygy(k3, 1), direct_sum(R3, o2), (R3, o2))]


def _non_basic_scenarios(seed):
    """(z, M, summands, kernel ranks, cover ranks) with M not basic as
    written: R + R given as (R, R), and R + Omega^2 k passed whole; z =
    Omega k in seeded coordinates.  Reduced to basic summands they are
    (R,) and (R, Omega^2 k)."""
    rng = random.Random(seed)
    ctx3 = RingContext(101, ("x", "y", "z"))
    k3 = _seeded_residue_field(ctx3, rng)
    R3 = free_module(ctx3)
    o1, o2 = syzygy(k3, 1), syzygy(k3, 2)
    return [(o1, direct_sum(R3, R3), (R3, R3), [3, 3, 1], [3, 3]),
            (o1, direct_sum(R3, o2), None, [3, 6, 3], [9, 9])]


def _recording(monkeypatch, name):
    """Replace ``homalg.<name>`` by a wrapper that records (args, result)."""
    calls = []
    original = getattr(homalg, name)

    def recording(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(homalg, name, recording)
    return calls


def _check_top_covers_against_quotient_rule(cases, monkeypatch):
    """Run the add-M resolution of each (z, M, summands) in ``cases`` and
    check every cover read off the top of Hom(M, K) against the dense
    greedy deletion by the zero-quotient rule over all composites of the
    (reduced) summands: the same number of blocks of each summand and
    degree.  Returns the reduced summand lists seen and how many
    candidates the reference dropped."""
    calls = _recording(monkeypatch, "_top_selection")
    seen, dropped = [], 0
    for z, M, summands in cases:
        calls.clear()
        assert add_M_resolution(z, M, 4, summands=summands).terminated
        assert calls
        for (K, basic, _), kept in calls:
            seen.append(basic)
            hmk = hom_module(M, K)
            blocks, degrees, labels = _all_composites(hmk, M, basic)
            want = _quotient_rule_selection(hmk, blocks, degrees)
            assert (collections.Counter((l, g.degree) for l, g in kept)
                    == collections.Counter((labels[j], degrees[j])
                                           for j in want))
            dropped += len(blocks) - len(want)
    return seen, dropped


@pytest.mark.parametrize("seed", range(3))
def test_top_cover_keeps_the_quotient_rule_counts(seed, monkeypatch):
    """On the add-M resolutions of the exact2 scenarios, whose M is basic,
    every cover read off the top of Hom(M, K) has as many blocks of each
    summand and degree as the dense greedy deletion by the zero-quotient
    rule keeps over all composites."""
    _, dropped = _check_top_covers_against_quotient_rule(
        _seeded_scenarios(seed), monkeypatch)
    # the reference is not vacuous: some cover drops a candidate
    assert dropped > 0


@pytest.mark.parametrize("seed", range(3))
def test_pruned_cover_keeps_the_quotient_rule_selection(seed, monkeypatch):
    """An M that is not basic as written, (R, R) or R + Omega^2 k passed
    whole, is reduced to basic summands before its covers are read off the
    top of Hom(M, K); those covers keep the selection of the zero-quotient
    rule over all composites of the reduced summands."""
    cases = [case[:3] for case in _non_basic_scenarios(seed)]
    seen, dropped = _check_top_covers_against_quotient_rule(
        cases, monkeypatch)
    # every cover was read off the reduced summands, never the given ones
    assert {tuple(S.gen_degrees for S in basic) for basic in seen} == {
        ((0,),), ((0,), (2, 2, 2))}
    assert dropped > 0


def _all_composites(hmk, m, summands):
    """(blocks, degrees, labels) of the add-M cover of K = hmk.target with
    every composite g o psi, psi a minimal generator of Hom(m, S_l) and g
    one of Hom(S_l, K), lifted into Hom(m, K), and the index l of the
    summand of each candidate g."""
    K = hmk.target
    blocks, degrees, labels = [], [], []
    for l, S in enumerate(summands):
        psis = hom_module(m, S).minimal_morphisms
        for g in hom_module(S, K).minimal_morphisms:
            blocks.append(hmk.coords_map(g.compose(psi) for psi in psis))
            degrees.append(g.degree)
            labels.append(l)
    return blocks, degrees, labels


@pytest.mark.parametrize("seed", range(3))
def test_top_cover_is_injective_exactly_when_it_splits(seed):
    """For an M that is not basic as written, the reduced summands still
    give minimal covers: on every kernel of the resolution the cover is
    injective exactly when id_K lies in [M], which is exactly at the last
    kernel."""
    for z, M, summands, _, _ in _non_basic_scenarios(seed):
        amr = add_M_resolution(z, M, 4, summands=summands)
        assert amr.terminated
        injective = [_cover_injective(K, M, summands) for K in amr.modules]
        assert injective == [False] * amr.depth + [True]
        assert [_identity_in_factor_ideal(K, M)
                for K in amr.modules] == injective


@pytest.mark.parametrize("seed", range(2))
def test_non_basic_summands_are_reduced_to_basic(seed):
    """(R, R) reduces to (R,), and R + Omega^2 k given whole to R and
    Omega^2 k: the resolutions have the ranks of those basic summands."""
    for z, M, summands, ranks, cover_ranks in _non_basic_scenarios(seed):
        basic, _ = homalg._radicals(summands or (M,))
        assert [S.gen_degrees for S in basic] == (
            [(0,)] if summands else [(0,), (2, 2, 2)])
        amr = add_M_resolution(z, M, 4, summands=summands)
        assert amr.terminated
        assert [K.rank for K in amr.modules] == ranks
        assert [ev.source.rank for ev in amr.approximations] == cover_ranks


def test_syzygies_of_k_are_recognised_as_basic(ctx3):
    """(R, Omega^2 k, Omega k) at r = 3 is basic: Omega k and Omega^2 k
    have the same number of generators but are not isomorphic, and every
    endomorphism generator in the radical has nonzero degree.  The list
    comes back as given."""
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1, o2 = syzygy(k, 1), syzygy(k, 2)
    summands = (R, o2, o1)
    basic, rad = homalg._radicals(summands)
    assert len(basic) == 3 and all(a is b for a, b in zip(basic, summands))
    assert all(g.degree for a in range(3) for g in rad[a][a])
    assert all(rad[a][b] for a in range(3) for b in range(3) if a != b)
    M = functools.reduce(direct_sum, summands)
    amr = add_M_resolution(square_quotient(ctx3), M, 4, summands=summands)
    assert amr.terminated


def test_twisted_copy_of_a_summand_is_dropped(ctx3):
    """(R, Omega k, Omega k twisted by 1) resolves exactly like (R, Omega k):
    the twisted copy is isomorphic up to twist to an earlier summand."""
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1 = syzygy(k, 1)
    wordy = (R, o1, o1.twist(1))
    basic, _ = homalg._radicals(wordy)
    assert len(basic) == 2 and basic[0] is R and basic[1] is o1
    for z in (k, square_quotient(ctx3)):
        want = add_M_resolution(z, direct_sum(R, o1), 4, summands=(R, o1))
        got = add_M_resolution(z, functools.reduce(direct_sum, wordy), 4,
                               summands=wordy)
        assert got.terminated and want.terminated
        assert got.modules == want.modules
        assert ([ev.source.gen_degrees for ev in got.approximations]
                == [ev.source.gen_degrees for ev in want.approximations])


def test_equal_presentation_degrees_are_told_apart(ctx2):
    """R/(x) and R/(y) have the same presentation degrees, but Hom between
    them both ways is generated in degree 1, so no composite is a unit:
    (R, R/(x), R/(y)) is basic and comes back as given."""
    x, y = ctx2.variable("x"), ctx2.variable("y")
    Rx, Ry = (make_module([0], FreeModuleMap(ctx2, (1,), (0,), [[v]]), ctx2)
              for v in (x, y))
    summands = (free_module(ctx2), Rx, Ry)
    basic, _ = homalg._radicals(summands)
    assert len(basic) == 3 and all(a is b for a, b in zip(basic, summands))
    M = functools.reduce(direct_sum, summands)
    amr = add_M_resolution(square_quotient(ctx2), M, 4, summands=summands)
    assert amr.terminated
    assert [K.rank for K in amr.modules] == [1, 4, 5, 2]
    for inc, ev in zip(amr.inclusions, amr.approximations):
        assert ev.compose(inc).is_zero() and kernel(inc).is_zero()


def test_zero_summand_is_dropped(ctx3):
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1, o2 = syzygy(k, 1), syzygy(k, 2)
    zero = make_module([], None, ctx3)
    basic, _ = homalg._radicals((R, zero, o2))
    assert len(basic) == 2 and basic[0] is R and basic[1] is o2
    amr = add_M_resolution(o1, direct_sum(R, o2), 4, summands=(R, zero, o2))
    assert [K.rank for K in amr.modules] == [3, 6, 3]


def test_decomposable_non_free_summand_is_refused(ctx3):
    """Omega k + Omega k as one block has a two-dimensional End_0 and no
    free summand to split off: M is refused, naming the summand by its
    index, which the error also carries."""
    R = free_module(ctx3)
    oo = direct_sum(*[syzygy(residue_field(ctx3), 1)] * 2)
    with pytest.raises(AlgebraError, match="summand 1 of M") as info:
        add_M_resolution(residue_field(ctx3), direct_sum(R, oo), 2,
                         summands=(R, oo))
    assert info.value.summand == 1


@pytest.mark.parametrize("seed", range(3))
def test_cover_splits_iff_identity_in_factor_ideal(seed):
    """On every kernel of the seeded scenarios' add-M resolutions, the
    minimal add-M cover is injective, so an isomorphism and split, exactly
    when id_K lies in [M]; the last kernel of each terminated resolution is
    in add M and the earlier ones are not."""
    for z, M, summands in _seeded_scenarios(seed):
        amr = add_M_resolution(z, M, 4, summands=summands)
        assert amr.terminated
        members = [_identity_in_factor_ideal(K, M) for K in amr.modules]
        assert members == [False] * amr.depth + [True]
        assert [_cover_injective(K, M, summands)
                for K in amr.modules] == members


def test_add_M_resolution_depth_zero_tests_membership(ctx3):
    """At depth 0 nothing is recorded, and the resolution is terminated
    exactly when z lies in add M."""
    for K, M, member in _membership_cases(ctx3):
        amr = add_M_resolution(K, M, 0)
        assert amr.terminated == member
        assert amr.approximations == [] and amr.modules == [K]


def test_add_M_resolution_builds_no_factor_ideal(ctx3, monkeypatch):
    """The exit of the resolution, at a step >= 1 or at the last allowed
    step, builds no factor ideal [M]: with the summands (R, Omega^2 k) or
    with M = R + Omega^2 k given whole, it stops on an injective cover."""
    calls = _recording(monkeypatch, "factor_ideal")
    R = free_module(ctx3)
    k = residue_field(ctx3)
    o1, o2 = syzygy(k, 1), syzygy(k, 2)
    M = direct_sum(R, o2)
    for summands in ((R, o2), None):
        for depth in (0, 1, 2, 4):
            amr = add_M_resolution(o1, M, depth, summands=summands)
            assert amr.terminated == (depth >= 2)
    assert calls == []
