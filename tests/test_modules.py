import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (deadline, maximal_ideal, module_family, residue_field,
                      square_quotient)
from oracles import (complex_homology_dim, hilbert_oracle, koszul_betti,
                     membership_oracle, minimal_presentation_reference,
                     monomials_of_degree)
from ncres.ring import AlgebraError, DegreeError, Polynomial, RingContext
from ncres import groebner, modules
from ncres.homalg import add_M_resolution, grade, hom_module
from ncres.groebner import FreeModuleMap, buchberger, term, term_pos
from ncres.modules import (FPModule, INFINITE, ModuleMorphism, cokernel,
                           cokernel_with_projection, direct_sum,
                           free_module, homology, _nakayama_keep,
                           kernel_with_inclusion, make_module, make_morphism,
                           minimal_generator_indices, minimal_presentation,
                           minimal_resolution, syzygy)


def test_hilbert_function_matches_oracle(ctx2, ctx3):
    for ctx in (ctx2, ctx3):
        for name, m in module_family(ctx).items():
            engine = m.hilbert_function(5)
            oracle = [hilbert_oracle(m.gen_degrees,
                                     m.relations.column_vecs(), ctx, t)
                      for t in range(6)]
            assert engine == oracle, name


def test_hilbert_shuffle_invariance(ctx2):
    """Permuting relation columns must not change the module."""
    rng = random.Random(5)
    m = square_quotient(ctx2)
    base = m.hilbert_function(5)
    cols = list(m.relations.cols)
    degs = list(m.relations.source_degrees)
    for _ in range(4):
        order = list(range(len(cols)))
        rng.shuffle(order)
        rel = FreeModuleMap(ctx2, tuple(degs[j] for j in order),
                            m.gen_degrees, [cols[j] for j in order])
        assert make_module(m.gen_degrees, rel, ctx2).hilbert_function(5) == base


def test_k_dimension(ctx2):
    fam = module_family(ctx2)
    assert fam["k"].k_dimension() == 1
    assert fam["R/m2"].k_dimension() == 3
    assert fam["R"].k_dimension() is INFINITE
    assert fam["m"].k_dimension() is INFINITE


def _random_monomial_module(rng, nvars):
    """A module over F_101[x_1..x_nvars] presented by monomial relations,
    its generators in random degrees; half of the positions also kill a
    pure power of every variable, so they have finite length."""
    ctx = RingContext(101, tuple("abcd"[:nvars]))
    gens = tuple(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
    vecs = []
    for pos in range(len(gens)):
        monos = [tuple(rng.randint(0, 3) for _ in range(nvars))
                 for _ in range(rng.randint(0, 5))]
        if rng.random() < 0.5:
            monos += [tuple(rng.randint(1, 4) if w == v else 0
                            for w in range(nvars)) for v in range(nvars)]
        vecs += [{term(ctx, pos, m): 1} for m in monos]
    return FPModule(ctx, gens, FreeModuleMap.from_vecs(ctx, vecs, gens))


def _brute_force_counts(m, up_to):
    """Hilbert function and dim of a module with monomial relations, by
    listing every monomial of each degree and every set of variables."""
    nvars = m.ctx.nvars
    lts = m._position_lts()
    hilbert = []
    for t in range(up_to + 1):
        hilbert.append(sum(
            1 for i, d in enumerate(m.gen_degrees)
            for mono in itertools.product(range(t - d + 1), repeat=nvars)
            if sum(mono) == t - d
            and not any(all(a <= b for a, b in zip(g, mono))
                        for g in lts[i])))
    # dim R/J: the largest set of variables that holds no generator's support
    dim = max((len(free) for free in itertools.chain.from_iterable(
        itertools.combinations(range(nvars), k) for k in range(nvars + 1))
        for i in range(m.rank)
        if not any(all(v in free for v, e in enumerate(g) if e)
                   for g in lts[i])), default=-1)
    return hilbert, dim


def _brute_force_length(m):
    """k-dimension of a module with monomial relations: per position, the
    monomials of the box below the pure powers there that no leading term
    divides; INFINITE when some variable has no pure power."""
    nvars = m.ctx.nvars
    total = 0
    for lts in m._position_lts():
        bounds = []
        for v in range(nvars):
            pure = [g[v] for g in lts
                    if all(e == 0 for w, e in enumerate(g) if w != v)]
            if not pure:
                return INFINITE
            bounds.append(min(pure))
        total += sum(1 for mono in itertools.product(*map(range, bounds))
                     if not any(all(a <= b for a, b in zip(g, mono))
                                for g in lts))
    return total


@pytest.mark.parametrize("seed", range(8))
def test_hilbert_counts_match_enumeration_on_monomial_ideals(seed):
    """Hilbert function, k-dimension and grade, all read off the Hilbert
    series numerators, against listing the monomials one by one."""
    rng = random.Random(seed)
    for nvars in (1, 2, 3, 4):
        for _ in range(4):
            m = _random_monomial_module(rng, nvars)
            hilbert, dim = _brute_force_counts(m, 7)
            assert m.hilbert_function(7) == hilbert
            assert grade(m) == (INFINITE if dim < 0 else nvars - dim)
            assert m.k_dimension() == _brute_force_length(m)
            assert (m.k_dimension() is INFINITE) == (dim > 0)


def test_hilbert_numerator_of_a_power_of_the_maximal_ideal(monkeypatch):
    """(x, y)^n has the numerator 1 - (n+1) s^n + n s^(n+1).  The minimal
    generators of J + (p) are filtered by p, and those of J : p that p
    divides are kept unchecked, so the recursion has 2n - 1 nodes and the
    divisibility tests grow about linearly in n (pairwise minimalization
    at every node made about n^2)."""
    n = 2000
    calls = {"node": 0, "divides": 0}

    def counting(real, key):
        def count(*args):
            calls[key] += 1
            return real(*args)
        return count

    monkeypatch.setattr(modules, "mono_divides",
                        counting(modules.mono_divides, "divides"))
    monkeypatch.setattr(modules, "_hilbert_numerator",
                        counting(modules._hilbert_numerator, "node"))
    num = modules._hilbert_numerator([(i, n - i) for i in range(n + 1)], 2)
    assert {k: c for k, c in num.items() if c} == {0: 1, n: -n - 1, n + 1: n}
    assert calls["node"] == 2 * n - 1
    assert calls["divides"] < 10 * n


def test_twist(ctx2):
    m = square_quotient(ctx2)
    up = m.twist(2)
    assert up.hilbert_function(4) == [0, 0] + m.hilbert_function(2)
    assert up.twist(-2) == m


def test_module_equality_and_zero(ctx2):
    k = residue_field(ctx2)
    assert k == residue_field(ctx2)
    assert not k.is_zero()
    x = ctx2.variable("x")
    one = ctx2.one()
    z = make_module([0], FreeModuleMap(ctx2, (0,), (0,), [[one]]), ctx2)
    assert z.is_zero()


def test_morphism_well_definedness(ctx2):
    k = residue_field(ctx2)
    R = free_module(ctx2)
    x = ctx2.variable("x")
    # R -> k sending 1 to class of 1: fine
    make_morphism(R, k, FreeModuleMap.identity(ctx2, (0,)))
    # k -> R sending class of 1 to 1 is not well defined (x * 1 != 0 in R)
    with pytest.raises(AlgebraError):
        make_morphism(k, R, FreeModuleMap.identity(ctx2, (0,)))
    # but k -> k is
    ident = ModuleMorphism.identity(k)
    assert ident.compose(ident) == ident


def test_validated_entry_points_refuse_inhomogeneous_entries(ctx2):
    """The polynomial-column constructor of FreeModuleMap, make_module and
    make_morphism refuse an entry of the wrong degree; from_vecs and the
    module and morphism constructors take their input as given."""
    x, y = ctx2.variable("x"), ctx2.variable("y")
    with pytest.raises(DegreeError):
        FreeModuleMap(ctx2, (1,), (0,), [[x * y]])
    with pytest.raises(DegreeError):
        FreeModuleMap(ctx2, (2, 1), (0,), [[x * x], [x * y]])
    # a relation column x e_0 + y^2 e_1 with gens (0, 0) mixes degrees 1, 2
    bad = FreeModuleMap.from_vecs(
        ctx2, [{term(ctx2, 0, (1, 0)): 1, term(ctx2, 1, (0, 2)): 1}],
        (0, 0), (1,))
    FPModule(ctx2, (0, 0), bad)
    with pytest.raises(DegreeError):
        make_module((0, 0), bad, ctx2)
    R = free_module(ctx2)
    twisted = FreeModuleMap.from_vecs(ctx2, [{term(ctx2, 0, (1, 0)): 1}],
                                      (0,), (0,))
    ModuleMorphism(R, R, twisted)
    with pytest.raises(DegreeError):
        make_morphism(R, R, twisted)
    assert make_morphism(R, R, FreeModuleMap.identity(ctx2, (0,))) == \
        ModuleMorphism.identity(R)


def test_direct_sum_hilbert(ctx2):
    a = residue_field(ctx2)
    b = square_quotient(ctx2).twist(1)
    s = direct_sum(a, b)
    ha = a.hilbert_function(5)
    hb = b.hilbert_function(5)
    assert s.hilbert_function(5) == [u + v for u, v in zip(ha, hb)]


def test_kernel_image_cokernel_euler(ctx2):
    """Rank-nullity in each degree: dim source_t - dim ker_t equals
    dim target_t - dim coker_t, the dimension of the image."""
    R = free_module(ctx2)
    m2 = square_quotient(ctx2)
    proj = ModuleMorphism(R, m2, FreeModuleMap.identity(ctx2, (0,)))
    ker, inc = kernel_with_inclusion(proj)
    cok = cokernel(proj)
    for t in range(6):
        hs = R.hilbert_function(t)[t]
        hk = ker.hilbert_function(t)[t]
        ht = m2.hilbert_function(t)[t]
        hc = cok.hilbert_function(t)[t]
        assert hs - hk == ht - hc
    assert cok.is_zero()
    assert proj.compose(inc).is_zero()
    # kernel of a surjection R -> R/m^2 is m^2
    assert ker.hilbert_function(4) == [0, 0, 3, 4, 5]


def test_cokernel_with_projection(ctx2):
    """Multiplication by x on R/m^2: the projection onto its cokernel
    R/(x, y^2) kills the image, is onto, and lands in cokernel(f)."""
    m2 = square_quotient(ctx2)
    f = make_morphism(free_module(ctx2, (1,)), m2,
                      FreeModuleMap(ctx2, (1,), (0,), [[ctx2.variable("x")]]))
    C, proj = cokernel_with_projection(f)
    assert proj.source is m2 and proj.target is C
    assert proj.compose(f).is_zero()
    assert cokernel(proj).is_zero()
    assert C == cokernel(f)
    assert C.hilbert_function(3) == [1, 1, 0, 0]


def test_homology_of_exact_pair(ctx3):
    k = residue_field(ctx3)
    res = minimal_resolution(k, 3)
    F = [free_module(ctx3, (0,))] + \
        [free_module(ctx3, d.source_degrees) for d in res.maps]
    d1 = ModuleMorphism(F[1], F[0], res.maps[0])
    d2 = ModuleMorphism(F[2], F[1], res.maps[1])
    assert d1.compose(d2).is_zero()
    assert homology(d1, d2).is_zero()
    # but H_0 of the complex 0 -> F1 -> F0 is k
    zero_in = ModuleMorphism.zero(free_module(ctx3, ()), F[1], 0)
    h = cokernel(d1)
    assert h.hilbert_function(3) == [1, 0, 0, 0]


def test_minimal_presentation(ctx2):
    x, y = ctx2.variable("x"), ctx2.variable("y")
    one = ctx2.one()
    # redundant generator: second gen equals x * first
    rel = FreeModuleMap(ctx2, (1, 2), (0, 1),
                        [[x, -one], [x * y, -y]])
    m = make_module([0, 1], rel, ctx2)
    m_min, to_min, from_min = minimal_presentation(m)
    assert m_min.rank == 1
    assert m_min.hilbert_function(5) == m.hilbert_function(5)
    assert to_min.compose(from_min) == ModuleMorphism.identity(m_min)
    assert not any(f.terms.get((0, 0)) for col in m_min.relations.cols
                   for f in col)


def test_minimal_generator_indices(ctx2):
    x = ctx2.variable("x")
    one = ctx2.one()
    rel = FreeModuleMap(ctx2, (1,), (0, 1), [[x, -one]])
    m = make_module([0, 1], rel, ctx2)
    assert minimal_generator_indices(m) == [0]


def _random_form(ctx, rng, d):
    return Polynomial(ctx, {m: rng.randrange(101)
                            for m in monomials_of_degree(ctx.nvars, d)})


def _redundant_module(ctx, seed):
    """Random module with redundant generators and duplicate relations."""
    rng = random.Random(seed)
    gens = [rng.choice((0, 1)) for _ in range(rng.randrange(1, 4))]
    cols, degs = [], []
    for _ in range(rng.randrange(1, 4)):
        d = max(gens) + rng.choice((1, 2))
        cols.append([_random_form(ctx, rng, d - g) for g in gens])
        degs.append(d)
    for _ in range(rng.randrange(1, 3)):
        # a new generator of degree d, equal to a combination of the others
        d = max(gens) + 1
        combo = [_random_form(ctx, rng, d - g) for g in gens]
        for col in cols:
            col.append(ctx.zero())
        cols.append([-f for f in combo] + [ctx.one()])
        degs.append(d)
        gens.append(d)
    for scale in (1, 3):
        j = rng.randrange(len(cols))
        cols.append([scale * f for f in cols[j]])
        degs.append(degs[j])
    return make_module(gens, FreeModuleMap(ctx, degs, gens, cols), ctx)


@pytest.mark.parametrize("seed", range(6))
def test_greedy_minimal_generators_and_relations_match_oracle(ctx2, ctx3,
                                                             seed):
    for ctx in (ctx2, ctx3):
        m = _redundant_module(ctx, seed)
        # kept generators per degree = dim_k (M/mM)_t
        kept = minimal_generator_indices(m)
        assert kept == sorted(kept, key=lambda i: (m.gen_degrees[i], i))
        units = [tuple(int(i == v) for i in range(ctx.nvars))
                 for v in range(ctx.nvars)]
        mm = m.relations.column_vecs() + [
            {term(ctx, j, u): 1} for u in units for j in range(m.rank)]
        for t in set(m.gen_degrees):
            assert (sum(m.gen_degrees[i] == t for i in kept)
                    == hilbert_oracle(m.gen_degrees, mm, ctx, t))
        # no kept relation column lies in the span of the other kept ones
        m_min, _, _ = minimal_presentation(m)
        rel = m_min.relations.column_vecs()
        assert len(rel) < m.relations.source_rank
        for j, v in enumerate(rel):
            assert not membership_oracle(rel[:j] + rel[j + 1:], v,
                                         m_min.gen_degrees, ctx)
        assert m_min.hilbert_function(4) == m.hilbert_function(4)


def _rebuild_keep(ctx, base, cands, degrees):
    """Reference pass: a new basis of the whole span for every candidate."""
    kept, span = [], list(base)
    for j in sorted(range(len(cands)), key=lambda j: (degrees[j], j)):
        v = cands[j]
        if not v or (span and buchberger(span, ctx).contains_vec(v)):
            continue
        kept.append(j)
        span.append(v)
    return kept


@pytest.mark.parametrize("seed", range(6))
def test_nakayama_pass_matches_rebuild_per_candidate(ctx2, ctx3, seed):
    for ctx in (ctx2, ctx3):
        m = _redundant_module(ctx, seed)
        rel = m.relations.column_vecs()
        units = [{term(ctx, i, (0,) * ctx.nvars): 1} for i in range(m.rank)]
        degs = m.relations.source_degrees
        cases = [([], rel, degs), (rel, units, m.gen_degrees),
                 # relation columns again, shuffled: every one is redundant
                 (rel, rel[::-1], degs[::-1]),
                 (rel[:1], rel[1:] + units,
                  degs[1:] + m.gen_degrees)]
        for base, cands, degrees in cases:
            got = _nakayama_keep(ctx, base, cands, degrees)
            assert got == _rebuild_keep(ctx, base, cands, degrees)


def _substitution_module(ctx, seed):
    """Random module whose one-pass elimination needs every substitution.
    Generators 0-3 have degree 1, 4 and 5 degree 0, then up to two more.
    The columns, in order:
      - up to two with no constant entry, substituted only at the end;
      - A, with nonzero constants on e_0 and e_1 and a nonzero linear form
        on e_4: it eliminates e_0, and e_4, eliminated later, sits in it
        with a non-constant entry;
      - C, with a constant on e_0 and none on e_1, e_2, e_3: its constant
        on e_1 appears only once e_0 is substituted, and it eliminates e_1;
      - D, with a nonzero constant on e_4: it eliminates e_4;
      - E, a multiple of A on the generators of degree 1 with other linear
        forms on those of degree 0: no pivot, though it would be one if
        taken before A;
      - one to three random ones."""
    rng = random.Random(seed)
    gens = [1, 1, 1, 1, 0, 0] + [rng.choice((0, 1))
                                 for _ in range(rng.randrange(3))]
    degs, cols = [], []

    def column(d, fixed=()):
        fixed = dict(fixed)
        degs.append(d)
        cols.append([fixed[i] if i in fixed
                     else _random_form(ctx, rng, d - g) if d >= g
                     else ctx.zero() for i, g in enumerate(gens)])

    def nonzero(d):
        return Polynomial(ctx, {m: rng.randrange(1, 101)
                                for m in monomials_of_degree(ctx.nvars, d)})

    zero = ctx.zero()
    for _ in range(rng.randrange(3)):
        column(2)
    column(1, {0: nonzero(0), 1: nonzero(0), 4: nonzero(1)})
    a = cols[-1]
    column(1, {0: nonzero(0), 1: zero, 2: zero, 3: zero})
    column(0, {4: nonzero(0)})
    s = rng.randrange(1, 101)
    column(1, {i: s * f for i, f in enumerate(a) if gens[i] == 1})
    for _ in range(rng.randrange(1, 4)):
        column(rng.choice((1, 2)))
    return make_module(gens, FreeModuleMap(ctx, degs, gens, cols), ctx)


@given(seed=st.integers(0, 10 ** 6), nvars=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_one_pass_presentation_matches_reference_loop(seed, nvars):
    """The one pass gives the relations, to_min and from_min of the loop
    that rebuilt every matrix per eliminated generator, vector for
    vector."""
    ctx = RingContext(101, ("x", "y", "z")[:nvars])
    m = _substitution_module(ctx, seed)
    m_min, to_min, from_min = minimal_presentation(m)
    kept = {term_pos(ctx, min(v)) for v in from_min.matrix.column_vecs()}
    assert not kept & {0, 1, 4}
    for got, want in zip((m_min.relations, to_min.matrix, from_min.matrix),
                         minimal_presentation_reference(m)):
        assert got.source_degrees == want.source_degrees
        assert got.target_degrees == want.target_degrees
        assert got.column_vecs() == want.column_vecs()


def _hom_into_first_kernel(r, j):
    """Hom(Omega^j k, K_1) over F_101 in r variables, K_1 the first kernel
    of the add-M resolution of Omega^1 k, M = R + Omega^j k."""
    ctx = RingContext(101, ("x", "y", "z", "w", "v")[:r])
    k = residue_field(ctx)
    R, O = free_module(ctx), syzygy(k, j)
    res = add_M_resolution(syzygy(k, 1), direct_sum(R, O), 1)
    return hom_module(O, res.modules[1]).module


def test_minimal_presentation_composes_no_matrix(monkeypatch):
    """One pass, no matrix composed: the loop it replaced composed the
    relations, rho and iota once per eliminated generator (180 calls
    here)."""
    H = _hom_into_first_kernel(4, 2)
    calls = []
    real = FreeModuleMap.compose

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(FreeModuleMap, "compose", counting)
    m_min = minimal_presentation(H)[0]
    monkeypatch.setattr(FreeModuleMap, "compose", real)
    assert (H.rank, m_min.rank) == (141, 81)
    assert calls == []


def test_minimal_presentation_of_a_large_hom_module():
    """Hom(Omega^3 k, K_1) at r = 5: 1355 generators and 1301 relations."""
    H = _hom_into_first_kernel(5, 3)
    m_min, to_min, from_min = minimal_presentation(H)
    assert m_min.rank == len(minimal_generator_indices(H)) == 955
    assert m_min.relations.source_rank == 901
    assert not m_min.relations.constant_vecs()
    assert m_min.hilbert_function(4) == H.hilbert_function(4)
    assert to_min.compose(from_min) == ModuleMorphism.identity(m_min)


@pytest.mark.parametrize("seed", range(3))
def test_rank_tests_run_no_buchberger(ctx2, ctx3, seed, monkeypatch):
    """``is_zero``, ``minimal_generator_indices`` and the column trim of
    ``minimal_presentation`` grow one basis by ``add`` and never run
    ``buchberger_vecs``, on modules whose relations have unit entries."""
    calls = []
    real = groebner.buchberger_vecs

    def counting(*args):
        calls.append(1)
        return real(*args)

    for ctx in (ctx2, ctx3):
        m = _redundant_module(ctx, seed)
        monkeypatch.setattr(groebner, "buchberger_vecs", counting)
        got = (m.is_zero(), minimal_generator_indices(m),
               minimal_presentation(m))
        monkeypatch.setattr(groebner, "buchberger_vecs", real)
        assert not got[0] and len(got[1]) == got[2][0].rank < m.rank
    assert calls == []


def _zero_by_reduction(m):
    """Reference zero test: every generator reduces to 0 modulo rel_gb()."""
    zero_mono = (0,) * m.ctx.nvars
    return all(not m.rel_gb().normal_form_vec({term(m.ctx, i, zero_mono): 1})
               for i in range(m.rank))


@pytest.mark.parametrize("seed", range(6))
def test_is_zero_matches_reduction_of_every_generator(ctx2, ctx3, seed):
    for ctx in (ctx2, ctx3):
        m = _redundant_module(ctx, seed)
        # m modulo its first n generators, for every n; the quotient by all
        # the generators that do not come from combinations is zero
        for n in range(m.rank + 1):
            units = [[ctx.one() if i == j else ctx.zero()
                      for i in range(m.rank)] for j in range(n)]
            kill = FreeModuleMap(ctx, m.gen_degrees[:n], m.gen_degrees, units)
            q = FPModule(ctx, m.gen_degrees, kill.hstack(m.relations))
            got = q.is_zero(), minimal_generator_indices(q)
            assert q._rel_gb is None
            assert got[0] == _zero_by_reduction(q) == (not got[1])


@pytest.mark.parametrize("cols,zero,kept", [
    ([(1, 1), (1, 2)], True, []),
    ([(1, 1), (2, 2)], False, [0]),
])
def test_is_zero_needs_a_combination_of_constant_relations(ctx2, cols, zero,
                                                           kept):
    rel = FreeModuleMap(ctx2, (0, 0), (0, 0),
                        [[ctx2.constant(c) for c in col] for col in cols])
    m = make_module([0, 0], rel, ctx2)
    assert m.is_zero() == zero
    assert minimal_generator_indices(m) == kept
    assert m._rel_gb is None
    assert _zero_by_reduction(m) == zero


def test_koszul_betti_numbers(ctx1, ctx2, ctx3):
    """[DERIVED] binomial Betti numbers of k for r = 1, 2, 3."""
    for ctx in (ctx1, ctx2, ctx3):
        r = ctx.nvars
        k = residue_field(ctx)
        res = minimal_resolution(k, r + 1)
        assert res.betti == koszul_betti(r)
        assert res.complete
        assert syzygy(k, r).relations.source_rank == 0
        assert syzygy(k, r).rank == 1
        for c in (r + 1, r + 5):
            Z = syzygy(k, c)
            assert Z.is_zero() and Z.rank == 0
            assert Z.relations.source_rank == 0


def test_resolution_completeness_does_not_depend_on_call_history(ctx3):
    """complete means fewer than max_len nonzero differentials: for k over
    3 variables, length 3 is not known complete and length 4 is, in either
    call order, and asking for length 4 computes no extra syzygy."""
    for lengths in ((3, 4), (4, 3)):
        k = residue_field(ctx3)
        got = {n: minimal_resolution(k, n) for n in lengths}
        assert not got[3].complete and got[4].complete
        assert got[3].betti == got[4].betti == koszul_betti(3)
        assert len(k._syz) == 3         # Omega^1 .. Omega^3


def test_far_resolution_lengths_walk_only_the_cached_chain(ctx2):
    """A length far past the Hilbert bound is answered from the chain of
    syzygy modules, which ends at the zero module; it must not iterate up
    to the length asked for."""
    k = residue_field(ctx2)
    with deadline(10):
        res = minimal_resolution(k, 10 ** 12)
        Z = syzygy(k, 10 ** 12)
    assert res.complete and res.betti == koszul_betti(2)
    assert Z.is_zero()


def test_resolution_is_exact_degreewise(ctx2):
    """Dense-homology oracle confirms exactness of computed resolutions."""
    for m in (square_quotient(ctx2), maximal_ideal(ctx2)):
        res = minimal_resolution(m, ctx2.nvars + 1)
        degrees = [res.min_module.gen_degrees] + \
            [d.source_degrees for d in res.maps]
        # chain complex: homology at interior spots must vanish
        co_maps = []
        for d in reversed(res.maps):
            co_maps.append([[d.cols[j][i] for i in range(d.target_rank)]
                            for j in range(d.source_rank)])
        co_degrees = list(reversed(degrees))
        for i in range(1, len(co_degrees) - 1):
            for t in range(7):
                assert complex_homology_dim(co_degrees, co_maps, i, t,
                                            ctx2) == 0


def test_resolution_minimality(ctx3):
    m = square_quotient(ctx3)
    res = minimal_resolution(m, 3)
    for d in res.maps:
        assert not any(f.terms.get((0, 0, 0)) for col in d.cols for f in col)


def test_non_minimal_first_differential_is_refused(ctx2, monkeypatch):
    """The first differential is checked too: a constant column slipped into
    the minimal presentation of k is refused."""
    real = modules._trim_columns
    zero = (0,) * ctx2.nvars

    def with_unit_column(m):
        unit = FreeModuleMap.from_vecs(ctx2, [{term(ctx2, 0, zero): 1}],
                                       m.target_degrees)
        return real(m).hstack(unit)

    monkeypatch.setattr(modules, "_trim_columns", with_unit_column)
    with pytest.raises(AlgebraError, match="not minimal"):
        minimal_resolution(residue_field(ctx2), 1)


def test_differential_that_does_not_compose_to_zero_is_refused(ctx2,
                                                               monkeypatch):
    """A second differential x * e_0 after d_1 = [x y] gives x^2, not 0."""
    x_mono = (1,) + (0,) * (ctx2.nvars - 1)

    def not_syzygies(d):
        return FreeModuleMap.from_vecs(ctx2, [{term(ctx2, 0, x_mono): 1}],
                                       d.source_degrees)

    k = residue_field(ctx2)
    minimal_resolution(k, 1)
    monkeypatch.setattr(modules, "syzygy_basis", not_syzygies)
    with pytest.raises(AlgebraError, match="compose to 0"):
        minimal_resolution(k, 2)


def test_cached_resolution_is_not_checked_again(ctx3, monkeypatch):
    """Each differential is checked once, when it is computed: a second call
    on the same module composes no maps.  The resolution and the syzygy
    modules share one chain: its differentials are their relations, and
    after either is read to the end, the other computes no syzygies."""
    r = ctx3.nvars
    k = residue_field(ctx3)
    first = minimal_resolution(k, 4)
    calls = []
    real = FreeModuleMap.compose

    def counting(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(FreeModuleMap, "compose", counting)
    again = minimal_resolution(k, 4)
    assert calls == []
    assert again.betti == first.betti and again.complete
    for i, d in enumerate(again.maps):
        assert d is syzygy(k, i).relations

    syz_calls = []
    real_syz = modules.syzygy_basis

    def counting_syz(d):
        syz_calls.append(d)
        return real_syz(d)

    monkeypatch.setattr(modules, "syzygy_basis", counting_syz)
    k = residue_field(ctx3)
    minimal_resolution(k, r + 1)
    syz_calls.clear()
    for c in range(r + 6):
        syzygy(k, c)
    assert syz_calls == []
    k = residue_field(ctx3)
    for c in range(r + 6):
        syzygy(k, c)
    syz_calls.clear()
    res = minimal_resolution(k, r + 1)
    assert syz_calls == [] and res.betti == koszul_betti(r)


def test_syzygy_of_free_and_negatives(ctx2):
    R = free_module(ctx2)
    assert syzygy(R, 1).is_zero()
    with pytest.raises(AlgebraError):
        syzygy(R, -1)


def test_syzygy_of_maximal_ideal_shifts(ctx2):
    k = residue_field(ctx2)
    m = maximal_ideal(ctx2)
    # omega m = omega^2 k
    assert syzygy(m, 1).hilbert_function(5) == \
        syzygy(k, 2).hilbert_function(5)


@pytest.mark.parametrize("c", [1, 2])
def test_syzygy_modules_are_their_own_minimal_models(ctx3, c, monkeypatch):
    """A module of the syzygy chain is presented minimally, and says so:
    its minimal presentation is itself, read with no basis grown."""
    o = syzygy(residue_field(ctx3), c)
    calls = []
    real = groebner.GroebnerBasis.add

    def counting(self, v):
        calls.append(1)
        return real(self, v)

    monkeypatch.setattr(groebner.GroebnerBasis, "add", counting)
    m_min, to_min, from_min = minimal_presentation(o)
    monkeypatch.setattr(groebner.GroebnerBasis, "add", real)
    assert m_min is o and calls == []
    assert to_min == from_min == ModuleMorphism.identity(o)
