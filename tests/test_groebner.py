import ast
import copy
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (membership_oracle, monomials_of_degree, packed_vec,
                     rank_mod_p, tuple_vec)
from ncres.ring import Polynomial, RingContext, parse_polynomial
from ncres import groebner
from ncres.groebner import (FreeModuleMap, GroebnerBasis, buchberger,
                            buchberger_vecs, by_position, is_constant,
                            lift_solve, reduce_vec, split_term, syzygy_basis,
                            term)

CTX = RingContext(101, ("x", "y"))
CTX3 = RingContext(101, ("x", "y", "z"))


def poly(s, ctx=CTX):
    return parse_polynomial(s, ctx)


def vec_of(f, pos=0):
    return {term(f.ctx, pos, m): c for m, c in f.terms.items()}


def random_combination(vecs, ctx, rng, max_shift=2):
    """A random homogeneous module element of the span of vecs."""
    out = {}
    target = None
    for v in vecs:
        v = tuple_vec(ctx, v)
        (pos0, m0) = next(iter(v))
        base = sum(m0)
        if target is None:
            target = base + rng.randrange(max_shift + 1)
        shift = target - base
        if shift < 0:
            continue
        monos = list(monomials_of_degree(ctx.nvars, shift))
        mono = rng.choice(monos)
        c = rng.randrange(ctx.characteristic)
        for (pos, m), cv in v.items():
            key = (pos, tuple(a + b for a, b in zip(m, mono)))
            out[key] = (out.get(key, 0) + c * cv) % ctx.characteristic
    return packed_vec(ctx, {k: v for k, v in out.items() if v})


def test_membership_matches_oracle_ideals():
    """Groebner membership vs dense linear algebra on random elements."""
    rng = random.Random(7)
    families = [
        ([vec_of(poly("x^2")), vec_of(poly("x*y + y^2"))], CTX, 1),
        ([vec_of(poly("x^2 - y^2")), vec_of(poly("x*y"))], CTX, 1),
        ([vec_of(poly("x", CTX3)), vec_of(poly("y*z", CTX3))], CTX3, 1),
        ([packed_vec(CTX, {(0, (1, 0)): 1, (1, (0, 1)): 100}),
          packed_vec(CTX, {(0, (0, 2)): 1, (1, (1, 1)): 1})], CTX, 2),
    ]
    for vecs, ctx, rank in families:
        gb = buchberger(vecs, ctx)
        degrees = (0,) * rank
        for _ in range(10):
            member = random_combination(vecs, ctx, rng)
            assert gb.contains_vec(member)
            assert membership_oracle(vecs, member, degrees, ctx)
        # random probes, oracle as referee
        for _ in range(15):
            d = rng.randrange(1, 4)
            pos = rng.randrange(rank)
            probe = {term(ctx, pos, m): rng.randrange(101)
                     for m in monomials_of_degree(ctx.nvars, d)}
            probe = {k: v for k, v in probe.items() if v}
            assert gb.contains_vec(probe) == \
                membership_oracle(vecs, probe, degrees, ctx)


def test_normal_form_properties():
    vecs = [vec_of(poly("x^2")), vec_of(poly("x*y + y^2"))]
    gb = buchberger(vecs, CTX)
    rng = random.Random(3)
    for _ in range(10):
        d = rng.randrange(4)
        v = {term(CTX, 0, m): rng.randrange(101)
             for m in monomials_of_degree(2, d)}
        v = {k: c for k, c in v.items() if c}
        nf = gb.normal_form_vec(v)
        # idempotent
        assert gb.normal_form_vec(nf) == nf
        # v - nf lies in the submodule
        diff = dict(v)
        for k, c in nf.items():
            diff[k] = (diff.get(k, 0) - c) % 101
        diff = {k: c for k, c in diff.items() if c}
        assert gb.contains_vec(diff)


def test_known_groebner_basis_lead_terms():
    # ideal (y^2 - x*z, x*y) over grevlex contains x^2*z in degree 3 closure
    v1 = vec_of(poly("y^2 - x*z", CTX3))
    v2 = vec_of(poly("x*y", CTX3))
    gb = buchberger([v1, v2], CTX3)
    assert gb.contains_vec(vec_of(poly("x^2*z", CTX3)))
    assert not gb.contains_vec(vec_of(poly("x*z", CTX3)))


def test_lift_solve_reconstructs():
    x, y = CTX.variable("x"), CTX.variable("y")
    cols = FreeModuleMap(CTX, (2, 2), (0,), [[x * x], [x * y + y * y]])
    rng = random.Random(11)
    for _ in range(8):
        member = random_combination(cols.column_vecs(), CTX, rng)
        if not member:
            continue
        rhs = FreeModuleMap.from_vecs(CTX, [member], (0,))
        sol = lift_solve(cols, rhs)
        assert sol is not None
        assert cols.compose(sol).column_vec(0) == member
    # non-member has no lift
    bad = FreeModuleMap(CTX, (1,), (0,), [[x]])
    assert lift_solve(cols, bad) is None


def test_syzygy_basis_koszul():
    vs = [CTX3.variable(v) for v in "xyz"]
    cols = FreeModuleMap(CTX3, (1, 1, 1), (0,), [[v] for v in vs])
    syz = syzygy_basis(cols)
    # every syzygy column maps to zero
    composed = cols.compose(syz)
    assert all(f.is_zero() for col in composed.cols for f in col)
    # Koszul relations are all present
    koszul = [packed_vec(CTX3, v) for v in (
        {(0, (0, 1, 0)): 1, (1, (1, 0, 0)): 100},
        {(0, (0, 0, 1)): 1, (2, (1, 0, 0)): 100},
        {(1, (0, 0, 1)): 1, (2, (0, 1, 0)): 100})]
    gb = buchberger(syz.column_vecs(), CTX3)
    for v in koszul:
        assert gb.contains_vec(v)
    # and conversely each syzygy generator lies in the Koszul span
    for j in range(syz.source_rank):
        assert membership_oracle(koszul, syz.column_vec(j), (1, 1, 1), CTX3)


def test_free_module_map_algebra():
    x, y = CTX.variable("x"), CTX.variable("y")
    a = FreeModuleMap(CTX, (1, 1), (0,), [[x], [y]])
    ident = FreeModuleMap.identity(CTX, (1, 1))
    assert a.compose(ident).cols == a.cols
    b = a.hstack(a)
    assert b.source_rank == 4 and b.target_rank == 1
    t = a.transpose()
    assert t.source_rank == 1 and t.target_rank == 2
    assert t.cols[0] == [x, y]


# -- sparse column storage ---------------------------------------------------

def random_map(ctx, rng, source_degrees, target_degrees, zero_cols=()):
    """Homogeneous map with random dense entries; the columns listed in
    ``zero_cols`` and entries of negative degree are zero."""
    p = ctx.characteristic
    cols = []
    for j, dj in enumerate(source_degrees):
        col = []
        for di in target_degrees:
            e = dj - di
            terms = {}
            if e >= 0 and j not in zero_cols:
                terms = {m: rng.randrange(p)
                         for m in monomials_of_degree(ctx.nvars, e)}
            col.append(Polynomial(ctx, terms))
        cols.append(col)
    return FreeModuleMap(ctx, source_degrees, target_degrees, cols)


def random_chain(seed):
    """(ctx, a, b) with a o b defined: 2-4 variables, ranks 1-4, some zero
    columns in both maps."""
    rng = random.Random(seed)
    ctx = RingContext(101, ("x", "y", "z", "w")[:rng.randrange(2, 5)])
    ranks = [rng.randrange(1, 5) for _ in range(3)]
    d0 = [rng.randrange(0, 2) for _ in range(ranks[0])]
    d1 = [rng.randrange(1, 3) for _ in range(ranks[1])]
    d2 = [rng.randrange(2, 4) for _ in range(ranks[2])]
    a = random_map(ctx, rng, d1, d0, zero_cols={rng.randrange(ranks[1])})
    b = random_map(ctx, rng, d2, d1, zero_cols={rng.randrange(ranks[2])})
    return ctx, a, b


def frozen(m):
    return [sorted(v.items()) for v in m.column_vecs()]


@pytest.mark.parametrize("seed", range(8))
def test_compose_matches_polynomial_products(seed):
    ctx, a, b = random_chain(seed)
    got = a.compose(b)
    want = [[sum((a.cols[k][i] * b.cols[j][k] for k in range(a.source_rank)),
                 ctx.zero())
             for i in range(a.target_rank)] for j in range(b.source_rank)]
    assert got.cols == want
    assert got.source_degrees == b.source_degrees
    assert got.target_degrees == a.target_degrees


@pytest.mark.parametrize("seed", range(8))
def test_transpose_swaps_rows_and_columns(seed):
    ctx, a, _ = random_chain(seed)
    t = a.transpose()
    assert t.source_degrees == tuple(-d for d in a.target_degrees)
    assert t.target_degrees == tuple(-d for d in a.source_degrees)
    assert t.cols == [[a.cols[j][i] for j in range(a.source_rank)]
                      for i in range(a.target_rank)]
    assert frozen(t.transpose()) == frozen(a)


@pytest.mark.parametrize("seed", range(8))
def test_polynomial_columns_round_trip(seed):
    ctx, a, b = random_chain(seed)
    for m in (a, b, a.compose(b), a.transpose(), syzygy_basis(a)):
        again = FreeModuleMap(ctx, m.source_degrees, m.target_degrees, m.cols)
        assert again.column_vecs() == m.column_vecs()


@pytest.mark.parametrize("seed", range(8))
def test_sparse_operations_leave_their_inputs_unchanged(seed):
    """Stored vectors are shared, never mutated: syzygies, lifts and
    composition leave the columns of their arguments as they were."""
    ctx, a, b = random_chain(seed)
    rhs = a.compose(b)
    before = [frozen(m) for m in (a, b, rhs)]
    syz = syzygy_basis(a)
    sol = lift_solve(a, rhs)
    assert sol is not None
    assert a.compose(sol).column_vecs() == rhs.column_vecs()
    assert a.compose(syz).is_zero()
    assert [frozen(m) for m in (a, b, rhs)] == before


@given(seed=st.integers(0, 10 ** 6))
@settings(max_examples=15, deadline=None)
def test_buchberger_random_ideals_agree_with_oracle(seed):
    rng = random.Random(seed)
    vecs = []
    for _ in range(rng.randrange(1, 4)):
        d = rng.randrange(1, 3)
        f = {term(CTX, 0, m): rng.randrange(101)
             for m in monomials_of_degree(2, d)}
        f = {k: c for k, c in f.items() if c}
        if f:
            vecs.append(f)
    if not vecs:
        return
    gb = buchberger(vecs, CTX)
    for d in range(1, 4):
        for m in monomials_of_degree(2, d):
            probe = {term(CTX, 0, m): 1}
            assert gb.contains_vec(probe) == \
                membership_oracle(vecs, probe, (0,), CTX)


# -- sympy as a second oracle ------------------------------------------------

def _sparse_form(ctx, rng, d, nterms):
    monos = list(monomials_of_degree(ctx.nvars, d))
    monos = rng.sample(monos, min(nterms, len(monos)))
    return {term(ctx, 0, m): rng.randrange(1, ctx.characteristic)
            for m in monos}


@pytest.mark.parametrize(
    "order, seed",
    [pytest.param("grevlex", s, id=str(s)) for s in range(30)]
    + [pytest.param("lex", s, id=f"lex-{s}") for s in range(40)])
def test_rank_one_basis_matches_sympy(order, seed):
    """The reduced basis is unique: ours equals sympy's as monic polys.
    Lex bases grow fast, so lex ideals have 2-3 variables, grevlex 3-4."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(seed)
    p = 32003
    nvars = rng.choice((3, 4) if order == "grevlex" else (2, 3))
    names = ("x", "y", "z", "w")[:nvars]
    ctx = RingContext(p, names, order)
    vecs = [_sparse_form(ctx, rng, rng.choice((2, 2, 3)), rng.randrange(2, 5))
            for _ in range(rng.randrange(2, 5))]
    ours = {frozenset((m, c) for (_, m), c in tuple_vec(ctx, g).items())
            for g in buchberger(vecs, ctx).generators}
    gens = sympy.symbols(names)
    polys = [sympy.Poly.from_dict({m: c for (_, m), c
                                   in tuple_vec(ctx, v).items()}, *gens,
                                  modulus=p).as_expr() for v in vecs]
    theirs = set()
    for g in sympy.groebner(polys, *gens, modulus=p, order=order).exprs:
        terms = sympy.Poly(g, *gens, modulus=p).terms(order=order)
        lead = int(terms[0][1]) % p
        inv = pow(lead, p - 2, p)
        theirs.add(frozenset((m, int(c) * inv % p) for m, c in terms))
    assert ours == theirs


# -- growing a basis ---------------------------------------------------------

def _random_module_vecs(ctx, rng, rank, n):
    vecs = []
    for _ in range(n):
        d = rng.randrange(1, 3)
        v = {term(ctx, pos, m): rng.randrange(ctx.characteristic)
             for pos in range(rank) if rng.random() < 0.7
             for m in monomials_of_degree(ctx.nvars, d)}
        v = {k: c for k, c in v.items() if c}
        if v:
            vecs.append(v)
    return vecs


@pytest.mark.parametrize("seed", range(8))
def test_extend_agrees_with_rebuild(seed):
    """A basis extended one vector at a time by ``add``, from empty or from
    an auto-reduced basis, has the span of a rebuild: ``add`` reports each
    vector new exactly when it lies outside the span of those before it."""
    rng = random.Random(seed)
    ctx = CTX3 if seed % 2 else CTX
    rank = rng.randrange(1, 3)
    a = _random_module_vecs(ctx, rng, rank, rng.randrange(1, 4))
    b = _random_module_vecs(ctx, rng, rank, rng.randrange(1, 4))
    # grown from empty, or from an auto-reduced basis of a; every vector
    # of the second pass over a lies in the span already
    base = a if seed % 4 < 2 else []
    grown = buchberger(base, ctx) if base else GroebnerBasis(ctx)
    seen = list(base)
    for v in a + b + a:
        new = not membership_oracle(seen, v, (0,) * rank, ctx)
        assert grown.add(v) == new
        seen.append(v)
    rebuilt = buchberger(a + b, ctx)
    for v in a + b:
        assert grown.contains_vec(v) and rebuilt.contains_vec(v)
    for _ in range(20):
        d = rng.randrange(1, 4)
        probe = {term(ctx, rng.randrange(rank), m): rng.randrange(101)
                 for m in rng.sample(list(monomials_of_degree(ctx.nvars, d)),
                                     2)}
        probe = {k: c for k, c in probe.items() if c}
        want = rebuilt.contains_vec(probe)
        assert grown.contains_vec(probe) == want
        assert want == membership_oracle(a + b, probe, (0,) * rank, ctx)


@pytest.mark.parametrize("seed", range(6))
def test_extend_by_a_batch_matches_a_rebuild(seed):
    """``extend`` pushes a whole batch before it forms pairs: the grown
    basis has the span of a rebuild, auto-reduces to the same unique
    basis, and a second batch from the span leaves it unchanged."""
    rng = random.Random(seed)
    ctx = CTX3 if seed % 2 else CTX
    rank = rng.randrange(1, 3)
    a = _random_module_vecs(ctx, rng, rank, rng.randrange(1, 4))
    b = _random_module_vecs(ctx, rng, rank, rng.randrange(1, 4))
    base = a if seed % 3 == 0 else []
    grown = buchberger(base, ctx) if base else GroebnerBasis(ctx)
    outside = not all(map(buchberger(base, ctx).contains_vec, a + b))
    assert grown.extend([{}] + b + a) is outside
    assert (buchberger_vecs(grown.generators, ctx)
            == buchberger(a + b, ctx).generators)
    before = copy.deepcopy(grown.generators)
    members = [random_combination(a + b, ctx, rng) for _ in range(5)]
    assert grown.extend(members + [{}]) is False
    assert grown.generators == before


def test_extend_indexes_its_leading_terms_once(monkeypatch):
    """``add`` keeps the position index of the leading terms up to date in
    place: extending a basis never calls ``by_position``, and the grown
    index is the one ``by_position`` builds from the leading terms."""
    rng = random.Random(7)
    a = _random_module_vecs(CTX3, rng, 2, 3)
    b = _random_module_vecs(CTX3, rng, 2, 3)
    grown = buchberger(a, CTX3)
    calls = []
    original = groebner.by_position

    def counting(lts, ctx):
        calls.append(len(lts))
        return original(lts, ctx)

    monkeypatch.setattr(groebner, "by_position", counting)
    assert any([grown.add(v) for v in b])
    assert calls == []
    assert grown.reducers == original(grown.leading_terms, CTX3)


@pytest.mark.parametrize("grow", [False, True])
def test_add_of_a_member_leaves_the_basis_unchanged(grow):
    """``add`` returns False on the zero vector and on every element of the
    span, and leaves the generators, leading terms and index as they
    were, on an auto-reduced basis and on one grown by ``add``."""
    rng = random.Random(11)
    a = _random_module_vecs(CTX3, rng, 2, 3)
    gb = GroebnerBasis(CTX3) if grow else buchberger(a, CTX3)
    for v in a:
        gb.add(v)
    before = (copy.deepcopy(gb.generators), list(gb.leading_terms),
              copy.deepcopy(gb.reducers))
    members = [{}] + a + [random_combination(a, CTX3, rng) for _ in range(10)]
    for v in members:
        assert gb.add(v) is False
    assert (gb.generators, gb.leading_terms, gb.reducers) == before


def test_constant_vector_basis_size_is_rank():
    """For constant vectors the reduced basis is the row echelon form, so
    its size is the rank over F_p; a basis grown by ``add`` forms no
    S-pair, so it has one element per leading position, as many."""
    ctx = RingContext(32003, ("x", "y", "z"))
    p = ctx.characteristic
    zero = (0,) * ctx.nvars
    rng = random.Random(7)
    for _ in range(50):
        width = rng.randrange(1, 7)
        rows = [[rng.randrange(p) if rng.random() < 0.6 else 0
                 for _ in range(width)] for _ in range(rng.randrange(5))]
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), [0] * width)
        if len(rows) >= 2 and rng.random() < 0.7:
            a, b = rng.randrange(p), rng.randrange(p)
            rows.append([(a * u + b * v) % p for u, v in zip(*rows[:2])])
        vecs = [{term(ctx, j, zero): c for j, c in enumerate(row) if c}
                for row in rows]
        assert len(buchberger(vecs, ctx).generators) == rank_mod_p(rows, p)
        grown = GroebnerBasis(ctx)
        for v in vecs:
            grown.add(v)
        assert len(grown.generators) == rank_mod_p(rows, p)


# -- the reduction kernel ----------------------------------------------------

def _rescan_reduce(v, basis, lts, larger, p):
    """Reference normal form: every step takes the maximum term of the whole
    working vector under ``larger`` and scans every leading term for the
    first that divides it."""
    work = dict(v)
    result = {}
    while work:
        t = max(work, key=larger)
        c = work[t]
        for g, (lpos, lm) in zip(basis, lts):
            if lpos == t[0] and all(a <= b for a, b in zip(lm, t[1])):
                q = tuple(a - b for a, b in zip(t[1], lm))
                for (pos, m), gc in g.items():
                    u = (pos, tuple(a + b for a, b in zip(m, q)))
                    val = (work.get(u, 0) - c * gc) % p
                    if val:
                        work[u] = val
                    else:
                        work.pop(u, None)
                break
        else:
            result[t] = c
            del work[t]
    return result


def _random_homogeneous(ctx, rng, rank, d, nterms):
    monos = list(monomials_of_degree(ctx.nvars, d))
    terms = [(rng.randrange(rank), rng.choice(monos)) for _ in range(nterms)]
    return {t: rng.randrange(1, ctx.characteristic) for t in terms}


@pytest.mark.parametrize("nvars", [2, 3, 4])
@pytest.mark.parametrize("order", ["term", "elim"])
def test_heap_reduction_matches_rescan_reference(nvars, order):
    """reduce_vec against the rescanning reference on seeded vectors in
    several positions, under the term order and the elimination order
    (terms in positions >= split carry the elimination flag); the bases
    are Groebner bases and also plain monic lists whose leading terms
    repeat, where the lowest-index divisor must be the reducer."""
    ctx = RingContext(32003, ("a", "b", "c", "d")[:nvars])
    p = ctx.characteristic
    rank = 3
    split = 1
    if order == "term":
        def pack(t):
            return term(ctx, *t)

        def larger(t):
            return (ctx.mono_key(t[1]), -t[0])
    else:
        elim = groebner._layout(ctx).elim

        def pack(t):
            return term(ctx, *t) + (elim if t[0] >= split else 0)

        def larger(t):
            return (t[0] < split, ctx.mono_key(t[1]), -t[0])

    def packed(v):
        return {pack(t): c for t, c in v.items()}

    def unpacked(v):
        return {split_term(ctx, t): c for t, c in v.items()}

    rng = random.Random(100 * nvars + len(order))
    for _ in range(6):
        gens = [_random_homogeneous(ctx, rng, rank, rng.randrange(1, 3), 4)
                for _ in range(rng.randrange(2, 6))]
        gens = [g for g in gens if g]
        # ascending packed terms are the reference order descending
        terms = sorted({t for g in gens for t in g}, key=pack)
        assert terms == sorted(terms, key=larger, reverse=True)
        # each of the first two generators again, with its leading term
        # kept and other lower terms added
        twins = []
        for g in gens[:2]:
            lt = max(g, key=larger)
            d = sum(lt[1])
            extra = _random_homogeneous(ctx, rng, rank, d, 4)
            twin = dict(g)
            twin.update((t, c) for t, c in extra.items()
                        if larger(t) < larger(lt))
            twins.append(twin)
        plain = []
        for g in gens + twins:
            c = g[max(g, key=larger)]
            plain.append({t: v * pow(c, p - 2, p) % p for t, v in g.items()})
        gb = [unpacked(g)
              for g in buchberger_vecs([packed(g) for g in gens], ctx)]
        for basis in (gb, plain):
            lts = [max(g, key=larger) for g in basis]
            assert [split_term(ctx, min(packed(g))) for g in basis] == lts
            reducers = by_position([pack(t) for t in lts], ctx)
            for _ in range(8):
                v = _random_homogeneous(ctx, rng, rank, 3, 10)
                got = reduce_vec(packed(v), [packed(g) for g in basis],
                                 reducers, ctx)
                assert unpacked(got) == \
                    _rescan_reduce(v, basis, lts, larger, p)


def test_one_vec_add_scaled_call_per_reduction_step(monkeypatch):
    """Each reduction step is one call of ``vec_add_scaled``, looked up in
    the module, so a wrapper there counts reduction steps.  By hand, with
    g1 = x - y and g2 = y^2 over F_101 in grevlex: x^2 -> x*y (by x*g1)
    -> y^2 (by y*g1) -> 0 (by g2), while x in position 1 has no reducer;
    three steps."""
    calls = []
    original = groebner.vec_add_scaled

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner, "vec_add_scaled", counting)
    g1 = packed_vec(CTX, {(0, (1, 0)): 1, (0, (0, 1)): 100})
    g2 = packed_vec(CTX, {(0, (0, 2)): 1})
    v = packed_vec(CTX, {(0, (2, 0)): 1, (1, (1, 0)): 5})
    lts = [term(CTX, 0, (1, 0)), term(CTX, 0, (0, 2))]
    out = reduce_vec(v, [g1, g2], by_position(lts, CTX), CTX)
    assert out == packed_vec(CTX, {(1, (1, 0)): 5})
    # each step's shift is the term of its multiplier x^a in position 0
    assert calls == [term(CTX, 0, a) for a in ((1, 0), (0, 1), (0, 0))]


# -- extended bases: read as the reduced extended basis reads ---------------

def _fully_reduced(basis, ctx):
    """A minimal monic Groebner basis with every tail reduced against it:
    the reduced basis, unique for a fixed order."""
    reducers = by_position([min(g) for g in basis], ctx)
    out = []
    for g in basis:
        lt = min(g)
        tail = {t: c for t, c in g.items() if t != lt}
        out.append({lt: 1, **reduce_vec(tail, basis, reducers, ctx)})
    return out


def _flagged_columns(a):
    """The input of ``a._extended_gb(a.source_rank)``: column j of a plus
    the flagged unit vector e_{t+j}, t the target rank of a."""
    ctx = a.ctx
    elim, zero = groebner._layout(ctx).elim, (0,) * ctx.nvars
    return [{**v, elim + term(ctx, a.target_rank + j, zero): 1}
            for j, v in enumerate(a.column_vecs())]


def _extended_reference(a, b, full):
    """(syzygy columns with their degrees, lift columns or None) of a, and
    of b against a, read off ``full``, the reduced extended basis of a."""
    ctx = a.ctx
    p = ctx.characteristic
    lay = groebner._layout(ctx)
    elim, flagged = lay.elim, lay.elim_min

    def unflag(t):
        pos, mono = split_term(ctx, t - elim)
        return term(ctx, pos - a.target_rank, mono)

    syz = []
    for g in full:
        if min(g) >= flagged:
            v = {unflag(t): c for t, c in g.items()}
            pos, mono = split_term(ctx, next(iter(v)))
            syz.append((a.source_degrees[pos] + sum(mono),
                        sorted((split_term(ctx, t), c) for t, c in v.items()),
                        v))
    syz.sort(key=lambda s: s[:2])
    reducers = by_position([min(g) for g in full], ctx)
    lift = []
    for v in b.column_vecs():
        r = reduce_vec(v, full, reducers, ctx)
        if any(t < flagged for t in r):
            lift = None
            break
        lift.append(sorted((unflag(t), -c % p) for t, c in r.items()))
    return [(d, sorted(v.items())) for d, _, v in syz], lift


def _leading_terms_divisible(lts, by, ctx):
    """True when each packed term of lts is divisible by one of ``by``."""
    lay, index = groebner._layout(ctx), by_position(by, ctx)
    return all(any(not (t - lm) & lay.guard
                   for lm, _ in index.get(t & lay.posmask, ()))
               for t in lts)


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_extended_basis_reads_match_fully_reduced_basis(order, nvars):
    """syzygy_basis and lift_solve give what the reduced extended basis
    gives, ``buchberger_vecs`` of the same flagged columns, on seeded maps
    with zero columns and constant (unit) entries, for liftable and for
    arbitrary right-hand sides.  The cached extended basis, not
    auto-reduced, is a Groebner basis of the same span."""
    ctx = RingContext(101, ("x", "y", "z", "w")[:nvars], order)
    rng = random.Random(10 * nvars + len(order))
    units = refused = 0
    for i in range(10):
        d0 = [rng.randrange(0, 2) for _ in range(rng.randrange(1, 4))]
        d1 = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 6))]
        d2 = [rng.randrange(1, 4) for _ in range(rng.randrange(1, 4))]
        zero = {rng.randrange(len(d1))} if i % 2 else set()
        a = random_map(ctx, rng, d1, d0, zero_cols=zero)
        units += any(is_constant(ctx, t)
                     for v in a.column_vecs() for t in v)
        x = random_map(ctx, rng, d2, d1)
        full = buchberger_vecs(_flagged_columns(a), ctx)
        assert full == _fully_reduced(full, ctx)
        engine = a._extended_gb(a.source_rank).generators
        full_lts, engine_lts = [min(g) for g in full], [min(g) for g in engine]
        reducers = by_position(full_lts, ctx)
        assert (not any(reduce_vec(g, full, reducers, ctx) for g in engine)
                and _leading_terms_divisible(engine_lts, full_lts, ctx)
                and _leading_terms_divisible(full_lts, engine_lts, ctx))
        for b in (a.compose(x), random_map(ctx, rng, d2, d0)):
            syz, lift = _extended_reference(a, b, full)
            s = syzygy_basis(a)
            assert [(d, sorted(v.items())) for d, v in
                    zip(s.source_degrees, s.column_vecs())] == syz
            got = lift_solve(a, b)
            assert (None if got is None else frozen(got)) == lift
            refused += got is None
            if got is not None:
                assert frozen(a.compose(got)) == frozen(b)
        assert lift_solve(a, a.compose(x)) is not None
        plain = buchberger_vecs(a.column_vecs(), ctx)
        assert plain == _fully_reduced(plain, ctx)
    assert units and refused


# -- relative syzygies: only the columns of x are bookkept -------------------

@given(seed=st.integers(0, 10 ** 6), nvars=st.sampled_from([2, 3]))
@settings(max_examples=25, deadline=None)
def test_relative_syzygies_match_projected_full_syzygies(seed, nvars):
    """For a random homogeneous block [x | y], the relative syzygies
    {c : x c in im y}, read off the basis that flags the columns of x only,
    span what the old route spans: the full syzygies of the block projected
    onto the x positions, zeros dropped.  Both have one reduced basis; the
    relative syzygies are it.  A lift modulo im y solves x c = b mod im y
    and is refused exactly off im x + im y."""
    ctx = CTX if nvars == 2 else CTX3
    rng = random.Random(seed)
    d0 = [rng.randrange(0, 2) for _ in range(rng.randrange(1, 3))]
    dx = [rng.randrange(0, 3) for _ in range(rng.randrange(1, 4))]
    dy = [rng.randrange(1, 3) for _ in range(rng.randrange(0, 4))]
    zero = {rng.randrange(len(dx))} if seed % 3 == 0 else set()
    x = random_map(ctx, rng, dx, d0, zero_cols=zero)
    y = random_map(ctx, rng, dy, d0)
    block = x.hstack(y)
    k = x.source_rank

    rel = groebner._relative_syzygies(block, k)
    assert rel.target_degrees == x.source_degrees
    old = [{t: c for t, c in v.items() if split_term(ctx, t)[0] < k}
           for v in syzygy_basis(x.hstack(y)).column_vecs()]
    old = [v for v in old if v]
    new = rel.column_vecs()
    assert buchberger_vecs(new, ctx) == buchberger_vecs(old, ctx)
    assert buchberger_vecs(new, ctx) == sorted(new, key=min)
    span_y = buchberger(y.column_vecs(), ctx)
    assert all(map(span_y.contains_vec, x.compose(rel).column_vecs()))

    de = [rng.randrange(1, 4) for _ in range(2)]
    members = block.compose(random_map(ctx, rng, de, block.source_degrees))
    others = random_map(ctx, rng, de, d0)
    span_xy = buchberger(block.column_vecs(), ctx)
    for b in (members, others):
        sol = groebner._relative_lift(block, b, k)
        inside = all(map(span_xy.contains_vec, b.column_vecs()))
        assert (sol is not None) == inside
        if sol is not None:
            assert sol.target_degrees == x.source_degrees
            for have, want in zip(x.compose(sol).column_vecs(),
                                  b.column_vecs()):
                assert (span_y.normal_form_vec(have)
                        == span_y.normal_form_vec(want))
    assert list(block._ext_gb) == [k]


# -- Buchberger runs only where a reduced basis is read ----------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ncres"
BUCHBERGER = {"buchberger", "buchberger_vecs"}
# rank tests grow a basis by ``GroebnerBasis.add`` and extended bases by
# ``GroebnerBasis.extend``; an auto-reduced basis is built only for a
# module's relations, and ``buchberger`` alone calls ``buchberger_vecs``.
# The module that defines ``FPModule.rel_gb`` imports ``buchberger`` for
# it, and the package re-exports it.
ALLOWED_SCOPES = {("modules.py", "FPModule.rel_gb"),
                  ("groebner.py", "buchberger")}
ALLOWED_IMPORTS = {"modules.py", "__init__.py"}


def buchberger_references(source: str, filename: str):
    """(line, name) of every name, attribute or import naming a Buchberger
    entry point outside the allowed scopes and imports."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)
        if name in BUCHBERGER and (filename, scope) not in ALLOWED_SCOPES:
            out.append((node.lineno, name))
        if (isinstance(node, ast.ImportFrom)
                and filename not in ALLOWED_IMPORTS):
            out.extend((node.lineno, a.name) for a in node.names
                       if a.name in BUCHBERGER or a.name == "*")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_buchberger_references_detects_stray_runs():
    src = ("from .groebner import GroebnerBasis, buchberger\n"
           "from . import groebner\n"
           "class FPModule:\n"
           "    def rel_gb(self):\n"
           "        return buchberger(self.vecs, self.ctx)\n"
           "    def rank(self):\n"
           "        return groebner.buchberger_vecs(self.vecs, self.ctx)\n"
           "def rel_gb(vecs, ctx):\n"
           "    return buchberger(vecs, ctx)\n"
           "run = buchberger\n")
    stray = [(7, "buchberger_vecs"), (9, "buchberger"), (10, "buchberger")]
    assert buchberger_references(src, "modules.py") == stray
    assert buchberger_references(src, "homalg.py") == sorted(
        stray + [(1, "buchberger"), (5, "buchberger")])
    assert (buchberger_references(src, "groebner.py")
            == buchberger_references(src, "homalg.py"))
    own = ("def buchberger(vecs, ctx):\n"
           "    return GroebnerBasis(ctx, buchberger_vecs(vecs, ctx))\n"
           "class FreeModuleMap:\n"
           "    def _extended_gb(self, kept):\n"
           "        return buchberger(self.vecs, self.ctx)\n")
    assert buchberger_references(own, "groebner.py") == [(5, "buchberger")]
    assert buchberger_references(own, "modules.py") == [
        (2, "buchberger_vecs"), (5, "buchberger")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_src_runs_buchberger_only_for_reduced_bases(path):
    assert buchberger_references(path.read_text(encoding="utf-8"),
                                 path.name) == []
