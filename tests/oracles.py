"""Independent dense linear-algebra oracles used to cross-check the engine.

Everything here works degree by degree over F_p with explicit monomial bases
and Gaussian elimination; no Groebner machinery is used.  Homogeneity makes
the degree-truncated answers exact in each inspected degree.  Sparse vectors
come in as the engine stores them, keyed by packed terms, and are read here
as (position, exponent tuple) pairs.  The last section is different: it
keeps engine code that was replaced, as the reference for its replacement.
"""

import itertools
from math import comb

from ncres.groebner import split_term, term
from ncres.ring import mono_degree, mono_mul


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, deterministic order."""
    if nvars == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            yield (first,) + rest


def tuple_vec(ctx, vec):
    """Engine vector -> {(position, exponent tuple): coefficient}."""
    return {split_term(ctx, t): c for t, c in vec.items()}


def packed_vec(ctx, vec):
    """{(position, exponent tuple): coefficient} -> engine vector."""
    return {term(ctx, pos, m): c for (pos, m), c in vec.items()}


# -- dense linear algebra over F_p -------------------------------------------

def echelon_mod_p(rows, p):
    """Row-reduce; returns (reduced rows, pivot column indices)."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def rank_mod_p(rows, p):
    return len(echelon_mod_p(rows, p)[0])


def reduce_mod_span(vec, echelon, pivots, p):
    """Normal form of a dense vector against reduced rows."""
    vec = [v % p for v in vec]
    for row, col in zip(echelon, pivots):
        f = vec[col]
        if f:
            vec = [(a - f * b) % p for a, b in zip(vec, row)]
    return vec


def in_span(vec, rows, p):
    ech, piv = echelon_mod_p(rows, p) if rows else ([], [])
    return not any(reduce_mod_span(vec, ech, piv, p))


# -- graded pieces of free modules and quotients -----------------------------

def degree_basis(target_degrees, t, nvars):
    """Monomial basis of the degree-t piece of a graded free module."""
    out = []
    for pos, d in enumerate(target_degrees):
        if t - d >= 0:
            out.extend((pos, m) for m in monomials_of_degree(nvars, t - d))
    return out


def vec_to_dense(vec, basis, p):
    index = {bm: i for i, bm in enumerate(basis)}
    dense = [0] * len(basis)
    for key, c in vec.items():
        if c % p:
            dense[index[key]] = c % p
    return dense


def multiples_in_degree(vecs, target_degrees, t, ctx):
    """Dense rows for every monomial multiple of each vec landing in degree t."""
    basis = degree_basis(target_degrees, t, ctx.nvars)
    rows = []
    for v in vecs:
        if not v:
            continue
        v = tuple_vec(ctx, v)
        (pos0, m0), c0 = next(iter(v.items()))
        vdeg = target_degrees[pos0] + mono_degree(m0)
        shift = t - vdeg
        if shift < 0:
            continue
        for mono in monomials_of_degree(ctx.nvars, shift):
            shifted = {(pos, mono_mul(m, mono)): c for (pos, m), c in v.items()}
            rows.append(vec_to_dense(shifted, basis, ctx.characteristic))
    return rows, basis


def membership_oracle(vecs, target, target_degrees, ctx):
    """Is the homogeneous sparse vec in the submodule generated by vecs?"""
    if not target:
        return True
    target = tuple_vec(ctx, target)
    (pos0, m0) = next(iter(target))
    t = target_degrees[pos0] + mono_degree(m0)
    rows, basis = multiples_in_degree(vecs, target_degrees, t, ctx)
    return in_span(vec_to_dense(target, basis, ctx.characteristic), rows,
                   ctx.characteristic)


def hilbert_oracle(gen_degrees, rel_vecs, ctx, t):
    """Dimension of the degree-t piece of coker(relations)."""
    rows, basis = multiples_in_degree(rel_vecs, gen_degrees, t, ctx)
    return len(basis) - rank_mod_p(rows, ctx.characteristic)


class QuotientPiece:
    """Degree-t piece of an FPModule, with reduction to quotient coordinates."""

    def __init__(self, module, t):
        self.p = module.ctx.characteristic
        self.ctx = module.ctx
        rows, self.basis = multiples_in_degree(
            module.relations.column_vecs(), module.gen_degrees, t, module.ctx)
        self.ech, self.piv = echelon_mod_p(rows, self.p) if rows else ([], [])
        self.free_cols = [i for i in range(len(self.basis))
                          if i not in self.piv]

    @property
    def dim(self):
        return len(self.free_cols)

    def coords(self, vec):
        """Quotient coordinates of a sparse free-module vec of this degree."""
        dense = vec_to_dense(vec, self.basis, self.p)
        red = reduce_mod_span(dense, self.ech, self.piv, self.p)
        return [red[i] for i in self.free_cols]

    def representative(self, j):
        """Sparse free-module vec representing the j-th quotient basis vector."""
        return {self.basis[self.free_cols[j]]: 1}


def hom_dimension_oracle(m, n, t):
    """dim_k of the degree-t piece of Hom(m, n), by brute force.

    Unknowns are quotient coordinates of the generator images; constraints
    say each relation of m maps to zero in n.
    """
    p = m.ctx.characteristic
    pieces = [QuotientPiece(n, d + t) for d in m.gen_degrees]
    offsets = [0]
    for q in pieces:
        offsets.append(offsets[-1] + q.dim)
    total = offsets[-1]
    if total == 0:
        return 0
    rows = []
    for rel in m.relations.column_vecs():
        if not rel:
            continue
        rel = tuple_vec(m.ctx, rel)
        (pos0, m0) = next(iter(rel))
        rel_deg = m.gen_degrees[pos0] + mono_degree(m0)
        out = QuotientPiece(n, rel_deg + t)
        cols = []
        for j, q in enumerate(pieces):
            for b in range(q.dim):
                image = {}
                rep = q.representative(b)
                for (pos, mono), c in rel.items():
                    if pos != j:
                        continue
                    for (npos, nm), nc in rep.items():
                        key = (npos, mono_mul(mono, nm))
                        image[key] = (image.get(key, 0) + c * nc) % p
                cols.append(out.coords(image))
        for i in range(out.dim):
            rows.append([col[i] for col in cols])
    if not rows:
        return total
    return total - rank_mod_p(rows, p)


def hom_k_dimension_oracle(m, n, t_range):
    return sum(hom_dimension_oracle(m, n, t) for t in t_range)


# -- homology of complexes of free modules, degreewise -----------------------

def free_map_dense(cols, source_degrees, target_degrees, t, ctx):
    """Dense degree-t matrix of a map of free modules given by poly columns."""
    src = degree_basis(source_degrees, t, ctx.nvars)
    tgt = degree_basis(target_degrees, t, ctx.nvars)
    index = {bm: i for i, bm in enumerate(tgt)}
    mat = []
    for pos, mono in src:
        col = [0] * len(tgt)
        for i, f in enumerate(cols[pos]):
            for fm, c in f.terms.items():
                col[index[(i, mono_mul(fm, mono))]] = c % ctx.characteristic
        mat.append(col)
    return mat, len(src), len(tgt)


def complex_homology_dim(degrees, maps, i, t, ctx):
    """dim_k H^i of a cochain complex of free modules in internal degree t.

    ``degrees[i]`` are the generator degrees of C^i; ``maps[i]`` are the
    polynomial columns of d^i: C^i -> C^{i+1} (column j = image of gen j).
    """
    p = ctx.characteristic
    dim_i = len(degree_basis(degrees[i], t, ctx.nvars))
    if i < len(maps):
        out_mat, _, _ = free_map_dense(maps[i], degrees[i], degrees[i + 1],
                                       t, ctx)
        rank_out = rank_mod_p(out_mat, p)
    else:
        rank_out = 0
    if i > 0:
        in_mat, _, _ = free_map_dense(maps[i - 1], degrees[i - 1], degrees[i],
                                      t, ctx)
        rank_in = rank_mod_p(in_mat, p)
    else:
        rank_in = 0
    return dim_i - rank_out - rank_in


# -- Koszul complex ----------------------------------------------------------

def koszul_complex(ctx):
    """Chain complex K_r -> ... -> K_0 resolving k; returns (degrees, maps).

    ``maps[i]`` are the polynomial columns of d: K_{i+1} -> K_i, so the data
    is indexed homologically; K_i has basis the i-subsets of the variables.
    """
    r = ctx.nvars
    subsets = [list(itertools.combinations(range(r), i)) for i in range(r + 1)]
    degrees = [tuple(i for _ in subsets[i]) for i in range(r + 1)]
    maps = []
    for i in range(r):
        index = {s: a for a, s in enumerate(subsets[i])}
        cols = []
        for s in subsets[i + 1]:
            col = [ctx.zero() for _ in subsets[i]]
            for a, v in enumerate(s):
                rest = tuple(w for w in s if w != v)
                sign = 1 if a % 2 == 0 else ctx.characteristic - 1
                col[index[rest]] = col[index[rest]] + ctx.constant(sign) * \
                    ctx.variable(ctx.variables[v])
            cols.append(col)
        maps.append(cols)
    return degrees, maps


def koszul_betti(r):
    return tuple(comb(r, i) for i in range(r + 1))


def koszul_ext_dims(ctx, max_internal_degree):
    """k-dimension of Ext^i(k, R) for each i, truncated by internal degree.

    Dualizes the Koszul complex into a cochain complex Hom(K_i, R) and takes
    degreewise homology.
    """
    r = ctx.nvars
    degrees, maps = koszul_complex(ctx)
    co_degrees = [tuple(-d for d in degrees[i]) for i in range(r + 1)]
    co_maps = []
    for i in range(r):
        cols = maps[i]
        # transpose: columns of Hom(K_i, R) -> Hom(K_{i+1}, R)
        n_src = len(co_degrees[i])
        n_tgt = len(co_degrees[i + 1])
        co_maps.append([[cols[b][a] for b in range(n_tgt)]
                        for a in range(n_src)])
    out = []
    for i in range(r + 1):
        total = 0
        for t in range(-r, max_internal_degree + 1):
            total += complex_homology_dim(co_degrees, co_maps, i, t, ctx)
        out.append(total)
    return out


def grade_oracle(module, max_internal_degree):
    """Least i with Ext^i(M, R) nonzero, computed from the engine's minimal
    resolution differentials by dense degreewise homology (independent of the
    engine's own Hom/Ext machinery)."""
    from ncres.modules import minimal_resolution
    ctx = module.ctx
    r = ctx.nvars
    res = minimal_resolution(module, r + 1)
    degrees = [tuple(-d for d in res.min_module.gen_degrees)]
    co_maps = []
    for d in res.maps:
        degrees.append(tuple(-x for x in d.source_degrees))
        co_maps.append([[d.cols[b][a] for b in range(d.source_rank)]
                        for a in range(d.target_rank)])
    for i in range(len(degrees)):
        lo = min(degrees[i]) if degrees[i] else 0
        for t in range(lo, max_internal_degree + 1):
            if complex_homology_dim(degrees, co_maps, i, t, ctx):
                return i
    return None


# -- replaced engine code, kept as a reference --------------------------------

def minimal_presentation_reference(m):
    """(relations, rho, iota) of ``modules.minimal_presentation`` by the
    generator-at-a-time loop it replaced: each pass finds the first column
    with a constant entry, eliminates the generator at its lowest position,
    and composes the whole relation matrix, rho and iota again.  The
    relation columns are then trimmed by the engine's own ``_trim_columns``;
    nothing is cached."""
    from ncres.groebner import FreeModuleMap, is_constant, term_pos
    from ncres.modules import _trim_columns
    ctx = m.ctx
    p = ctx.characteristic
    zero = (0,) * ctx.nvars
    gens = m.gen_degrees
    rel = m.relations
    rho = FreeModuleMap.identity(ctx, gens)
    iota = FreeModuleMap.identity(ctx, gens)
    while True:
        # the first constant entry of the first column that has one
        for col in rel.column_vecs():
            units = [term_pos(ctx, t) for t in col if is_constant(ctx, t)]
            if units:
                break
        else:
            break
        i = min(units)
        uinv = ctx.inv(col[term(ctx, i, zero)])
        keep = [i2 for i2 in range(len(gens)) if i2 != i]
        new = {i2: n for n, i2 in enumerate(keep)}
        newgens = tuple(gens[i2] for i2 in keep)
        # g_i = -u^{-1} * sum_{i' != i} col[i'] g_{i'}: the substitution old
        # cover -> new cover, and the inclusion new cover -> old cover
        expr = {}
        for t, c in col.items():
            i2, mono = split_term(ctx, t)
            if i2 != i:
                expr[term(ctx, new[i2], mono)] = (-uinv * c) % p
        sub = FreeModuleMap.from_vecs(
            ctx, [expr if i2 == i else {term(ctx, new[i2], zero): 1}
                  for i2 in range(len(gens))], newgens, gens)
        inc = FreeModuleMap.from_vecs(
            ctx, [{term(ctx, i2, zero): 1} for i2 in keep], gens, newgens)
        # the column used becomes zero; _trim_columns drops zero columns
        rel = sub.compose(rel)
        gens = newgens
        rho = sub.compose(rho)
        iota = iota.compose(inc)
    return _trim_columns(rel), rho, iota
