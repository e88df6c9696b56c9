import itertools

import pytest

from conftest import residue_field, square_quotient
from oracles import rank_mod_p, tuple_vec
from ncres import groebner, homalg, ncr
from ncres.ring import AlgebraError, RingContext
from ncres.groebner import FreeModuleMap, term
from ncres.modules import (FPModule, ModuleMorphism, direct_sum, free_module,
                           make_module, syzygy)
from ncres.homalg import (LiftExactnessVerdict, _unjoined, factor_ideal,
                          hom_module)
from ncres.ncr import (DEPTH_EXHAUSTED, HYPOTHESIS_FAILED, NCRHypotheses,
                       VERIFIED, Verdict, check_theorem_part1, corollary_build,
                       normalize_cs, theorem_bound, verify_claim1,
                       verify_exact2, verify_lemmas)


def test_theorem_bound_values():
    # [PAPER] gldim End(M + Omega^c X) <= 2 gldim End(M) + gldim End(X) + 1
    assert theorem_bound(2, 0) == 5
    assert theorem_bound(0, 0) == 1
    assert theorem_bound(7, 0) == 15
    with pytest.raises(AlgebraError):
        theorem_bound(-1, 0)


def test_normalize_cs():
    assert normalize_cs([1, 2, 1]) == (2, 1)
    assert normalize_cs((1,)) == (1,)


def test_verdict_validation():
    v = Verdict(status=VERIFIED, evidence={})
    assert v.ok
    assert not Verdict(status=HYPOTHESIS_FAILED, evidence={}).ok
    assert not Verdict(status=DEPTH_EXHAUSTED, evidence={}).ok
    with pytest.raises(AlgebraError):
        Verdict(status="maybe", evidence={})


def test_hypotheses_validate(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    good = NCRHypotheses(M=R, X=k, c=1, d=2, gldim_end_M=2, gldim_end_X=0)
    assert good.validate().ok
    # c must stay below min(d, grade X)
    bad = NCRHypotheses(M=R, X=k, c=2, d=2, gldim_end_M=2, gldim_end_X=0)
    v = bad.validate()
    assert v.status == HYPOTHESIS_FAILED
    assert v.evidence["problems"]
    # M must be a generator
    notgen = NCRHypotheses(M=k, X=k, c=1, d=2, gldim_end_M=0, gldim_end_X=0)
    assert not notgen.validate().ok


def test_check_theorem_part1(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    h = NCRHypotheses(M=R, X=k, c=1, d=2, gldim_end_M=2, gldim_end_X=0)
    v = check_theorem_part1(h)
    assert v.ok
    assert v.evidence["sum_is_generator"]
    assert v.evidence["sum_is_c_torsionfree"]


def test_check_theorem_part1_passes_a_failed_hypothesis_on(ctx2):
    """With M = k the hypotheses fail, and part 1 returns that verdict as
    validate gives it, without testing the sum."""
    k = residue_field(ctx2)
    h = NCRHypotheses(M=k, X=k, c=1, d=2, gldim_end_M=0, gldim_end_X=0)
    v, base = check_theorem_part1(h), h.validate()
    assert v.status == base.status == HYPOTHESIS_FAILED
    assert v.evidence == base.evidence
    assert "M is not a generator" in v.evidence["problems"]
    assert "sum_is_generator" not in v.evidence


def test_verify_claim1_small(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    v = verify_claim1(NCRHypotheses(M=R, X=k, c=1, d=2,
                                    gldim_end_M=2, gldim_end_X=0))
    assert v.ok
    assert v.evidence["D1"] == v.evidence["D2"] == v.evidence["map_rank"] == 1
    assert v.evidence["factor_ideal_equals_free_ideal"]


def test_verify_claim1_rank_runs_no_buchberger_on_constants(ctx2, ctx3,
                                                            monkeypatch):
    """``map_rank`` is D1 less the length of the cokernel of the transported
    generators, and a zero cokernel is found by graded Nakayama, on constant
    vectors grown by ``add``: no ``buchberger_vecs`` run in
    ``verify_claim1`` is given only constant (degree-0, plain) vectors."""
    real = groebner.buchberger_vecs
    constant = []

    def counting(vecs, ctx):
        vecs = list(vecs)
        lay = groebner._layout(ctx)
        if any(vecs) and all(groebner.is_constant(ctx, t) and t < lay.elim_min
                             for v in vecs for t in v):
            constant.append(vecs)
        return real(vecs, ctx)

    monkeypatch.setattr(groebner, "buchberger_vecs", counting)
    for ctx, c in ((ctx2, 1), (ctx3, 1), (ctx3, 2)):
        v = verify_claim1(NCRHypotheses(
            M=free_module(ctx), X=residue_field(ctx), c=c, d=ctx.nvars,
            gldim_end_M=ctx.nvars, gldim_end_X=0))
        assert v.ok and v.evidence["map_rank"] == 1
    assert constant == []


def _monomial_module(ctx, gens, monos):
    """A module presented by monomial relations: (position, exponents)."""
    vecs = [{term(ctx, pos, m): 1} for pos, m in monos]
    return make_module(gens, FreeModuleMap.from_vecs(ctx, vecs, gens), ctx)


def _claim1_X(ctx3, name):
    """The finite-length X of the claim-1 oracle tests, over x, y, z."""
    if name == "R/m2":
        return square_quotient(ctx3)
    if name == "R/(x2,y2,z2)":
        return _monomial_module(ctx3, (0,), [(0, (2, 0, 0)), (0, (0, 2, 0)),
                                             (0, (0, 0, 2))])
    # R/(x, y^2, z^2) + k(-1)
    return _monomial_module(ctx3, (0, 1), [
        (0, (1, 0, 0)), (0, (0, 2, 0)), (0, (0, 0, 2)),
        (1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))])


def _claim1_M(ctx3, name):
    """(M, d): M = R, or M = R + Omega^2 k built as a direct sum."""
    R = free_module(ctx3)
    if name == "R":
        return R, 3
    return direct_sum(R, syzygy(residue_field(ctx3), 2)), 2


def _claim1_rank_by_basis(h):
    """The k-rank of End(X) -> End(Omega^c X)/[M], one k-basis element of
    End(X) at a time: every monomial of the box below the pure powers of
    the leading terms of End(X) that no leading term divides, realized
    through the Hom generators, transported through Omega^c and reduced in
    the quotient; the rank of the reduced rows by dense elimination."""
    ctx = h.X.ctx
    Z = syzygy(h.X, h.c)
    end_z = hom_module(Z, Z)
    Q = factor_ideal(Z, h.M, end=end_z)
    end_x = hom_module(h.X, h.X)
    EX = end_x.module
    rows = []
    for pos, lts in enumerate(EX._position_lts()):
        bounds = [min(g[v] for g in lts
                      if all(e == 0 for w, e in enumerate(g) if w != v))
                  for v in range(ctx.nvars)]
        for mono in itertools.product(*map(range, bounds)):
            if any(all(a <= b for a, b in zip(g, mono)) for g in lts):
                continue
            deg = EX.gen_degrees[pos] + sum(mono)
            elem = FreeModuleMap.from_vecs(
                ctx, [{term(ctx, pos, mono): 1}], EX.gen_degrees, (deg,))
            phi = _unjoined(end_x._incl.compose(elem).column_vec(0),
                            h.X, h.X, deg)
            psi = ncr.omega_power_on_morphism(phi, h.c)
            rows.append(tuple_vec(ctx, Q.rel_gb().normal_form_vec(
                end_z.coords_of_morphism(psi))))
    keys = sorted(set().union(*rows))
    dense = [[row.get(key, 0) for key in keys] for row in rows]
    return rank_mod_p(dense, ctx.characteristic) if keys else 0


CLAIM1_CASES = [(x, m, c) for x in ("R/m2", "R/(x2,y2,z2)", "R/(x,y2,z2)+k(-1)")
                for m, cs in (("R", (0, 1, 2)), ("R+O2", (0, 1)))
                for c in cs]


@pytest.mark.parametrize("x_name, m_name, c", CLAIM1_CASES)
def test_verify_claim1_map_rank_matches_basis_oracle(ctx3, x_name, m_name,
                                                     c):
    """Claim 1 for X other than k, every allowed c: D1 = D2 = map_rank
    (4, 8 and 7), and the rank read off generators equals the rank over a
    k-basis of End(X), which needs no R-linearity of the transport."""
    M, d = _claim1_M(ctx3, m_name)
    h = NCRHypotheses(M=M, X=_claim1_X(ctx3, x_name), c=c, d=d,
                      gldim_end_M=0, gldim_end_X=0)
    v = verify_claim1(h)
    want = {"R/m2": 4, "R/(x2,y2,z2)": 8, "R/(x,y2,z2)+k(-1)": 7}[x_name]
    assert v.ok
    assert v.evidence["D1"] == v.evidence["D2"] == want
    assert v.evidence["map_rank"] == want == _claim1_rank_by_basis(h)


def _zero_transport(phi, c):
    Z = syzygy(phi.source, c)
    return ModuleMorphism.zero(Z, Z, phi.degree)


def _times_x_transport(phi, c, real=ncr.omega_power_on_morphism):
    psi = real(phi, c)
    Z, ctx = psi.target, psi.ctx
    x = (1,) + (0,) * (ctx.nvars - 1)
    mat = FreeModuleMap.from_vecs(
        ctx, [{term(ctx, i, x): 1} for i in range(Z.rank)], Z.gen_degrees,
        tuple(e + 1 for e in Z.gen_degrees))
    return ModuleMorphism(Z, Z, mat, degree=1).compose(psi)


@pytest.mark.parametrize("mutant, x_name, rank", [
    (_zero_transport, "k", 0), (_zero_transport, "R/m2", 0),
    (_times_x_transport, "R/m2", 1)], ids=["zero-k", "zero-Rm2", "x-Rm2"])
def test_verify_claim1_catches_a_broken_transport(ctx3, monkeypatch, mutant,
                                                  x_name, rank):
    """A transport that sends every endomorphism to zero, or multiplies it
    by x, is no bijection: a falsification with the rank such a map has."""
    X = (residue_field(ctx3) if x_name == "k" else square_quotient(ctx3))
    monkeypatch.setattr(ncr, "omega_power_on_morphism", mutant)
    v = verify_claim1(NCRHypotheses(M=free_module(ctx3), X=X, c=1, d=3,
                                    gldim_end_M=0, gldim_end_X=0))
    assert v.evidence["map_rank"] == rank
    assert v.status == HYPOTHESIS_FAILED
    assert v.evidence["falsification"] is True


def test_verify_claim1_degenerate_c0(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    v = verify_claim1(NCRHypotheses(M=R, X=k, c=0, d=2,
                                    gldim_end_M=2, gldim_end_X=0))
    assert v.ok


def test_verify_claim1_reports_bad_hypotheses(ctx2):
    k = residue_field(ctx2)
    v = verify_claim1(NCRHypotheses(M=k, X=k, c=1, d=2,
                                    gldim_end_M=0, gldim_end_X=0))
    assert v.status == HYPOTHESIS_FAILED


def test_verify_exact2_small(ctx2):
    R = free_module(ctx2)
    k = residue_field(ctx2)
    v = verify_exact2(NCRHypotheses(M=R, X=k, c=1, d=2,
                                    gldim_end_M=2, gldim_end_X=0), 3)
    assert v.ok
    assert v.evidence["cokernel_dimension"] == \
        v.evidence["quotient_dimension"] == 1
    assert v.evidence["left_injective"]
    assert all(v.evidence["interior_exact"])
    assert all(v.evidence["stable_hom_vanishing"])


def test_verify_exact2_zero_syzygy_needs_no_step(ctx2):
    # X = 0 is the only way Omega^c X is zero: no add-M step is taken, and
    # both dimensions are 0
    v = verify_exact2(NCRHypotheses(M=free_module(ctx2),
                                    X=FPModule(ctx2, (), None), c=1, d=2,
                                    gldim_end_M=2, gldim_end_X=0), 2)
    assert v.ok
    assert v.evidence["depth_used"] == 0
    assert v.evidence["quotient_dimension"] == \
        v.evidence["cokernel_dimension"] == 0


def test_verify_lemmas_fails_on_an_inexact_lift_check(ctx2, monkeypatch):
    """A lift check whose hypothesis holds while its Hom sequence is not
    exact fails its item, and the verdict is a falsification; the
    stable-Hom items are untouched."""
    v = verify_lemmas(ctx2)
    assert v.ok and "falsification" not in v.evidence
    monkeypatch.setattr(ncr, "check_lift_exactness",
                        lambda ses, w: LiftExactnessVerdict(True, False))
    v = verify_lemmas(ctx2)
    assert v.status == HYPOTHESIS_FAILED and v.evidence["falsification"]
    statuses = {(it["check"].split()[0], it["status"])
                for it in v.evidence["items"]}
    assert statuses == {("stable-hom", VERIFIED),
                        ("lift-exactness", HYPOTHESIS_FAILED)}


def test_verify_exact2_depth_exhaustion(ctx3):
    R = free_module(ctx3)
    k = residue_field(ctx3)
    # omega^1 k over r = 3 needs two approximation steps against add R
    v = verify_exact2(NCRHypotheses(M=R, X=k, c=1, d=3,
                                    gldim_end_M=3, gldim_end_X=0), 1)
    assert v.status == DEPTH_EXHAUSTED


def test_verify_exact2_reads_the_summands_that_direct_sum_records(ctx3):
    """M = R + Omega k + Omega^2 k built by direct_sum, X = k, c = 0, d = 1:
    validate and the add-M resolution both read M through the summands it
    records, so M is not refused as decomposing beyond its free summands."""
    R, k = free_module(ctx3), residue_field(ctx3)
    M = direct_sum(R, syzygy(k, 1), syzygy(k, 2))
    v = verify_exact2(NCRHypotheses(M=M, X=k, c=0, d=1,
                                    gldim_end_M=0, gldim_end_X=0), 4)
    assert v.ok
    assert v.evidence["kernel_ranks"] == [1, 8, 13, 6]


def test_corollary_build_r2(ctx2):
    k = residue_field(ctx2)
    rep = corollary_build(k, (1,), 0)
    assert rep.bound == 5
    assert rep.closed_form == 5
    assert rep.all_verified()
    assert [v.status for v in rep.hypothesis_results] == [VERIFIED]


def test_corollary_build_deduplicates(ctx2):
    k = residue_field(ctx2)
    assert corollary_build(k, (1, 1), 0).bound == 5


def test_corollary_build_rejects_bad_input(ctx2):
    k = residue_field(ctx2)
    with pytest.raises(AlgebraError):
        corollary_build(k, (2,), 0)          # c >= r
    with pytest.raises(AlgebraError):
        corollary_build(free_module(ctx2), (1,), 0)  # not finite length


def test_corollary_trace_records_summands(ctx2):
    k = residue_field(ctx2)
    rep = corollary_build(k, (1,), 0)
    assert rep.trace[0]["step"] == 0
    assert rep.trace[1]["verdict"] == VERIFIED


def test_build_transposes_each_distinct_summand_once(monkeypatch):
    """build over r = 4 with cs = [3, 2, 1] checks each step's sum, and the
    hypotheses on the sum before it, on the summands: the torsionfree test
    transposes Omega^3 k, Omega^2 k and Omega^1 k once each, never a sum,
    and never the free summand R."""
    ctx = RingContext(32003, ("a", "b", "c", "d"))
    transposed = []
    real = homalg.transpose

    def counting(m):
        transposed.append(m)
        return real(m)

    monkeypatch.setattr(homalg, "transpose", counting)
    rep = corollary_build(residue_field(ctx), (3, 2, 1), 0)
    assert rep.all_verified()
    assert len({id(m) for m in transposed}) == len(transposed)
    assert sorted(m.rank for m in transposed) == [4, 4, 6]
