import pytest

from conftest import residue_field
from ncres import groebner
from ncres.ring import AlgebraError
from ncres.modules import FPModule, direct_sum, free_module, syzygy
from ncres.ncr import (DEPTH_EXHAUSTED, HYPOTHESIS_FAILED, NCRHypotheses,
                       VERIFIED, Verdict, check_theorem_part1, corollary_build,
                       normalize_cs, theorem_bound, verify_claim1,
                       verify_exact2)


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
    """``map_rank`` is the rank of constant rows, grown by ``add``: no
    ``buchberger_vecs`` run in ``verify_claim1`` is given only constant
    (degree-0, plain) vectors."""
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


def test_verify_exact2_depth_exhaustion(ctx3):
    R = free_module(ctx3)
    k = residue_field(ctx3)
    # omega^1 k over r = 3 needs two approximation steps against add R
    v = verify_exact2(NCRHypotheses(M=R, X=k, c=1, d=3,
                                    gldim_end_M=3, gldim_end_X=0), 1)
    assert v.status == DEPTH_EXHAUSTED


def test_corollary_build_r2(ctx2):
    k = residue_field(ctx2)
    rep = corollary_build(2, k, (1,), 0)
    assert rep.bound == 5
    assert rep.closed_form == 5
    assert rep.all_verified()
    assert [v.status for v in rep.hypothesis_results] == [VERIFIED]


def test_corollary_build_deduplicates(ctx2):
    k = residue_field(ctx2)
    assert corollary_build(2, k, (1, 1), 0).bound == 5


def test_corollary_build_rejects_bad_input(ctx2):
    k = residue_field(ctx2)
    with pytest.raises(AlgebraError):
        corollary_build(3, k, (1,), 0)          # r mismatch
    with pytest.raises(AlgebraError):
        corollary_build(2, k, (2,), 0)          # c >= r
    with pytest.raises(AlgebraError):
        corollary_build(2, free_module(ctx2), (1,), 0)  # not finite length


def test_corollary_trace_records_summands(ctx2):
    k = residue_field(ctx2)
    rep = corollary_build(2, k, (1,), 0)
    assert rep.trace[0]["step"] == 0
    assert rep.trace[1]["verdict"] == VERIFIED
