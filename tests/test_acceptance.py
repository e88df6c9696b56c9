"""Acceptance suite: the ten release criteria, one pass/fail line each.

Each test prints ``[acceptance N] <name>: PASS`` (or FAIL) so the -v output
doubles as the acceptance report.  All checks are exact; no tolerances.
"""

import os
import random
import subprocess
import sys

from conftest import maximal_ideal, module_family, residue_field, square_quotient
from oracles import (grade_oracle, hom_k_dimension_oracle, koszul_betti,
                     koszul_ext_dims, membership_oracle, monomials_of_degree)
from test_homalg import run_lift_exactness_harness
from ncres.ring import RingContext
from ncres.groebner import term
from ncres.modules import (direct_sum, free_module, minimal_resolution,
                           syzygy)
from ncres.homalg import (ext, grade, hom_module, is_d_torsionfree,
                          stable_hom)
from ncres.ncr import NCRHypotheses, corollary_build, verify_claim1, \
    verify_exact2
from ncres.cli import TIMING_MARK, parse_job, run_job


def report(n, name, ok):
    print(f"[acceptance {n}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {n} ({name}) failed"


def contexts():
    return [RingContext(101, ("x", "y", "z")[:r]) for r in (1, 2, 3)]


def test_acceptance_01_koszul_oracle():
    ok = True
    for ctx in contexts():
        r = ctx.nvars
        k = residue_field(ctx)
        ok = ok and minimal_resolution(k, r + 1).betti == koszul_betti(r)
        top = syzygy(k, r)
        ok = ok and top.rank == 1 and top.relations.source_rank == 0
        ok = ok and syzygy(k, r + 1).is_zero()
    report(1, "Koszul Betti numbers and top syzygy", ok)


def test_acceptance_02_grade_two_ways():
    ok = True
    for ctx in contexts():
        r = ctx.nvars
        k = residue_field(ctx)
        ok = ok and grade(k) == r
        # independent Koszul-complex computation of Ext^i(k, R)
        dims = koszul_ext_dims(ctx, r + 2)
        ok = ok and next(i for i, d in enumerate(dims) if d) == grade(k)
        ok = ok and grade(free_module(ctx)) == 0
        ok = ok and grade_oracle(free_module(ctx), 3) == 0
    ctx2 = RingContext(101, ("x", "y"))
    m2 = square_quotient(ctx2)
    ok = ok and grade(m2) == 2 == grade_oracle(m2, 5)
    report(2, "grade via Ext, resolution vs Koszul oracle", ok)


def test_acceptance_03_torsionfree_ladder():
    ctx2 = RingContext(101, ("x", "y"))
    ctx3 = RingContext(101, ("x", "y", "z"))
    m = maximal_ideal(ctx2)
    o2 = syzygy(residue_field(ctx3), 2)
    ok = (is_d_torsionfree(m, 1) and not is_d_torsionfree(m, 2)
          and is_d_torsionfree(o2, 2))
    report(3, "torsionfree ladder and reflexivity", ok)


def test_acceptance_04_lemma2_sweep():
    ok = True
    for ctx in contexts()[1:]:
        r = ctx.nvars
        k = residue_field(ctx)
        for c in range(r):
            for n in range(1, r - c + 1):
                sh = stable_hom(syzygy(k, c), syzygy(k, c + n))
                ok = ok and sh.quotient.is_zero()
        # bijectivity of the syzygy action on stable End below the grade
        for c in range(1, r):
            v = verify_claim1(NCRHypotheses(
                M=free_module(ctx), X=k, c=c, d=r,
                gldim_end_M=r, gldim_end_X=0))
            ok = ok and v.ok and v.evidence["bijective"]
    report(4, "stable Hom vanishing sweep and syzygy bijection", ok)


def test_acceptance_05_lemma1_harness():
    hyp_cases, failures = run_lift_exactness_harness(seed=2024,
                                                     min_hypothesis_cases=20)
    ok = hyp_cases >= 20 and not failures
    report(5, f"Hom-exactness harness ({hyp_cases} cases, "
              f"{len(failures)} failures)", ok)


def _scenarios():
    ctx2 = RingContext(101, ("x", "y"))
    ctx3 = RingContext(101, ("x", "y", "z"))
    k2, k3 = residue_field(ctx2), residue_field(ctx3)
    R2, R3 = free_module(ctx2), free_module(ctx3)
    o2 = syzygy(k3, 2)
    M3 = direct_sum(R3, o2)
    return [
        NCRHypotheses(M=R2, X=k2, c=1, d=2, gldim_end_M=2, gldim_end_X=0),
        NCRHypotheses(M=R3, X=k3, c=1, d=3, gldim_end_M=3, gldim_end_X=0),
        NCRHypotheses(M=R3, X=k3, c=2, d=3, gldim_end_M=3, gldim_end_X=0),
        NCRHypotheses(M=M3, X=k3, c=1, d=2, gldim_end_M=7, gldim_end_X=0,
                      summands=(R3, o2)),
    ]


def test_acceptance_06_claim1():
    ok = True
    for h in _scenarios():
        v = verify_claim1(h)
        ok = ok and v.ok and v.evidence["D1"] == 1 and v.evidence["D2"] == 1
    report(6, "stable-endomorphism comparison (D1 = D2 = 1)", ok)


def test_acceptance_07_exact_sequence():
    ok = True
    for h in _scenarios():
        v = verify_exact2(h, 4)
        ok = ok and v.status == "verified"
    report(7, "induced Hom sequence exactness at depth <= 4", ok)


def test_acceptance_08_corollary_bounds():
    ctx2 = RingContext(101, ("x", "y"))
    ctx3 = RingContext(101, ("x", "y", "z"))
    rep2 = corollary_build(residue_field(ctx2), (1,), 0)
    rep3 = corollary_build(residue_field(ctx3), (2, 1), 0)
    ok = (rep2.bound == 5 == rep2.closed_form and rep2.all_verified()
          and rep3.bound == 15 == rep3.closed_form and rep3.all_verified())
    report(8, "global dimension bounds 5 and 15", ok)


def test_acceptance_09_engine_cross_validation():
    rng = random.Random(99)
    ok = True
    # Groebner membership vs dense linear algebra, degree <= 6
    for ctx in contexts():
        for name, m in module_family(ctx).items():
            vecs = m.relations.column_vecs()
            gb = m.rel_gb()
            for _ in range(8):
                d = rng.randrange(1, 7)
                pos = rng.randrange(m.rank)
                if d - m.gen_degrees[pos] < 0:
                    continue
                probe = {term(ctx, pos, mono): rng.randrange(101)
                         for mono in monomials_of_degree(
                             ctx.nvars, d - m.gen_degrees[pos])}
                probe = {key: c for key, c in probe.items() if c}
                ok = ok and gb.contains_vec(probe) == \
                    membership_oracle(vecs, probe, m.gen_degrees, ctx)
    # Hom and Ext dimensions vs degree-truncated brute force, >= 5 instances
    ctx2, ctx3 = contexts()[1], contexts()[2]
    fam2, fam3 = module_family(ctx2), module_family(ctx3)
    pairs = [(fam2["k"], fam2["k"]), (fam2["k"], fam2["R/m2"]),
             (fam2["R/m2"], fam2["k"]), (fam2["R/m2"], fam2["R/m2"]),
             (fam3["k"], fam3["R/m2"])]
    for m, n in pairs:
        ok = ok and hom_module(m, n).module.k_dimension() == \
            hom_k_dimension_oracle(m, n, range(-4, 5))
    for ctx in contexts():
        k = residue_field(ctx)
        dims = [ext(i, k, free_module(ctx)).k_dimension()
                for i in range(ctx.nvars + 1)]
        ok = ok and dims == koszul_ext_dims(ctx, ctx.nvars + 2)
    report(9, "Groebner/Hom/Ext vs dense oracles", ok)


def test_acceptance_10_determinism(tmp_path):
    jobs = {
        "grade": ("ring: {char: 101, vars: [x, y]}\n"
                  "module k: {gens: [0], relations: [[x], [y]]}\n"
                  "command: grade\nmodule: k\n"),
        "claim1": ("ring: {char: 101, vars: [x, y]}\n"
                   "module k: {gens: [0], relations: [[x], [y]]}\n"
                   "module R: {gens: [0], relations: []}\n"
                   "command: verify-claim1\nM: R\nX: k\nc: 1\nd: 2\n"
                   "gldim_end_M: 2\ngldim_end_X: 0\n"),
        "lemmas": ("ring: {char: 101, vars: [x, y]}\ncommand: verify-lemmas\n"),
    }
    ok = True
    for name, doc in jobs.items():
        can1, _, _ = run_job(parse_job(doc))
        can2, _, _ = run_job(parse_job(doc))
        ok = ok and can1 == can2
        # across processes with different hash seeds
        path = tmp_path / f"{name}.yml"
        path.write_text(doc)
        outs = []
        for seed in ("1", "97"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "ncres.cli", "--job", str(path)],
                capture_output=True, text=True, env=env)
            outs.append(proc.stdout.split(TIMING_MARK)[0])
        ok = ok and outs[0] == outs[1]
        ok = ok and outs[0].strip() == can1.strip()
    report(10, "byte-identical canonical reports", ok)
