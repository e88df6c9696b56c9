"""Hypothesis checks, bound certificates and mechanical verification of the
main construction: the torsionfree-generator statement, the endomorphism-ring
comparison (claim 1), the induced Hom complex (exact2), the syzygy lemmas,
and the inductive build over a finite-length module with its
global-dimension bound.  Every verdict is concluded here."""

from __future__ import annotations

from typing import NamedTuple

from .ring import AlgebraError, EngineError, RingContext
from .groebner import FreeModuleMap
from .modules import (FPModule, ModuleMorphism, INFINITE, _quotient,
                      cokernel, direct_sum, free_module, homology, kernel,
                      minimal_resolution, syzygy)
from .homalg import (add_M_resolution, check_lift_exactness, factor_ideal,
                     grade, hom_module, induced_post_hom, is_d_torsionfree,
                     is_generator, omega_power_on_morphism, stable_hom)

ENGINE_VERSION = "0.1.0"

VERIFIED = "verified"
HYPOTHESIS_FAILED = "hypothesis-failed"
DEPTH_EXHAUSTED = "depth-exhausted"
STATUSES = (VERIFIED, HYPOTHESIS_FAILED, DEPTH_EXHAUSTED)


class Verdict:
    """Outcome of one verification item, with its supporting evidence."""

    def __init__(self, status: str, evidence: dict):
        if status not in STATUSES:
            raise AlgebraError(f"unknown verdict status {status!r}")
        self.status = status
        self.evidence = evidence

    @property
    def ok(self) -> bool:
        return self.status == VERIFIED


class NCRHypotheses(NamedTuple):
    """Input data for the main construction.

    The gldim values are asserted, caller-supplied integers; they are never
    computed here.  An M built by ``direct_sum`` is checked summand by
    summand.  The add-M machinery splits free summands off and drops
    repeated ones itself, so M needs to be built as a sum only when its
    non-free part decomposes.
    """

    M: FPModule
    X: FPModule
    c: int
    d: int
    gldim_end_M: int
    gldim_end_X: int

    def validate(self) -> Verdict:
        """Check the hypothesis clause; hypothesis-failed lists violations."""
        problems = []
        if not is_generator(self.M):
            problems.append("M is not a generator")
        if self.d >= 1 and not is_d_torsionfree(self.M, self.d):
            problems.append(f"M is not {self.d}-torsionfree")
        gx = grade(self.X)
        if not (0 <= self.c and self.c < min(self.d, gx)):
            problems.append(
                f"c = {self.c} outside [0, min(d = {self.d}, "
                f"grade X = {gx}))")
        evidence = {"grade_X": gx, "problems": problems}
        if problems:
            return Verdict(HYPOTHESIS_FAILED, evidence)
        return Verdict(VERIFIED, evidence)


def _conclude(base: Verdict, ok: bool, found: dict) -> Verdict:
    """Verdict of a check run on hypotheses that hold: the evidence of
    ``base`` and ``found``; verified when ``ok``, and otherwise
    hypothesis-failed as a falsification of the claim checked."""
    evidence = {**base.evidence, **found}
    if not ok:
        evidence["falsification"] = True
    return Verdict(VERIFIED if ok else HYPOTHESIS_FAILED, evidence)


def check_theorem_part1(h: NCRHypotheses) -> Verdict:
    """M + Omega^c X is a c-torsionfree generator, checked per summand."""
    base = h.validate()
    if not base.ok:
        return base
    W = direct_sum(h.M, syzygy(h.X, h.c))
    gen = is_generator(W)
    tf = h.c < 1 or is_d_torsionfree(W, h.c)
    return _conclude(base, gen and tf, {
        "sum_is_generator": gen, "sum_is_c_torsionfree": tf, "c": h.c})


def theorem_bound(gM: int, gX: int) -> int:
    """Global dimension bound 2 gldim End(M) + gldim End(X) + 1."""
    if gM < 0 or gX < 0:
        raise AlgebraError("gldim arguments must be >= 0")
    return 2 * gM + gX + 1


def _require_finite_length(module: FPModule, name: str):
    """The k-dimension of ``module``, refused when it is infinite."""
    kd = module.k_dimension()
    if kd is INFINITE:
        raise AlgebraError(f"{name} must have finite length")
    return kd


def verify_claim1(h: NCRHypotheses) -> Verdict:
    """End(X) = End(Omega^c X)/[M] via Phi(phi) = [Omega^c phi].

    Phi is R-linear and keeps degrees: two chain lifts of phi differ on
    syzygies by a map through a free module, which lies in [R], inside [M]
    since M is a generator.  So the image of Phi is the R-span of the
    images of the minimal generators of End(X), and the k-rank of Phi is
    D1 minus the length of the cokernel, whose vanishing is a graded
    Nakayama test.
    """
    _require_finite_length(h.X, "X")
    base = h.validate()
    if not base.ok:
        return base
    ctx = h.X.ctx
    Z = syzygy(h.X, h.c)
    end_z = hom_module(Z, Z)
    Q = factor_ideal(Z, h.M, end=end_z)
    D1 = Q.k_dimension()
    end_x = hom_module(h.X, h.X)
    D2 = end_x.module.k_dimension()
    if D1 is INFINITE or D2 is INFINITE:
        raise AlgebraError("endomorphism quotients must have finite length")
    # the proof's intermediate step: morphisms through add M factor through
    # frees, so [M] and [R] agree inside End(Omega^c X); for a fixed order
    # the reduced monic basis of a submodule is unique
    Q_R = factor_ideal(Z, free_module(ctx), end=end_z)
    intermediate = Q.rel_gb().generators == Q_R.rel_gb().generators
    cols = end_z.coords_map(omega_power_on_morphism(phi, h.c)
                            for phi in end_x.minimal_morphisms)
    coker = _quotient(Q, cols)
    rank = D1 - (0 if coker.is_zero() else coker.k_dimension())
    bijective = (rank == D1 == D2)
    return _conclude(base, bijective and intermediate, {
        "D1": D1, "D2": D2, "map_rank": rank, "bijective": bijective,
        "factor_ideal_equals_free_ideal": intermediate})


def verify_exact2(h: NCRHypotheses, depth: int) -> Verdict:
    """Exactness of Hom(Omega^c X, add-M resolution) and the cokernel match."""
    if depth < 1:
        raise AlgebraError("depth must be >= 1")
    _require_finite_length(h.X, "X")
    base = h.validate()
    if not base.ok:
        return base
    Z = syzygy(h.X, h.c)
    amr = add_M_resolution(Z, h.M, depth)
    kernel_ranks = [K.rank for K in amr.modules]
    if not amr.terminated:
        return Verdict(DEPTH_EXHAUSTED,
                       {"depth": depth, "kernel_ranks": kernel_ranks})
    n = amr.depth
    HZ = hom_module(Z, Z)
    D1 = factor_ideal(Z, h.M, end=HZ).k_dimension()
    if n == 0:
        # the first add-M step is always taken, so only a zero Omega^c X
        # ends here, and every Hom module of the sequence is zero
        interior, left, Dcok, vanishing = [], True, 0, []
    else:
        hom_mods = [HZ] + [hom_module(Z, ev.source)
                           for ev in amr.approximations]
        maps = [induced_post_hom(amr.approximations[0], hom_mods[1], HZ)]
        for i in range(1, n):
            maps.append(induced_post_hom(amr.connecting_map(i),
                                         hom_mods[i + 1], hom_mods[i]))
        stable = [stable_hom(Z, amr.modules[i]) for i in range(1, n + 1)]
        maps.append(induced_post_hom(amr.inclusions[n - 1], stable[-1].total,
                                     hom_mods[n]))
        interior = [homology(maps[i], maps[i + 1]).is_zero()
                    for i in range(n)]
        left = kernel(maps[n]).is_zero()
        Dcok = cokernel(maps[0]).k_dimension()
        vanishing = [sh.quotient.is_zero() for sh in stable]
    return _conclude(
        base, all(interior) and left and Dcok == D1 and all(vanishing),
        {"depth_used": n, "kernel_ranks": kernel_ranks,
         "quotient_dimension": D1, "cokernel_dimension": Dcok,
         "interior_exact": interior, "left_injective": left,
         "stable_hom_vanishing": vanishing})


def verify_lemmas(ctx: RingContext) -> Verdict:
    """The syzygy lemmas on the residue field k over ``ctx``: stable
    Hom(Omega^c k, Omega^{c+n} k) vanishes for n >= 1, and Hom(w, -) is
    exact on 0 -> Omega^{i+1} k -> F_i -> Omega^i k -> 0, w = R or
    Omega k, whenever stable Hom(w, Omega^i k) vanishes.  One evidence
    item per check, under ``items``."""
    r = ctx.nvars
    k = FPModule(ctx, (0,), FreeModuleMap(
        ctx, (1,) * r, (0,), [[ctx.variable(v)] for v in ctx.variables]))
    items = []

    def item(check, ok, **found):
        items.append({"check": check, **found,
                      "status": VERIFIED if ok else HYPOTHESIS_FAILED})

    for c in range(r):
        for n in range(1, r - c + 1):
            item(f"stable-hom omega^{c} -> omega^{c + n}",
                 stable_hom(syzygy(k, c), syzygy(k, c + n)).quotient.is_zero())
    for i in range(r):
        Ki = syzygy(k, i)
        Kn = syzygy(k, i + 1)
        F = free_module(ctx, Ki.gen_degrees)
        cover = ModuleMorphism(
            F, Ki, FreeModuleMap.identity(ctx, F.gen_degrees))
        inc = ModuleMorphism(Kn, F, Ki.relations)
        for w_name, w in (("free", free_module(ctx)),
                          ("omega^1", syzygy(k, 1))):
            v = check_lift_exactness((Kn, F, Ki, inc, cover), w)
            item(f"lift-exactness syzygy {i}, w = {w_name}",
                 not v.hypothesis_holds or v.hom_exact,
                 hypothesis_holds=v.hypothesis_holds, hom_exact=v.hom_exact)
    # the lemmas have no hypotheses of their own to validate
    return _conclude(Verdict(VERIFIED, {}),
                     all(it["status"] == VERIFIED for it in items),
                     {"items": items})


class NCRReport(NamedTuple):
    """Serializable record of one construction / verification run."""

    trace: list
    hypothesis_results: list
    bound: int
    closed_form: int

    def all_verified(self) -> bool:
        return all(v.ok for v in self.hypothesis_results)


def normalize_cs(cs) -> tuple:
    """Deduplicate and sort strictly decreasing (Morita normalization)."""
    return tuple(sorted(set(cs), reverse=True))


def corollary_build(N: FPModule, cs, gldim_end_N: int) -> NCRReport:
    """Inductive construction M = R + Omega^{c_1}N + ... with its bound.

    Each step re-verifies the torsionfree-generator hypothesis for the next
    syzygy summand, each distinct summand checked once; the recursive bound
    is cross-checked against the closed form; r is the number of variables.
    """
    ctx = N.ctx
    r = ctx.nvars
    if _require_finite_length(N, "N") == 0:
        raise AlgebraError("N must be nonzero")
    if gldim_end_N < 0:
        raise AlgebraError("gldim_end_N must be >= 0")
    cs_norm = normalize_cs(cs)
    for c in cs_norm:
        if not 0 <= c < r:
            raise AlgebraError(f"syzygy index {c} outside [0, {r})")
    n = len(cs_norm)
    R = free_module(ctx)
    res_N = minimal_resolution(N, r)
    trace = [{"step": 0, "module": "R", "gens": [0],
              "betti_N": list(res_N.betti)}]
    verdicts = []
    M = R
    bound = r
    prev_d = r
    for j, c in enumerate(cs_norm, 1):
        h = NCRHypotheses(M=M, X=N, c=c, d=prev_d,
                          gldim_end_M=bound,
                          gldim_end_X=gldim_end_N)
        verdict = check_theorem_part1(h)
        verdicts.append(verdict)
        Om = syzygy(N, c)
        M = direct_sum(M, Om)
        trace.append({
            "step": j, "syzygy_index": c,
            "summand_gens": list(Om.gen_degrees),
            "module_gens": list(M.gen_degrees),
            "verdict": verdict.status})
        bound = theorem_bound(bound, gldim_end_N)
        prev_d = c
    closed = (2 ** n) * r + (2 ** n - 1) * (gldim_end_N + 1)
    if bound != closed:
        raise EngineError("recursive bound disagrees with the closed form; "
                          "engine bug")
    return NCRReport(trace, verdicts, bound, closed)
