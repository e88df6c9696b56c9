"""Output checks, run after the timed region.

``check(workload, seed, records)`` returns one entry per record of the first
pass: None when the job is right, else (kind, message) where kind is
``failed`` (exception, timeout, wrong exit code) or ``wrong`` (the job ran
but its report differs from the expected one).
"""

from __future__ import annotations

import json

import yaml

import workloads as W


def parse_canonical(text, names, p):
    """Inverse of workloads.fmt (ncres's canonical polynomial text)."""
    poly = {}
    if text == "0":
        return poly
    for term in text.split(" + "):
        coeff, mono = 1, [0] * len(names)
        for factor in term.split("*"):
            if factor.isdigit():
                coeff = int(factor)
                continue
            name, _, exp = factor.partition("^")
            mono[names.index(name)] += int(exp) if exp else 1
        poly[tuple(mono)] = coeff % p
    return poly


def _report(output):
    """The canonical section of a report as a mapping; its marker lines are
    YAML comments."""
    return yaml.safe_load(output)


def _exact2(rec, _):
    if rec["error"] or rec["code"] != 0:
        return "failed", rec["error"] or f"exit {rec['code']}"
    report = _report(rec["output"])
    expected = W.EXACT2_EXPECTED[rec["job"]]
    bad = [k for k, v in expected.items() if report.get(k) != v]
    return ("wrong", f"fields {bad} differ") if bad else None


def _sympy_basis(quads, p):
    import sympy
    gens = sympy.symbols(W.VARS4)
    polys = [sympy.Poly(sympy.sympify(q.replace("^", "**")), *gens,
                        modulus=p) for q in quads]
    basis = sympy.groebner(polys, *gens, modulus=p, order="grevlex")
    out = set()
    for g in basis.polys:
        terms = {m: int(c) % p for m, c in g.terms()}
        lead = terms[max(terms, key=W.grevlex_key)]
        inv = pow(lead, p - 2, p)
        out.add(frozenset((m, c * inv % p) for m, c in terms.items()))
    return out


def _resolve_job(job, result, p):
    name, quad_texts, rhs_texts = job
    names = W.VARS4
    if [len(t) for t in result["betti"]] != W.RESOLVE_BETTI[name]:
        return f"Betti numbers {[len(t) for t in result['betti']]}"
    if not result["complete"]:
        return "resolution not complete"
    want = W.hilbert_from_betti(result["betti"], len(names), W.HILBERT_UP_TO)
    if result["hilbert"] != want:
        return f"Hilbert function {result['hilbert']} != Betti sum {want}"
    gb = {frozenset(parse_canonical(t, names, p).items())
          for t in result["gb"]}
    if gb != _sympy_basis(quad_texts, p):
        return "reduced basis differs from sympy's"
    quads = [parse_canonical(t, names, p) for t in quad_texts]
    for rhs, x in zip(rhs_texts, result["lifts"]):
        if x is None:
            return "lift_solve found no lift of an ideal member"
        total = {}
        for xj, qj in zip(x, quads):
            total = W.padd(total, W.pmul(parse_canonical(xj, names, p), qj, p),
                           p)
        if total != parse_canonical(rhs, names, p):
            return "a o x != b for a lift"
    return None


def _resolve(rec, inputs):
    if rec["error"]:
        return "failed", rec["error"]
    p, jobs = inputs
    job = next(j for j in jobs if j[0] == rec["job"])
    problem = _resolve_job(job, json.loads(rec["output"]), p)
    return ("wrong", problem) if problem else None


def _cli(rec, section):
    want_code = 2 if rec["job"] in dict(W.CLI_MALFORMED) else 0
    if rec["error"] or rec["code"] != want_code:
        return "failed", (rec["error"] or
                          f"exit {rec['code']}, expected {want_code}: "
                          + rec["output"].rsplit("# stderr: ", 1)[-1].strip())
    if want_code:
        return None
    report = _report(rec["output"])
    if report.get("modules") != section:
        return "wrong", "modules section does not reproduce input"
    if W.cli_invariants(report) != W.CLI_EXPECTED[rec["job"]]:
        return "wrong", f"{W.cli_invariants(report)}"
    return None


# workload -> (check of one record, what it needs from the seed's inputs)
CHECKS = {"exact2-r3": (_exact2, lambda seed: None),
          "resolve-r4": (_resolve, W.resolve_r4),
          "cli-jobs": (_cli, lambda seed: W.cli_jobs(seed)[1])}


def check(workload, seed, records):
    fn, inputs = CHECKS[workload]
    inputs = inputs(seed)
    out = []
    for rec in records:
        try:
            out.append(fn(rec, inputs))
        except Exception as e:  # a report the check cannot read is wrong
            out.append(("wrong", f"unreadable report: {type(e).__name__}: {e}"))
    return out
