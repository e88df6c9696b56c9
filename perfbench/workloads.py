"""Seeded inputs for the three benchmark workloads, and their expected results.

Nothing here imports ncres: the program under test receives only the text
generated below.  Polynomials are dicts mapping exponent tuples to
coefficients in 1..p-1; ``fmt`` prints them in ncres's canonical grammar
(descending grevlex, ``c*x^2*y``, terms joined by `` + ``) so a job's
``modules`` report section must reproduce its input text exactly.

The exact2-r3 and cli-jobs inputs are the image of fixed data under a seeded
invertible linear change of coordinates.  Such a change is a graded ring
automorphism, so verdicts, Betti tables, Hilbert functions and k-dimensions do
not depend on the seed and are fixed below, while the polynomials the engine
sees are dense.  The resolve-r4 ideals are random, so their Betti numbers are
those of a generic ideal.
"""

from __future__ import annotations

import itertools
import random
from math import comb

VARS3 = ("x", "y", "z")
VARS4 = ("a", "b", "c", "d")
RESOLVE_CHAR = 32003
EXACT2_DEPTH = 4


# -- polynomial arithmetic mod p ---------------------------------------------

def _is_prime(n):
    return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))


def pick_prime(rng, lo=10007, hi=32003):
    while True:
        n = rng.randrange(lo, hi + 1)
        if _is_prime(n):
            return n


def padd(f, g, p, scale=1):
    out = dict(f)
    for m, c in g.items():
        v = (out.get(m, 0) + scale * c) % p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def pmul(f, g, p):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = (out.get(m, 0) + c1 * c2) % p
    return {m: c for m, c in out.items() if c}


def ppow(f, e, p):
    out = {(0,) * len(next(iter(f))): 1}
    for _ in range(e):
        out = pmul(out, f, p)
    return out


def grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def fmt(f, names):
    """ncres canonical text of a polynomial."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=grevlex_key, reverse=True):
        factors = [n if e == 1 else f"{n}^{e}"
                   for n, e in zip(names, m) if e]
        c = f[m]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


def monomials(nvars, d):
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        m = [0] * nvars
        for v in combo:
            m[v] += 1
        yield tuple(m)


def random_form(rng, nvars, d, p):
    """Dense homogeneous form: every monomial of degree d, nonzero coefficient."""
    return {m: rng.randrange(1, p) for m in monomials(nvars, d)}


def _det(mat, p):
    mat = [row[:] for row in mat]
    n = len(mat)
    det = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det = det * mat[col][col] % p
        inv = pow(mat[col][col], p - 2, p)
        for i in range(col + 1, n):
            f = mat[i][col] * inv % p
            mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[col])]
    return det % p


def dense_coordinates(rng, nvars, p):
    """Images l_1..l_r of the variables under a random invertible linear map;
    every l_i involves every variable."""
    while True:
        mat = [[rng.randrange(1, p) for _ in range(nvars)]
               for _ in range(nvars)]
        if _det(mat, p):
            break
    return [{tuple(int(j == v) for j in range(nvars)): row[v]
             for v in range(nvars)} for row in mat]


def substitute(poly, coords, p):
    """poly(l_1, .., l_r) for a polynomial with small integer coefficients."""
    out = {}
    for m, c in poly.items():
        term = {(0,) * len(coords): c % p}
        for v, e in enumerate(m):
            if e:
                term = pmul(term, ppow(coords[v], e, p), p)
        out = padd(out, term, p)
    return out


def module_doc(name, gens, rows, names):
    """YAML line for a module; ``rows`` are relation columns of polynomials."""
    rel = ", ".join("[" + ", ".join(fmt(f, names) for f in row) + "]"
                    for row in rows)
    return f"module {name}: {{gens: {list(gens)}, relations: [{rel}]}}\n"


def ring_doc(p, names):
    return f"ring: {{char: {p}, vars: [{', '.join(names)}], order: grevlex}}\n"


# -- exact2-r3: the paper's construction -------------------------------------

def diagonal_coordinates(rng, nvars, p):
    """l_i = a_i x_i: a seeded change of coordinates that keeps each linear
    form a single term.  (Permuting the variables as well would change the
    work done, since grevlex is not symmetric in them.)"""
    return [{tuple(int(j == i) for j in range(nvars)): rng.randrange(1, p)}
            for i in range(nvars)]


def _scenario_doc(tag, p, coords):
    """Acceptance scenario 1-4 with X = k = R/(l_1..l_r)."""
    names = VARS3[:len(coords)]
    params = {"s1": "M: R\nc: 1\nd: 2\ngldim_end_M: 2\n",
              "s2": "M: R\nc: 1\nd: 3\ngldim_end_M: 3\n",
              "s3": "M: R\nc: 2\nd: 3\ngldim_end_M: 3\n",
              "s4": "M: M\nc: 1\nd: 2\ngldim_end_M: 7\nsummands: [R, O2]\n"}
    doc = (ring_doc(p, names)
           + module_doc("k", [0], [[l] for l in coords], names)
           + module_doc("R", [0], [], names))
    if tag == "s4":
        # M = R + Omega^2 k, with Omega^2 k = R(-2)^3 / (l_1, l_2, l_3)
        doc += module_doc("O2", [2, 2, 2], [coords], names)
        doc += module_doc("M", [0, 2, 2, 2], [[{}] + coords], names)
    return doc + "X: k\ngldim_end_X: 0\n" + params[tag]


def exact2_r3(seed):
    """(name, job document): verify-exact2 at depth 4 and verify-claim1 on
    the four acceptance scenarios, and build at r = 3 with cs = [2, 1].

    Every job is in dense coordinates except verify-exact2 on scenario 4,
    which uses diagonal coordinates: in dense coordinates that one job takes
    about ten times longer (60 s on a 2-core sandbox), too long to repeat in
    every run.
    """
    rng = random.Random(seed)
    p = pick_prime(rng)
    dense = {2: dense_coordinates(rng, 2, p), 3: dense_coordinates(rng, 3, p)}
    diag3 = diagonal_coordinates(rng, 3, p)
    jobs = []
    for tag in ("s1", "s2", "s3", "s4"):
        coords = dense[2] if tag == "s1" else dense[3]
        exact2_coords = diag3 if tag == "s4" else coords
        jobs.append((f"exact2-{tag}", _scenario_doc(tag, p, exact2_coords)
                     + f"command: verify-exact2\ndepth: {EXACT2_DEPTH}\n"))
        jobs.append((f"claim1-{tag}", _scenario_doc(tag, p, coords)
                     + "command: verify-claim1\n"))
    jobs.append(("build-r3", ring_doc(p, VARS3)
                 + module_doc("k", [0], [[l] for l in dense[3]], VARS3)
                 + "command: build\nmodule: k\ncs: [2, 1]\n"
                   "gldim_end_N: 0\n"))
    return jobs


def _exact2_verdict(grade_x, depth_used, kernel_ranks):
    return {"status": "verified", "evidence": {
        "grade_X": grade_x, "problems": [], "depth_used": depth_used,
        "kernel_ranks": kernel_ranks, "quotient_dimension": 1,
        "cokernel_dimension": 1, "interior_exact": [True] * depth_used,
        "left_injective": True, "stable_hom_vanishing": [True] * depth_used}}


def _claim1_verdict(grade_x):
    return {"status": "verified", "evidence": {
        "grade_X": grade_x, "problems": [], "D1": 1, "D2": 1, "map_rank": 1,
        "bijective": True, "factor_ideal_equals_free_ideal": True}}


def _build_verdict(c):
    return {"status": "verified", "evidence": {
        "c": c, "grade_X": 3, "problems": [], "sum_is_c_torsionfree": True,
        "sum_is_generator": True}}


# canonical-report fields of each job that no change of coordinates moves
EXACT2_EXPECTED = {
    "exact2-s1": {"verdict": _exact2_verdict(2, 1, [2, 1])},
    "claim1-s1": {"verdict": _claim1_verdict(2)},
    "exact2-s2": {"verdict": _exact2_verdict(3, 2, [3, 3, 1])},
    "claim1-s2": {"verdict": _claim1_verdict(3)},
    "exact2-s3": {"verdict": _exact2_verdict(3, 1, [3, 1])},
    "claim1-s3": {"verdict": _claim1_verdict(3)},
    "exact2-s4": {"verdict": _exact2_verdict(3, 2, [3, 6, 3])},
    "claim1-s4": {"verdict": _claim1_verdict(3)},
    "build-r3": {
        "bound": 15, "closed_form": 15,
        "trace": [{"step": 0, "module": "R", "gens": [0],
                   "betti_N": [1, 3, 3, 1]},
                  {"step": 1, "syzygy_index": 2, "summand_gens": [2, 2, 2],
                   "module_gens": [0, 2, 2, 2], "verdict": "verified"},
                  {"step": 2, "syzygy_index": 1, "summand_gens": [1, 1, 1],
                   "module_gens": [0, 2, 2, 2, 1, 1, 1],
                   "verdict": "verified"}],
        "verdicts": [_build_verdict(2), _build_verdict(1)]},
}


# -- resolve-r4: a few large bases --------------------------------------------

# (job name, number of quadrics).  Only four and eight: the engine orders
# syzygies by coefficient value, so for other shapes the work done changes
# with the seed, over seeds 1-10 by up to 40 % for five and seven quadrics
# and by 17 % for six, against 4 % for four and eight.  That would put the
# spread of the latency metrics over seeds near their bound.
RESOLVE_SHAPES = (("q4", 4), ("q8", 8), ("q8b", 8))
# Betti numbers of generic quadric ideals in four variables
RESOLVE_BETTI = {"q4": [1, 4, 6, 4, 1], "q8": [1, 8, 12, 7, 2],
                 "q8b": [1, 8, 12, 7, 2]}
LIFTS_PER_JOB = 8
LIFT_DEGREE = 2           # degree of the lift coefficients; b has degree 4
HILBERT_UP_TO = 8


def resolve_r4(seed):
    """Random dense quadric ideals in F_32003[a,b,c,d], with lift targets.

    Each job is (name, quadric texts, texts of b = sum_j x_j q_j for random
    quadratic x); the engine sees the quadrics and each b, never x.
    """
    rng = random.Random(seed)
    p = RESOLVE_CHAR
    jobs = []
    for name, n in RESOLVE_SHAPES:
        quads = [random_form(rng, 4, 2, p) for _ in range(n)]
        lifts = []
        for _ in range(LIFTS_PER_JOB):
            x = [random_form(rng, 4, LIFT_DEGREE, p) for _ in range(n)]
            b = {}
            for xj, qj in zip(x, quads):
                b = padd(b, pmul(xj, qj, p), p)
            lifts.append(b)
        jobs.append((name, [fmt(q, VARS4) for q in quads],
                     [fmt(b, VARS4) for b in lifts]))
    return p, jobs


def hilbert_from_betti(graded_betti, nvars, up_to):
    """HF(t) = sum_i (-1)^i sum_{twist j in F_i} C(t - j + r - 1, r - 1)."""
    out = []
    for t in range(up_to + 1):
        s = 0
        for i, twists in enumerate(graded_betti):
            for j in twists:
                if t >= j:
                    s += (-1) ** i * comb(t - j + nvars - 1, nvars - 1)
        out.append(s)
    return out


# -- cli-jobs: many small jobs through the process boundary -------------------

def _x(*e):
    return {tuple(e): 1}


# fixed modules over Z[x, y, z], given as (gens, relation columns)
_CLI_MODULES = {
    "k": ([0], [[_x(1, 0, 0)], [_x(0, 1, 0)], [_x(0, 0, 1)]]),
    "R": ([0], []),
    "Rm2": ([0], [[{m: 1}] for m in monomials(3, 2)]),
    "CI3": ([0], [[_x(3, 0, 0)], [_x(0, 3, 0)], [_x(0, 0, 3)]]),
    "W3": ([3, 3, 3], [[_x(0, 3, 0), {(3, 0, 0): -1}, {}],
                       [_x(0, 0, 3), {}, {(3, 0, 0): -1}],
                       [{}, _x(0, 0, 3), {(0, 3, 0): -1}]]),
    "O2": ([2, 2, 2], [[_x(1, 0, 0), _x(0, 1, 0), _x(0, 0, 1)]]),
    "T": ([0, 1], [[_x(1, 0, 0), {}], [_x(0, 1, 0), {}],
                   [_x(0, 0, 2), _x(0, 0, 1)], [{}, _x(1, 0, 0)],
                   [{}, _x(0, 1, 0)]]),
}

# (name, command and parameters); every module above is declared in each job
_CLI_SPECS = (
    [(f"grade-{m}", f"command: grade\nmodule: {m}\n")
     for m in ("R", "k", "Rm2", "CI3", "W3", "O2", "T")]
    + [(f"syzygy-{m}-{c}", f"command: syzygy\nmodule: {m}\nc: {c}\n")
       for m in ("k", "Rm2", "CI3", "W3", "T") for c in (1, 2)]
    + [("syzygy-O2-1", "command: syzygy\nmodule: O2\nc: 1\n")]
    + [(f"ext{i}-{m}-{n}", f"command: ext\nmodule: {m}\ntarget: {n}\ni: {i}\n")
       for m, n in (("k", "R"), ("CI3", "R"), ("Rm2", "k"), ("T", "R"))
       for i in (1, 2, 3)]
    + [(f"ext{i}-O2-R", f"command: ext\nmodule: O2\ntarget: R\ni: {i}\n")
       for i in (1, 2)]
    + [(f"hom-{m}-{n}", f"command: hom\nsource: {m}\ntarget: {n}\n")
       for m, n in (("k", "CI3"), ("Rm2", "Rm2"), ("O2", "O2"), ("O2", "k"),
                    ("T", "Rm2"), ("CI3", "CI3"))]
    + [(f"stablehom-{m}-{n}", f"command: stablehom\nsource: {m}\ntarget: {n}\n")
       for m, n in (("O2", "O2"), ("Rm2", "Rm2"), ("k", "Rm2"), ("T", "T"))]
    + [(f"transpose-{m}", f"command: transpose\nmodule: {m}\n")
       for m in ("k", "Rm2", "CI3", "W3", "O2", "T")]
)

# ROADMAP item 3: each must exit 2 (input error)
CLI_MALFORMED = (
    ("malformed-module-list", "command: grade\nmodule: [k]\n"),
    ("malformed-cs", "command: build\nmodule: k\ncs: [a]\ngldim_end_N: 0\n"),
    ("malformed-summands",
     "command: verify-claim1\nM: R\nX: k\nc: 1\nd: 3\ngldim_end_M: 3\n"
     "gldim_end_X: 0\nsummands: 5\n"),
)


CLI_HARDEST = "hom-k-CI3"


def cli_jobs(seed):
    """([(name, job document)], the ``modules`` report section every
    well-formed job must print)."""
    rng = random.Random(seed)
    p = pick_prime(rng)
    coords = dense_coordinates(rng, 3, p)
    mods = {}
    for name, (gens, rows) in _CLI_MODULES.items():
        mods[name] = (gens, [[substitute(f, coords, p) for f in row]
                             for row in rows])
    head = ring_doc(p, VARS3) + "".join(
        module_doc(name, gens, rows, VARS3)
        for name, (gens, rows) in mods.items())
    section = {name: {"gens": gens,
                      "relations": [[fmt(f, VARS3) for f in row]
                                    for row in rows]}
               for name, (gens, rows) in mods.items()}
    jobs = [(name, head + spec) for name, spec in _CLI_SPECS + list(CLI_MALFORMED)]
    # the hardest job, whose latency is slowest_job_s, runs three times a
    # pass, spread over it: a pass fits about three times in a run, and a
    # median over three runs of a one-second job is not steady
    hardest = next(job for job in jobs if job[0] == CLI_HARDEST)
    half = len(jobs) // 2
    return [hardest] + jobs[:half] + [hardest] + jobs[half:], section


def cli_invariants(report):
    """Fields of a CLI report that no change of coordinates moves."""
    cmd = report["command"]
    if cmd == "grade":
        return {"grade": report["grade"]}
    if cmd in ("syzygy", "transpose"):
        mod = report[cmd]
        out = {"gens": mod["gens"], "relations": len(mod["relations"])}
        if cmd == "syzygy":
            out["betti"] = report["betti"]
        return out
    if cmd == "stablehom":
        return {"quotient_is_zero": report["quotient_is_zero"],
                "k_dimension": report["k_dimension"]}
    return {"k_dimension": report["k_dimension"],
            "hilbert": report["hilbert"]}


# cli_invariants of each well-formed job's report
CLI_EXPECTED = {
    'grade-R': {'grade': 0},
    'grade-k': {'grade': 3},
    'grade-Rm2': {'grade': 3},
    'grade-CI3': {'grade': 3},
    'grade-W3': {'grade': 0},
    'grade-O2': {'grade': 0},
    'grade-T': {'grade': 2},
    'syzygy-k-1': {'gens': [1, 1, 1], 'relations': 3, 'betti': [1, 3, 3]},
    'syzygy-k-2': {'gens': [2, 2, 2], 'relations': 1, 'betti': [1, 3, 3, 1]},
    'syzygy-Rm2-1': {'gens': [2, 2, 2, 2, 2, 2], 'relations': 8, 'betti': [1, 6, 8]},
    'syzygy-Rm2-2': {'gens': [3, 3, 3, 3, 3, 3, 3, 3], 'relations': 3, 'betti': [1, 6, 8, 3]},
    'syzygy-CI3-1': {'gens': [3, 3, 3], 'relations': 3, 'betti': [1, 3, 3]},
    'syzygy-CI3-2': {'gens': [6, 6, 6], 'relations': 1, 'betti': [1, 3, 3, 1]},
    'syzygy-W3-1': {'gens': [6, 6, 6], 'relations': 1, 'betti': [3, 3, 1]},
    'syzygy-W3-2': {'gens': [9], 'relations': 0, 'betti': [3, 3, 1]},
    'syzygy-T-1': {'gens': [1, 1, 2, 2, 2], 'relations': 4, 'betti': [2, 5, 4]},
    'syzygy-T-2': {'gens': [2, 3, 3, 3], 'relations': 1, 'betti': [2, 5, 4, 1]},
    'syzygy-O2-1': {'gens': [3], 'relations': 0, 'betti': [3, 1]},
    'ext1-k-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext2-k-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext3-k-R': {'k_dimension': 1, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext1-CI3-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext2-CI3-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext3-CI3-R': {'k_dimension': 27, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext1-Rm2-k': {'k_dimension': 6, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext2-Rm2-k': {'k_dimension': 8, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext3-Rm2-k': {'k_dimension': 3, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext1-T-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext2-T-R': {'k_dimension': 'infinite', 'hilbert': [1, 1, 1, 1, 1, 1, 1]},
    'ext3-T-R': {'k_dimension': 1, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext1-O2-R': {'k_dimension': 1, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'ext2-O2-R': {'k_dimension': 0, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'hom-k-CI3': {'k_dimension': 1, 'hilbert': [0, 0, 0, 0, 0, 0, 1]},
    'hom-Rm2-Rm2': {'k_dimension': 4, 'hilbert': [1, 3, 0, 0, 0, 0, 0]},
    'hom-O2-O2': {'k_dimension': 'infinite', 'hilbert': [1, 9, 21, 37, 57, 81, 109]},
    'hom-O2-k': {'k_dimension': 3, 'hilbert': [0, 0, 0, 0, 0, 0, 0]},
    'hom-T-Rm2': {'k_dimension': 6, 'hilbert': [3, 3, 0, 0, 0, 0, 0]},
    'hom-CI3-CI3': {'k_dimension': 27, 'hilbert': [1, 3, 6, 7, 6, 3, 1]},
    'stablehom-O2-O2': {'quotient_is_zero': False, 'k_dimension': 1},
    'stablehom-Rm2-Rm2': {'quotient_is_zero': False, 'k_dimension': 4},
    'stablehom-k-Rm2': {'quotient_is_zero': False, 'k_dimension': 3},
    'stablehom-T-T': {'quotient_is_zero': False, 'k_dimension': 'infinite'},
    'transpose-k': {'gens': [-1, -1, -1], 'relations': 1},
    'transpose-Rm2': {'gens': [-2, -2, -2, -2, -2, -2], 'relations': 1},
    'transpose-CI3': {'gens': [-3, -3, -3], 'relations': 1},
    'transpose-W3': {'gens': [-6, -6, -6], 'relations': 3},
    'transpose-O2': {'gens': [-3], 'relations': 3},
    'transpose-T': {'gens': [-1, -1, -2, -2, -2], 'relations': 2},
}
