"""Canonical reports pinned byte for byte.

Each job below runs through ``parse_job`` and ``run_job``; its canonical
section must equal ``tests/golden/<name>.yml`` exactly.  There is one small
job for every command, and ``verify-claim1`` and ``verify-exact2`` also run
on acceptance scenarios 1-4 over F_101 in the coordinates x, y, z;
scenarios 2 and 4 also run at depths 1 and 2, and ``verify-claim1`` runs
once more with X = R/m^2, whose map rank is 4.  The four r=4 jobs of
``examples/r4/`` (three with X = k, one with X = R/m^2), the r=5 job of
``examples/r5/`` and the r=6 job of ``examples/r6/`` (c = 3, about 3.5 s)
pin the add-M path beyond three variables; the two ``build`` jobs of
``examples/r4/`` and ``examples/r5/`` (N = k, cs = [3, 2, 1] and
[4, 3, 2, 1]) pin the inductive construction there, and three jobs repeat
others under the lex order.

``golden/benchmark-seed1.sha256`` pins every exact2-r3 and cli-jobs
document of the benchmark at seed 1 (``perfbench/workloads.py``) by one
sha256 per document: of its canonical section, or of its refusal text when
it is malformed; ``tests/test_job_yaml.py`` checks it.  A change that is
meant to alter a report rewrites the files with

    PYTHONPATH=src python tests/test_golden.py --write

and the diff of ``tests/golden/`` shows what changed.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from ncres.cli import COMMANDS, parse_job, run_job
from ncres.ring import AlgebraError, EngineError

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = ROOT / "examples"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
BENCHMARK_DIGESTS = GOLDEN / "benchmark-seed1.sha256"

RING2 = "ring: {char: 101, vars: [x, y]}\n"
RING3 = "ring: {char: 101, vars: [x, y, z]}\n"
K3 = "module k: {gens: [0], relations: [[x], [y], [z]]}\n"
R_MOD = "module R: {gens: [0], relations: []}\n"
MODULES3 = (
    K3 + R_MOD
    + "module Rm2: {gens: [0], relations: "
      "[[x^2], [x*y], [y^2], [x*z], [y*z], [z^2]]}\n"
    + "module CI3: {gens: [0], relations: [[x^3], [y^3], [z^3]]}\n"
    + "module W3: {gens: [3, 3, 3], relations: "
      "[[y^3, -x^3, 0], [z^3, 0, -x^3], [0, z^3, -y^3]]}\n"
    + "module O2: {gens: [2, 2, 2], relations: [[x, y, z]]}\n"
    + "module T: {gens: [0, 1], relations: "
      "[[x, 0], [y, 0], [z^2, z], [0, x], [0, y]]}\n"
)
# acceptance scenarios 1-4: X = k, M = R, and M = R + Omega^2 k in scenario 4
SCENARIOS = {
    "s1": (RING2 + "module k: {gens: [0], relations: [[x], [y]]}\n"
           + R_MOD + "M: R\nc: 1\nd: 2\ngldim_end_M: 2\n"),
    "s2": RING3 + K3 + R_MOD + "M: R\nc: 1\nd: 3\ngldim_end_M: 3\n",
    "s3": RING3 + K3 + R_MOD + "M: R\nc: 2\nd: 3\ngldim_end_M: 3\n",
    "s4": (RING3 + K3 + R_MOD
           + "module O2: {gens: [2, 2, 2], relations: [[x, y, z]]}\n"
           + "module M: {gens: [0, 2, 2, 2], relations: [[0, x, y, z]]}\n"
           + "M: M\nc: 1\nd: 2\ngldim_end_M: 7\nsummands: [R, O2]\n"),
}

JOBS = {
    "grade-T": RING3 + MODULES3 + "command: grade\nmodule: T\n",
    "syzygy-Rm2-2": RING3 + MODULES3 + "command: syzygy\nmodule: Rm2\nc: 2\n",
    "torsionfree-O2-2": (RING3 + MODULES3
                         + "command: torsionfree\nmodule: O2\nd: 2\n"),
    "ext2-T-R": (RING3 + MODULES3
                 + "command: ext\nmodule: T\ntarget: R\ni: 2\n"),
    "hom-O2-k": RING3 + MODULES3 + "command: hom\nsource: O2\ntarget: k\n",
    "stablehom-T-T": (RING3 + MODULES3
                      + "command: stablehom\nsource: T\ntarget: T\n"),
    "transpose-W3": RING3 + MODULES3 + "command: transpose\nmodule: W3\n",
    "build-k-21": (RING3 + K3 + "command: build\nmodule: k\ncs: [2, 1]\n"
                   "gldim_end_N: 0\n"),
    "verify-claim1-failing": (RING3 + MODULES3 + "command: verify-claim1\n"
                              "M: k\nX: k\nc: 1\nd: 2\n"),
    "verify-exact2-failing": (RING3 + MODULES3 + "command: verify-exact2\n"
                              "M: O2\nX: k\nc: 1\nd: 2\ndepth: 2\n"),
    "verify-lemmas-r2": RING2 + "command: verify-lemmas\n",
    # the one claim-1 job with X other than k: map_rank 4, not 1
    "claim1-Rm2": (RING3 + MODULES3 + "command: verify-claim1\n"
                   "M: R\nX: Rm2\nc: 1\nd: 3\n"),
}
for _tag, _doc in SCENARIOS.items():
    JOBS[f"claim1-{_tag}"] = _doc + "X: k\ncommand: verify-claim1\n"
    JOBS[f"exact2-{_tag}"] = _doc + "X: k\ncommand: verify-exact2\ndepth: 4\n"
# scenarios 2 and 4 at depth 1 run out of depth; at depth 2 they close up at
# the last allowed step
for _tag in ("s2", "s4"):
    for _depth in (1, 2):
        JOBS[f"exact2-{_tag}-depth{_depth}"] = (
            SCENARIOS[_tag]
            + f"X: k\ncommand: verify-exact2\ndepth: {_depth}\n")
for _dir, _name in (("r4", "O3-2"), ("r4", "O2-1"), ("r4", "O3-1"),
                    ("r4", "Rm2-O3-1"), ("r5", "O3-1"), ("r6", "O5-3")):
    JOBS[f"exact2-{_dir}-{_name}"] = (
        EXAMPLES / _dir / f"{_name}.yml").read_text(encoding="utf-8")
for _dir, _name in (("r4", "build-k-321"), ("r5", "build-k-4321")):
    JOBS[f"{_dir}-{_name}"] = (
        EXAMPLES / _dir / f"{_name}.yml").read_text(encoding="utf-8")
# the lex order: a syzygy, a stable Hom and an add-M resolution
for _name in ("syzygy-Rm2-2", "stablehom-T-T", "exact2-s2"):
    JOBS[f"{_name}-lex"] = JOBS[_name].replace(
        RING3, "ring: {char: 101, vars: [x, y, z], order: lex}\n")


def canonical(doc):
    return run_job(parse_job(doc))[0]


def outcome(doc):
    """The canonical section of a job document, or the text the CLI
    prints when it refuses the document (exit 2); an engine fault
    (exit 3) is raised."""
    try:
        return canonical(doc)
    except EngineError:
        raise
    except AlgebraError as e:          # ParseError among them
        return f"error: {e}"


def benchmark_jobs(seed):
    """The exact2-r3 and cli-jobs documents of the benchmark at ``seed``."""
    if not WORKLOADS.is_file():
        pytest.skip("perfbench/ not present")
    spec = importlib.util.spec_from_file_location("_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.exact2_r3(seed) + mod.cli_jobs(seed)[0]


def digest_lines(outcomes) -> str:
    """``sha256  name`` per (name, outcome text), sorted by name."""
    return "".join(
        f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}\n"
        for name, text in sorted(dict(outcomes).items()))


def test_every_command_has_a_job():
    assert {parse_job(doc).command for doc in JOBS.values()} == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_canonical_report_matches_golden(name):
    want = (GOLDEN / f"{name}.yml").read_text(encoding="utf-8")
    assert canonical(JOBS[name]) == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for name, doc in sorted(JOBS.items()):
        (GOLDEN / f"{name}.yml").write_text(canonical(doc), encoding="utf-8")
    BENCHMARK_DIGESTS.write_text(
        digest_lines((name, outcome(doc)) for name, doc in benchmark_jobs(1)),
        encoding="utf-8")
