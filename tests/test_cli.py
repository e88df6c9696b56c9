import operator
import os
import subprocess
import sys
import time

import pytest

from ncres import cli, homalg, ncr
from ncres.modules import direct_sum
from ncres.ring import EngineError, ParseError
from ncres.cli import (CANONICAL_MARK, TIMING_MARK, main, parse_job,
                       print_job, run_job)
from conftest import deadline
from test_golden import GOLDEN, JOBS

RING = "ring: {char: 101, vars: [x, y], order: grevlex}\n"
K_MOD = "module k: {gens: [0], relations: [[x], [y]]}\n"
R_MOD = "module R: {gens: [0], relations: []}\n"

GRADE_JOB = RING + K_MOD + "command: grade\nmodule: k\n"
CLAIM1_JOB = (RING + K_MOD + R_MOD
              + "command: verify-claim1\nM: R\nX: k\nc: 1\nd: 2\n"
              + "gldim_end_M: 2\ngldim_end_X: 0\n")
FAILING_JOB = (RING + K_MOD
               + "command: verify-claim1\nM: k\nX: k\nc: 1\nd: 2\n"
               + "gldim_end_M: 0\ngldim_end_X: 0\n")


def canonical_section(text):
    return text.split(TIMING_MARK)[0]


# -- parsing -----------------------------------------------------------------

def test_parse_job_basic():
    job = parse_job(GRADE_JOB)
    assert job.command == "grade"
    assert job.params == {"module": "k"}
    assert set(job.modules) == {"k"}
    assert job.ring.characteristic == 101


@pytest.mark.parametrize("doc,fragment", [
    ("ring: {char: 101, vars: [x, x]}\ncommand: grade\n", "duplicate"),
    ("ring: {char: 10, vars: [x]}\ncommand: grade\n", "not prime"),
    (RING + "module k: {gens: [0], relations: [[x + 1]]}\ncommand: grade\n",
     "inhomogeneous"),
    (RING + "command: frobnicate\n", "unknown command"),
    ("ring: {char: 101, vars: [x]}\n"
     "module k: {gens: [0], relations: [[q]]}\ncommand: grade\n",
     "unknown variable"),
    ("command: grade\n", "missing ring"),
    (RING + "module k: {gens: [0], relations: [[x, y]]}\ncommand: grade\n",
     "expected 1 entries"),
    (RING + "module k: {gens: [true], relations: []}\ncommand: grade\n",
     "expected a list of integers"),
    ("ring: {char: 101, vars: [x, 1]}\n"
     "module k: {gens: [0], relations: [[x], [1]]}\ncommand: grade\n"
     "module: k\n", "ring.vars: 1 is not a variable name"),
    ("ring: {char: 101, vars: [true, y]}\ncommand: grade\n",
     "ring.vars: True is not a variable name"),
    ("ring: {char: 101, vars: [x, y^2]}\ncommand: grade\n",
     "ring.vars: 'y^2' is not a variable name"),
    ("ring: {char: 101, vars: [[x]]}\ncommand: grade\n",
     "ring.vars: ['x'] is not a variable name"),
    (RING + "module q: {gens: [0], relations: [[null]]}\ncommand: grade\n",
     "module q, relation 0, entry 0: expected a polynomial"),
    (RING + "command: grade\nmodule: k\nc: 1\n",
     "command grade reads no key 'c'"),
    # the column degree is read off its first nonzero entry, x^2 in degree 2
    (RING + "module q: {gens: [0, 1], relations: [[x^2, y + 1]]}\n"
     "command: grade\n", "module q: inhomogeneous relation: entry (1,0) = "
     "y + 1 has a term of degree 0, expected 1"),
    (RING + "module q: {gens: [0, 0], relations: [[x, y^2]]}\n"
     "command: grade\n", "module q: inhomogeneous relation: entry (1,0) = "
     "y^2 has a term of degree 2, expected 1"),
    (RING + "module q: {gens: [0], relations: [[true]]}\ncommand: grade\n",
     "module q, relation 0, entry 0: expected a polynomial"),
    ("ring: [101, x]\ncommand: grade\n", "ring: expected a mapping"),
    ("ring: {char: '101', vars: [x]}\ncommand: grade\n",
     "ring.char: expected an integer"),
    ("ring: {char: 101, vars: []}\ncommand: grade\n",
     "ring.vars: expected a non-empty list"),
    (RING + "module q: [0]\ncommand: grade\n",
     "module q: expected a mapping"),
    (RING + "module q: {gens: [0], relations: x}\ncommand: grade\n",
     "module q.relations: expected a list of rows"),
    ("- command: grade\n", "job document: expected a mapping"),
])
def test_parse_job_errors(doc, fragment):
    with pytest.raises(ParseError) as err:
        parse_job(doc)
    assert fragment in str(err.value)


def test_print_parse_round_trip():
    for doc in (GRADE_JOB, CLAIM1_JOB):
        job = parse_job(doc)
        assert parse_job(print_job(job)) == job
        # printing is idempotent
        assert print_job(parse_job(print_job(job))) == print_job(job)


# -- running -----------------------------------------------------------------

def test_run_job_deterministic():
    job = parse_job(CLAIM1_JOB)
    can1, tim1, ok1 = run_job(job)
    can2, tim2, ok2 = run_job(parse_job(CLAIM1_JOB))
    assert ok1 and ok2
    assert can1 == can2
    assert can1.startswith(CANONICAL_MARK)
    assert "elapsed" in tim1
    assert "elapsed" not in can1


def test_run_job_failing_verdict():
    _, _, ok = run_job(parse_job(FAILING_JOB))
    assert not ok


def test_run_job_unknown_module_parameter():
    from ncres.ring import AlgebraError
    with pytest.raises(AlgebraError):
        run_job(parse_job(RING + K_MOD + "command: grade\nmodule: zz\n"))


# -- entry point -------------------------------------------------------------

def write_job(tmp_path, text, name="job.yml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_main_computation_exit_zero(tmp_path, capsys):
    path = write_job(tmp_path, GRADE_JOB)
    assert main(["--job", path, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "grade: 2" in out
    assert "command grade" in out


def test_main_writes_out_file(tmp_path):
    path = write_job(tmp_path, CLAIM1_JOB)
    out = tmp_path / "report.yml"
    assert main(["--job", path, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith(CANONICAL_MARK)
    assert "status: verified" in text
    assert TIMING_MARK in text


def test_main_unwritable_out_exits_two(tmp_path, capsys):
    """A report that cannot be written is refused with exit 2 and a
    message, not a traceback; exit 1 stays the non-verified verdict."""
    path = write_job(tmp_path, GRADE_JOB)
    out = tmp_path / "missing" / "report.yml"
    assert main(["--job", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert not out.exists()


def test_main_failing_verdict_exit_one(tmp_path):
    path = write_job(tmp_path, FAILING_JOB)
    out = tmp_path / "report.yml"
    assert main(["--job", path, "--out", str(out)]) == 1
    assert "hypothesis-failed" in out.read_text()


def test_ext_far_past_the_resolution_length_finishes(tmp_path, capsys):
    """Ext^i for i = 10^9 is read off the cached chain of syzygy modules,
    which ends at the zero module: the job finishes with the zero module
    (a hang fails the test) and exits 0."""
    path = write_job(tmp_path, RING + K_MOD + R_MOD
                     + "command: ext\nmodule: k\ntarget: R\ni: 1000000000\n")
    with deadline(10):
        assert main(["--job", path]) == 0
    assert "ext:\n  gens: []\n" in capsys.readouterr().out


def test_main_parse_error_exit_two(tmp_path, capsys):
    path = write_job(tmp_path, "ring: {char: 10, vars: [x]}\ncommand: grade\n")
    assert main(["--job", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--job", str(tmp_path / "missing.yml")]) == 2


def test_main_non_utf8_job_exit_two(tmp_path):
    """A byte that is not UTF-8, here in a comment, is an input error: exit
    2 with a message naming the file, and no traceback."""
    path = tmp_path / "job.yml"
    path.write_bytes(b"# \xff\xfe\n" + GRADE_JOB.encode())
    proc = subprocess.run(
        [sys.executable, "-m", "ncres.cli", "--job", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"error: {path}: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_main_engine_error_exit_three(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise EngineError("simulated fault")

    monkeypatch.setattr(cli, "grade", broken)
    path = write_job(tmp_path, GRADE_JOB)
    assert main(["--job", path]) == 3
    assert "internal error: simulated fault" in capsys.readouterr().err


def test_canonical_section_stable_across_processes(tmp_path):
    """Byte-identical canonical reports under different hash seeds."""
    path = write_job(tmp_path, CLAIM1_JOB)
    outputs = []
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-m", "ncres.cli", "--job", path],
            capture_output=True, text=True, env=env, check=True)
        outputs.append(canonical_section(proc.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("params", [
    "command: grade\nmodule: [k]\n",
    "command: build\nmodule: k\ncs: [a]\ngldim_end_N: 0\n",
    "command: verify-claim1\nM: R\nX: k\nc: 1\nd: 2\nsummands: 5\n",
    "command: build\nmodule: k\ncs: [true]\ngldim_end_N: 0\n",
    "command: syzygy\nmodule: k\nc: true\n",
    "command: verify-exact2\nM: R\nX: k\nc: 1\nd: 2\nsummands: []\n",
    "command: build\nmodule: k\ncs: [1]\ngldim_end_N: -100\n",
    "command: verify-exact2\nM: R\nX: k\nc: 1\nd: 2\ndepth: 0\n",
    # a key the command does not read: a misspelled depth must not run at
    # the default depth, nor a depth on claim 1 be ignored
    "command: verify-exact2\nM: R\nX: k\nc: 1\nd: 2\ndpeth: 8\n",
    "command: verify-claim1\nM: R\nX: k\nc: 1\nd: 2\ndepth: 4\n",
    # refused inputs, before hypotheses that fail too (M = k is no
    # generator; grade R = 0 leaves no room for c) are judged
    "command: verify-claim1\nM: k\nX: k\nc: 1\nd: 2\nsummands: [R, k]\n",
    "command: verify-exact2\nM: R\nX: R\nc: 1\nd: 3\n",
], ids=["module-list", "cs-strings", "summands-int", "cs-bool", "c-bool",
        "summands-empty", "gldim-negative", "depth-zero", "key-misspelled",
        "depth-on-claim1", "summands-before-hypotheses",
        "infinite-X-before-hypotheses"])
def test_main_malformed_parameters_exit_two(tmp_path, capsys, params):
    path = write_job(tmp_path, RING + K_MOD + R_MOD + params)
    assert main(["--job", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-claim1", "verify-exact2"])
def test_summands_that_do_not_present_M_exit_two(tmp_path, capsys, command):
    """Both checks that read ``summands`` refuse a list whose direct sum is
    not M, with one message."""
    path = write_job(tmp_path, RING + K_MOD + R_MOD
                     + f"command: {command}\nM: R\nX: k\nc: 1\nd: 2\n"
                       "summands: [R, k]\n")
    assert main(["--job", path]) == 2
    assert capsys.readouterr().err == (
        "error: summands do not present the direct sum m\n")


def test_build_of_infinite_length_module_exits_two(tmp_path, capsys):
    """A build job has no X: its module of infinite length is refused as N,
    the module the corollary builds over."""
    path = write_job(tmp_path, RING + R_MOD + "command: build\nmodule: R\n"
                     "cs: [1]\ngldim_end_N: 0\n")
    assert main(["--job", path]) == 2
    assert capsys.readouterr().err == "error: N must have finite length\n"


BIG_EXPONENT_JOB = (RING + "module m: {gens: [0], relations: "
                    "[[x^40000], [y]]}\ncommand: grade\nmodule: m\n")
BIG_EXPONENT_REPORT = """\
# --- report (canonical) ---
command: grade
engine: 0.1.0
grade: 2
modules:
  m:
    gens: [0]
    relations:
    - [x^40000]
    - [y]
ring:
  char: 101
  order: grevlex
  vars: [x, y]
"""


def test_large_exponents_within_the_bound_run(tmp_path, capsys):
    """x^40000 fits the packed exponent fields; the report is the one the
    engine gave before terms were packed."""
    path = write_job(tmp_path, BIG_EXPONENT_JOB)
    assert main(["--job", path]) == 0
    assert canonical_section(capsys.readouterr().out) == BIG_EXPONENT_REPORT


def test_exponent_past_the_bound_exits_two(tmp_path, capsys):
    path = write_job(tmp_path, BIG_EXPONENT_JOB.replace("40000", "65536"))
    assert main(["--job", path]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "65535" in err


@pytest.mark.parametrize("module", [
    "module F: {gens: [0], relations: []}\n",
    "module F: {gens: [0, 1], relations: [[x, -1]]}\n",
], ids=["R", "R-non-minimal"])
def test_torsionfree_of_free_module_does_not_grow_with_d(module):
    """Ext^i(Tr F, R) = 0 needs no test past i = r: d = 10^9 answers at
    once, for a free module given minimally or with a unit relation."""
    job = parse_job(RING + module + "command: torsionfree\nmodule: F\n"
                    "d: 1000000000\n")
    start = time.perf_counter()
    canonical, _, ok = run_job(job)
    assert time.perf_counter() - start < 1.0
    assert ok and "torsionfree: true\n" in canonical


# -- how M is written ---------------------------------------------------------

@pytest.mark.parametrize("name", ["exact2-s4-depth1", "exact2-s4-depth2",
                                  "exact2-s4", "exact2-r4-O3-2"])
def test_add_M_report_does_not_depend_on_how_M_is_written(name):
    """M = R + Omega^j k passed whole, with no ``summands`` line, gives the
    canonical report of the same job with its summands listed."""
    doc = JOBS[name]
    whole = "".join(line for line in doc.splitlines(keepends=True)
                    if not line.startswith("summands:"))
    assert whole != doc
    want = (GOLDEN / f"{name}.yml").read_text(encoding="utf-8")
    assert run_job(parse_job(whole))[0] == want


@pytest.mark.parametrize("written", ["listed", "whole"])
def test_exact2_builds_hom_into_R_once_per_module(written, monkeypatch):
    """One verify-exact2 run builds Hom(m, R) at most once for each module
    object m: the free generators that ``validate``, ``add_M_resolution``
    and the summand reduction all ask for are cached on m."""
    doc = JOBS["exact2-s4"]
    if written == "whole":
        doc = "".join(line for line in doc.splitlines(keepends=True)
                      if not line.startswith("summands:"))
    sources = []              # kept alive, so that ids stay distinct
    real = homalg.HomModule.__init__

    def counting(self, source, target):
        if (target.gen_degrees == (0,)
                and target.relations.source_rank == 0):
            sources.append(source)
        real(self, source, target)

    monkeypatch.setattr(homalg.HomModule, "__init__", counting)
    run_job(parse_job(doc))
    ids = [id(m) for m in sources]
    assert ids and len(set(ids)) == len(ids)


def test_verify_exact2_forms_the_listed_sum_once(monkeypatch):
    """One verify-exact2 job with ``summands:`` forms the direct sum of the
    listed modules exactly once: the CLI checks it against M and hands it
    on as M, and no check forms it again."""
    job = parse_job(JOBS["exact2-s4"])
    listed = (job.modules["R"], job.modules["O2"])
    sums = []

    def counting(*modules):
        if len(modules) == 2 and all(map(operator.is_, modules, listed)):
            sums.append(modules)
        return direct_sum(*modules)

    for namespace in (cli, homalg, ncr):
        monkeypatch.setattr(namespace, "direct_sum", counting)
    canonical, _, ok = run_job(job)
    assert ok and len(sums) == 1
    assert canonical == (GOLDEN / "exact2-s4.yml").read_text(encoding="utf-8")


DECOMPOSABLE_SUMMAND_JOB = (
    RING + K_MOD + R_MOD
    + "module OO: {gens: [1, 1, 1, 1], "
      "relations: [[y, -x, 0, 0], [0, 0, y, -x]]}\n"
    + "module M: {gens: [0, 1, 1, 1, 1], "
      "relations: [[0, y, -x, 0, 0], [0, 0, 0, y, -x]]}\n"
    + "command: verify-exact2\nM: M\nX: k\nc: 0\nd: 1\ndepth: 2\n"
    + "summands: [R, OO]\n")


def test_decomposable_summand_exits_two(tmp_path, capsys):
    """A summand Omega k + Omega k given as one block cannot be made basic:
    exit 2 with a message naming the summand by its module name, and no
    traceback."""
    path = write_job(tmp_path, DECOMPOSABLE_SUMMAND_JOB)
    assert main(["--job", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: summand OO of M")
    assert "indecomposable summands" in err and "Traceback" not in err


RING3 = ("ring: {char: 101, vars: [x, y, z], order: grevlex}\n"
         "module R: {gens: [0], relations: []}\n")


@pytest.mark.parametrize("params, expected", [
    ("module N: {gens: [-100000], relations: [[x]]}\n"
     "command: hom\nsource: R\ntarget: N\n",
     ["hilbert: [100001, 100002, 100003, 100004, 100005, 100006, 100007]",
      "k_dimension: infinite"]),
    ("module M: {gens: [0, 100000], relations: []}\n"
     "module k: {gens: [0], relations: [[x], [y], [z]]}\n"
     "command: verify-exact2\nM: M\nX: k\nc: 0\nd: 1\n",
     ["status: verified"]),
    ("module Q: {gens: [0], relations: [[x^3000], [y^3000], [z^3000]]}\n"
     "command: hom\nsource: R\ntarget: Q\n",
     ["hilbert: [1, 3, 6, 10, 15, 21, 28]", "k_dimension: 27000000000"]),
    ("module X: {gens: [0], relations: [[x^1000], [y^1000], [z^1000]]}\n"
     "command: verify-claim1\nM: R\nX: X\nc: 1\nd: 3\n",
     ["D1: 1000000000", "D2: 1000000000", "map_rank: 1000000000",
      "status: verified"]),
], ids=["hom-far-twist", "exact2-far-twist", "hom-high-powers",
        "claim1-high-powers"])
def test_hilbert_data_is_counted_not_enumerated(tmp_path, params, expected):
    """Hilbert functions, k-dimensions and ranks far out of reach of listing
    monomials one by one: a generator in degree -100000, a free summand in
    degree 100000 (dim End(M)_0), 3000^3 standard monomials, and the claim-1
    map rank on 1000^3 of them, read off the one generator of End(X).
    Each job runs as its own process under a timeout, so a hang fails the
    test."""
    path = write_job(tmp_path, RING3 + params)
    proc = subprocess.run(
        [sys.executable, "-m", "ncres.cli", "--job", path],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for line in expected:
        assert line in proc.stdout

