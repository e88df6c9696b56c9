"""Batch interface: parse a job document, run the requested computation or
verification, and emit a deterministic report.

Job documents are YAML mappings:

    ring: {char: 101, vars: [x, y], order: grevlex}
    module k: {gens: [0], relations: [[x], [y]]}
    command: grade
    module: k

Reports have a canonical section (stable ordering, no timestamps) followed by
a separate timing section.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import NamedTuple

import yaml

from .ring import (_VAR_RE, AlgebraError, DegreeError, EngineError,
                   ParseError, RingContext, format_polynomial,
                   parse_polynomial)
from .groebner import FreeModuleMap
from .modules import FPModule, INFINITE, minimal_resolution, syzygy
from .homalg import (ext, grade, hom_module, is_d_torsionfree, stable_hom,
                     transpose)
from .ncr import (ENGINE_VERSION, NCRHypotheses, Verdict, corollary_build,
                  verify_claim1, verify_exact2, verify_lemmas)

CANONICAL_MARK = "# --- report (canonical) ---"
TIMING_MARK = "# --- timing (non-canonical) ---"
# hom and ext print the Hilbert function in degrees 0..HILBERT_DEGREE
HILBERT_DEGREE = 6


class _UniqueKeys:
    """Loader part that refuses a mapping with a repeated key, which YAML
    would otherwise resolve silently to the last value."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # merge keys (<<) and value keys (=) are resolved by the base
            # class, which has no constructor for them as plain keys
            if key_node.tag in ("tag:yaml.org,2002:merge",
                                "tag:yaml.org,2002:value"):
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                repeated = key in seen
            except TypeError:
                continue  # an unhashable key; the base class reports it
            if repeated:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark)
            seen.add(key)
        return super().construct_mapping(node, deep)


# libyaml's parser and emitter where PyYAML was built with them, the pure
# Python safe classes otherwise: the same documents and reports either way
if yaml.__with_libyaml__:
    _SafeLoader, _Dumper = yaml.CSafeLoader, yaml.CSafeDumper
else:
    _SafeLoader, _Dumper = yaml.SafeLoader, yaml.SafeDumper


class _Loader(_UniqueKeys, _SafeLoader):
    pass


def _load_yaml(source):
    return yaml.load(source, Loader=_Loader)


def _dump_yaml(doc, **options) -> str:
    return yaml.dump(doc, Dumper=_Dumper, sort_keys=True, **options)


class JobSpec(NamedTuple):
    """Parsed job: ring, named modules, command and flat parameters."""

    ring: RingContext
    modules: dict
    command: str
    params: dict


def _is_int(value) -> bool:
    # YAML reads true/false as bool, which is a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_ring(desc) -> RingContext:
    if not isinstance(desc, dict):
        raise ParseError("ring: expected a mapping")
    char = desc.get("char")
    if not _is_int(char):
        raise ParseError("ring.char: expected an integer")
    variables = desc.get("vars")
    if not isinstance(variables, list) or not variables:
        raise ParseError("ring.vars: expected a non-empty list")
    for name in variables:
        # a name the polynomial grammar reads as one variable, no power
        m = _VAR_RE.match(name) if isinstance(name, str) else None
        if m is None or m.group(2):
            raise ParseError(f"ring.vars: {name!r} is not a variable name")
    if len(set(variables)) != len(variables):
        raise ParseError("ring.vars: duplicate variable")
    order = desc.get("order", "grevlex")
    try:
        return RingContext(char, tuple(variables), order)
    except AlgebraError as e:
        raise ParseError(f"ring: {e}") from e


def _parse_module(name: str, desc, ctx: RingContext) -> FPModule:
    if not isinstance(desc, dict):
        raise ParseError(f"module {name}: expected a mapping")
    gens = desc.get("gens")
    if not isinstance(gens, list) or not all(_is_int(g) for g in gens):
        raise ParseError(f"module {name}.gens: expected a list of integers")
    rows = desc.get("relations", [])
    if not isinstance(rows, list):
        raise ParseError(f"module {name}.relations: expected a list of rows")
    cols = []
    col_degs = []
    for j, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != len(gens):
            raise ParseError(
                f"module {name}, relation {j}: expected {len(gens)} entries")
        col = []
        for i, text in enumerate(row):
            if not (isinstance(text, str) or _is_int(text)):
                raise ParseError(f"module {name}, relation {j}, entry {i}: "
                                 "expected a polynomial")
            try:
                col.append(parse_polynomial(str(text), ctx))
            except ParseError as e:
                raise ParseError(
                    f"module {name}, relation {j}, entry {i}: {e}") from e
        # the degree of the first nonzero entry; the constructor checks
        # every term against it
        col_degs.append(next((gens[i] + p.degree for i, p in enumerate(col)
                              if not p.is_zero()), 0))
        cols.append(col)
    try:
        rel = FreeModuleMap(ctx, tuple(col_degs), tuple(gens), cols)
    except DegreeError as e:
        raise ParseError(f"module {name}: inhomogeneous relation: {e}") from e
    return FPModule(ctx, tuple(gens), rel)


def parse_job(source) -> JobSpec:
    """Job from its text or an open job file; errors in a file's YAML name
    the file."""
    try:
        doc = _load_yaml(source)
    except yaml.YAMLError as e:
        raise ParseError(f"job document: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("job document: expected a mapping")
    if "ring" not in doc:
        raise ParseError("job document: missing ring")
    ctx = _parse_ring(doc["ring"])
    modules = {}
    params = {}
    command = None
    for key, value in doc.items():
        if key == "ring":
            continue
        if isinstance(key, str) and key.startswith("module "):
            name = key[len("module "):].strip()
            modules[name] = _parse_module(name, value, ctx)
        elif key == "command":
            command = value
        else:
            params[key] = value
    if command not in COMMANDS:
        raise ParseError(f"unknown command {command!r}")
    for key in params:
        if key not in _COMMAND_TABLE[command][1]:
            raise ParseError(f"command {command} reads no key {key!r}")
    return JobSpec(ring=ctx, modules=modules, command=command, params=params)


def print_job(job: JobSpec) -> str:
    """Canonical text for a JobSpec; parse(print(job)) == job."""
    doc = {"ring": _ring_summary(job.ring), "command": job.command}
    for name, m in job.modules.items():
        doc[f"module {name}"] = _module_desc(m)
    doc.update(job.params)
    return _dump_yaml(doc, default_flow_style=None)


# -- report helpers ----------------------------------------------------------

def _ring_summary(ctx) -> dict:
    return {"char": ctx.characteristic, "vars": list(ctx.variables),
            "order": ctx.order}


def _clean(value):
    if value is INFINITE:
        return "infinite"
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def _module_desc(m: FPModule) -> dict:
    return {"gens": list(m.gen_degrees),
            "relations": [[format_polynomial(f) for f in col]
                          for col in m.relations.cols]}


def _verdict_desc(v: Verdict) -> dict:
    return {"status": v.status, "evidence": _clean(v.evidence)}


def _need_module(job: JobSpec, key: str) -> FPModule:
    name = job.params.get(key)
    if not isinstance(name, str) or name not in job.modules:
        raise AlgebraError(f"parameter {key!r}: unknown module {name!r}")
    return job.modules[name]


def _need_int(job: JobSpec, key: str, default=None) -> int:
    value = job.params.get(key, default)
    if not _is_int(value):
        raise AlgebraError(f"parameter {key!r}: expected an integer")
    return value


def _hypotheses(job: JobSpec) -> NCRHypotheses:
    M = _need_module(job, "M")
    X = _need_module(job, "X")
    summands = None
    if "summands" in job.params:
        names = job.params["summands"]
        if not (isinstance(names, list)
                and all(isinstance(n, str) and n in job.modules
                        for n in names)):
            raise AlgebraError(
                "parameter 'summands': expected a list of module names")
        summands = tuple(job.modules[n] for n in names)
    return NCRHypotheses(
        M=M, X=X, c=_need_int(job, "c"), d=_need_int(job, "d"),
        gldim_end_M=_need_int(job, "gldim_end_M", 0),
        gldim_end_X=_need_int(job, "gldim_end_X", 0),
        summands=summands)


# -- commands ----------------------------------------------------------------
# Each command fills the report and returns whether every verdict is verified.

def _run_grade(job, report):
    report["grade"] = _clean(grade(_need_module(job, "module")))
    return True


def _run_syzygy(job, report):
    m = _need_module(job, "module")
    c = _need_int(job, "c")
    report["betti"] = list(minimal_resolution(m, min(c + 1, job.ring.nvars)).betti)
    report["syzygy"] = _module_desc(syzygy(m, c))
    return True


def _run_torsionfree(job, report):
    m = _need_module(job, "module")
    report["torsionfree"] = is_d_torsionfree(m, _need_int(job, "d"))
    return True


def _run_ext(job, report):
    m = _need_module(job, "module")
    n = _need_module(job, "target")
    e = ext(_need_int(job, "i"), m, n)
    report["ext"] = _module_desc(e)
    report["k_dimension"] = _clean(e.k_dimension())
    report["hilbert"] = e.hilbert_function(HILBERT_DEGREE)
    return True


def _run_hom(job, report):
    h = hom_module(_need_module(job, "source"), _need_module(job, "target"))
    report["hom"] = _module_desc(h.module)
    report["k_dimension"] = _clean(h.module.k_dimension())
    report["hilbert"] = h.module.hilbert_function(HILBERT_DEGREE)
    return True


def _run_stablehom(job, report):
    sh = stable_hom(_need_module(job, "source"), _need_module(job, "target"))
    report["quotient"] = _module_desc(sh.quotient)
    report["quotient_is_zero"] = sh.quotient.is_zero()
    report["k_dimension"] = _clean(sh.quotient.k_dimension())
    return True


def _run_transpose(job, report):
    report["transpose"] = _module_desc(transpose(_need_module(job, "module")))
    return True


def _run_build(job, report):
    N = _need_module(job, "module")
    cs = job.params.get("cs")
    if not (isinstance(cs, list) and all(_is_int(c) for c in cs)):
        raise AlgebraError("parameter 'cs': expected a list of integers")
    rep = corollary_build(N, cs, _need_int(job, "gldim_end_N", 0))
    report["bound"] = rep.bound
    report["closed_form"] = rep.closed_form
    report["trace"] = _clean(rep.trace)
    report["verdicts"] = [_verdict_desc(v) for v in rep.hypothesis_results]
    return rep.all_verified()


def _run_verify_claim1(job, report):
    v = verify_claim1(_hypotheses(job))
    report["verdict"] = _verdict_desc(v)
    return v.ok


def _run_verify_exact2(job, report):
    h = _hypotheses(job)
    try:
        v = verify_exact2(h, _need_int(job, "depth", 4))
    except AlgebraError as e:
        l = getattr(e, "summand", None)
        if l is None:
            raise
        # the refusal names the summand by its index; the job knows its name
        name = job.params.get("summands", [job.params["M"]])[l]
        raise AlgebraError(str(e).replace(f"summand {l} ", f"summand {name} ",
                                          1)) from None
    report["verdict"] = _verdict_desc(v)
    return v.ok


def _run_verify_lemmas(job, report):
    v = verify_lemmas(job.ring)
    report["items"] = v.evidence["items"]
    return v.ok


# command -> (its handler, the parameter keys it reads); a job with any
# other key is refused
_HYPOTHESES = ("M", "X", "c", "d", "summands", "gldim_end_M", "gldim_end_X")
_COMMAND_TABLE = {
    "grade": (_run_grade, ("module",)),
    "syzygy": (_run_syzygy, ("module", "c")),
    "torsionfree": (_run_torsionfree, ("module", "d")),
    "ext": (_run_ext, ("module", "target", "i")),
    "hom": (_run_hom, ("source", "target")),
    "stablehom": (_run_stablehom, ("source", "target")),
    "transpose": (_run_transpose, ("module",)),
    "build": (_run_build, ("module", "cs", "gldim_end_N")),
    "verify-claim1": (_run_verify_claim1, _HYPOTHESES),
    "verify-exact2": (_run_verify_exact2, _HYPOTHESES + ("depth",)),
    "verify-lemmas": (_run_verify_lemmas, ()),
}
# a tuple, so that ``in COMMANDS`` also answers for unhashable YAML values
COMMANDS = tuple(_COMMAND_TABLE)


def run_job(job: JobSpec):
    """Execute a job; returns (canonical_text, timing_text, all_verified)."""
    start = time.perf_counter()
    report = {"engine": ENGINE_VERSION,
              "ring": _ring_summary(job.ring),
              "command": job.command,
              "modules": {name: _module_desc(m)
                          for name, m in sorted(job.modules.items())}}
    ok = _COMMAND_TABLE[job.command][0](job, report)
    elapsed = time.perf_counter() - start
    canonical = (CANONICAL_MARK + "\n"
                 + _dump_yaml(_clean(report), default_flow_style=None))
    timing = (TIMING_MARK + "\n"
              + _dump_yaml({"elapsed_seconds": round(elapsed, 3)}))
    return canonical, timing, ok


def summarize(job: JobSpec, ok: bool) -> str:
    state = "verified" if ok else "NOT verified"
    return (f"command {job.command} over F_{job.ring.characteristic}"
            f"[{', '.join(job.ring.variables)}]: {state}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ncres",
        description="Run batch verification jobs for the syzygy-based "
                    "resolution construction.")
    ap.add_argument("--job", required=True, help="job document to run")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--summary", action="store_true",
                    help="print a one-line plain-text summary")
    args = ap.parse_args(argv)
    try:
        try:
            with open(args.job, encoding="utf-8") as fh:
                job = parse_job(fh)
        except UnicodeDecodeError as e:
            raise ParseError(f"{args.job}: not UTF-8 text ({e.reason} at "
                             f"byte {e.start})") from None
        canonical, timing, ok = run_job(job)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(canonical + timing)
        else:
            sys.stdout.write(canonical + timing)
    except EngineError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3
    except (ParseError, AlgebraError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.summary:
        print(summarize(job, ok))
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
