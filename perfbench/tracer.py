"""Per-layer tracing of ncres from outside the package.

``Tracer.installed()`` replaces the public functions of each layer with
wrappers in every ``ncres.*`` namespace that holds a reference to them (the
upper layers import ``buchberger``, ``lift_solve`` and others by name), and on
exit puts every original back.  Both steps are self-tested.  A span wrapper
records (name, start, end, parent span, job); a count wrapper only counts.
Spans stay in memory until ``write``.

Times named ``<layer>.<fn>_s`` are inclusive: the outermost calls of that
function, nested calls of the same function not counted again.
``groebner.gb_s`` and ``<layer>.self_s`` are self time: span time minus the
time the span's direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# (module, attribute, span name); "Class.method" patches the class
SPANS = (
    ("ncres.ring", "parse_polynomial", "ring.parse"),
    ("ncres.ring", "format_polynomial", "ring.format"),
    ("ncres.groebner", "buchberger_vecs", "groebner.gb"),
    ("ncres.groebner", "reduce_vec", "groebner.nf"),
    ("ncres.groebner", "syzygy_basis", "groebner.syz"),
    ("ncres.groebner", "lift_solve", "groebner.lift"),
    ("ncres.modules", "minimal_presentation", "modules.min_pres"),
    ("ncres.modules", "minimal_generator_indices", "modules.mingen"),
    ("ncres.modules", "minimal_resolution", "modules.min_res"),
    ("ncres.modules", "syzygy", "modules.syzygy"),
    ("ncres.modules", "kernel", "modules.kernel"),
    ("ncres.modules", "kernel_with_inclusion", "modules.kernel"),
    ("ncres.modules", "cokernel", "modules.cokernel"),
    ("ncres.modules", "cokernel_with_projection", "modules.cokernel"),
    ("ncres.modules", "homology", "modules.homology"),
    ("ncres.modules", "FPModule.hilbert_function", "modules.hilbert"),
    ("ncres.homalg", "HomModule.coords_of_morphism", "homalg.coords"),
    ("ncres.homalg", "hom_module", "homalg.hom"),
    ("ncres.homalg", "factor_ideal", "homalg.factor_ideal"),
    ("ncres.homalg", "add_M_resolution", "homalg.add_M"),
    ("ncres.homalg", "stable_hom", "homalg.stable_hom"),
    ("ncres.homalg", "induced_post_hom", "homalg.post_hom"),
    ("ncres.homalg", "ext", "homalg.ext"),
    ("ncres.homalg", "grade", "homalg.grade"),
    ("ncres.homalg", "transpose", "homalg.transpose"),
    ("ncres.homalg", "is_d_torsionfree", "homalg.torsionfree"),
    ("ncres.homalg", "is_generator", "homalg.is_generator"),
    ("ncres.ncr", "NCRHypotheses.validate", "ncr.validate"),
    ("ncres.ncr", "check_theorem_part1", "ncr.part1"),
    ("ncres.ncr", "verify_claim1", "ncr.claim1"),
    ("ncres.ncr", "verify_exact2", "ncr.exact2"),
    ("ncres.ncr", "corollary_build", "ncr.build"),
    ("ncres.cli", "parse_job", "cli.parse_job"),
    ("ncres.cli", "run_job", "cli.run_job"),
)

COUNTS = (
    ("ncres.ring", "Polynomial.__mul__", "ring.poly_mul_calls"),
    ("ncres.ring", "Polynomial.__add__", "ring.poly_add_calls"),
    ("ncres.groebner", "vec_add_scaled", "groebner.reduction_steps"),
)

# per-layer metric -> the span name it is computed from
CALLS = {"ring.parse_calls": "ring.parse", "ring.format_calls": "ring.format",
         "groebner.gb_runs": "groebner.gb", "groebner.nf_calls": "groebner.nf",
         "groebner.syz_calls": "groebner.syz",
         "groebner.lift_calls": "groebner.lift",
         "modules.min_pres_calls": "modules.min_pres",
         "modules.mingen_calls": "modules.mingen",
         "homalg.coords_calls": "homalg.coords",
         "homalg.hom_calls": "homalg.hom",
         "homalg.factor_ideal_calls": "homalg.factor_ideal",
         "ncr.validate_calls": "ncr.validate"}
INCLUSIVE = {"ring.parse_s": "ring.parse", "ring.format_s": "ring.format",
             "groebner.nf_s": "groebner.nf", "groebner.syz_s": "groebner.syz",
             "groebner.lift_s": "groebner.lift",
             "modules.min_pres_s": "modules.min_pres",
             "modules.mingen_s": "modules.mingen",
             "modules.min_res_s": "modules.min_res",
             "modules.kernel_s": "modules.kernel",
             "modules.cokernel_s": "modules.cokernel",
             "modules.homology_s": "modules.homology",
             "homalg.coords_s": "homalg.coords", "homalg.hom_s": "homalg.hom",
             "homalg.factor_ideal_s": "homalg.factor_ideal",
             "homalg.add_M_s": "homalg.add_M",
             "homalg.stable_hom_s": "homalg.stable_hom",
             "homalg.post_hom_s": "homalg.post_hom",
             "ncr.validate_s": "ncr.validate", "ncr.claim1_s": "ncr.claim1",
             "ncr.exact2_s": "ncr.exact2", "ncr.build_s": "ncr.build",
             "cli.parse_job_s": "cli.parse_job",
             "cli.run_job_s": "cli.run_job"}
LAYER_SELF = {"modules.self_s": "modules", "homalg.self_s": "homalg"}

UNITS = dict.fromkeys(CALLS, "count")
UNITS.update(dict.fromkeys(INCLUSIVE, "s"))
UNITS.update(dict.fromkeys(LAYER_SELF, "s"))
UNITS.update({name: "count" for _, _, name in COUNTS})
UNITS.update({"groebner.gb_s": "s", "groebner.gb_repeat_ratio": "ratio",
              "groebner.gb_input_vecs": "count",
              "groebner.gb_basis_max": "count", "cli.process_s": "s",
              "cli.report_bytes": "bytes", "proc.cpu_s": "s",
              "trace.overhead_frac": "ratio", "trace.fingerprint_s": "s"})

# the end-to-end metric each per-layer metric should move, and on which
# workload; with one job at a time, a faster layer saves at most its self time
_PREDICTIONS = (
    (("ring.parse_calls", "ring.parse_s", "ring.format_calls",
      "ring.format_s"), "job_p50_s and job_p80_s on cli-jobs"),
    (("ring.poly_mul_calls", "ring.poly_add_calls"),
     "a few thousand calls per exact2-r3 pass: wall_s on exact2-r3 is "
     "predicted not to move"),
    (("groebner.gb_runs", "groebner.gb_s"),
     "wall_s and slowest_job_s on exact2-r3"),
    (("groebner.gb_repeat_ratio",),
     "wall_s on exact2-r3; about 0 on resolve-r4"),
    (("groebner.gb_input_vecs", "groebner.gb_basis_max"),
     "problem size: moves only if an algorithm changes its inputs"),
    (("groebner.nf_calls", "groebner.nf_s", "groebner.reduction_steps"),
     "wall_s on resolve-r4, then exact2-r3"),
    (("groebner.syz_calls", "groebner.syz_s", "groebner.lift_calls",
      "groebner.lift_s"),
     "wall_s on resolve-r4; exact2-r3 through the Hom coordinates"),
    (("modules.min_pres_calls", "modules.min_pres_s", "modules.mingen_calls",
      "modules.mingen_s", "modules.kernel_s", "modules.cokernel_s",
      "modules.homology_s", "modules.self_s"), "wall_s on exact2-r3"),
    (("modules.min_res_s",), "wall_s on resolve-r4"),
    (("homalg.coords_calls", "homalg.coords_s"),
     "wall_s and slowest_job_s on exact2-r3; 0 on resolve-r4"),
    (("homalg.hom_calls", "homalg.hom_s", "homalg.factor_ideal_calls",
      "homalg.factor_ideal_s", "homalg.add_M_s", "homalg.stable_hom_s",
      "homalg.post_hom_s", "homalg.self_s"), "wall_s on exact2-r3"),
    (("ncr.validate_calls", "ncr.validate_s", "ncr.claim1_s", "ncr.exact2_s",
      "ncr.build_s"), "wall_s and slowest_job_s on exact2-r3"),
    (("cli.parse_job_s", "cli.run_job_s", "cli.process_s",
      "cli.report_bytes"), "job_p50_s, job_p80_s and setup_s on cli-jobs"),
    (("proc.cpu_s",), "tracks wall_s on every workload; a gap flags "
                      "contention"),
    (("trace.overhead_frac", "trace.fingerprint_s"),
     "nothing: the cost of tracing itself"),
)
SHOULD_MOVE = {name: text for names, text in _PREDICTIONS for name in names}
assert set(SHOULD_MOVE) == set(UNITS)

# span of the tracer's own work (the repeat fingerprint of a Buchberger run);
# its time is taken out of the self and inclusive times of every ancestor
TRACE_SPAN = "trace.fingerprint"

# counts that must repeat exactly between two traced runs of one seed
REPEATABLE = ("groebner.gb_runs", "groebner.nf_calls",
              "groebner.reduction_steps", "homalg.coords_calls")


def _resolve(module, attr):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _order_fingerprint(obj):
    """Identity of a term-order key: closures compare by code and cells."""
    if hasattr(obj, "__self__") and hasattr(obj, "__func__"):
        return (obj.__func__.__qualname__, repr(obj.__self__))
    if hasattr(obj, "__code__"):
        cells = obj.__closure__ or ()
        return (obj.__qualname__,
                tuple(_order_fingerprint(c.cell_contents) for c in cells))
    return repr(obj)


class Tracer:
    """Spans and counts of one traced pass over a job list."""

    def __init__(self):
        # span: [name, start, end, parent index, job, outermost of its name]
        self.spans = []
        self.counts = {name: 0 for _, _, name in COUNTS}
        self.counts["cli.report_bytes"] = 0
        self.stack = []
        self.active = {}
        self.job = None
        self.job_first_span = 0
        self.process_s = 0.0
        self.gb_seen = set()
        self.gb_repeats = 0
        self.gb_input_vecs = 0
        self.gb_basis_max = 0
        self.selftest = []
        self._patched = []

    # -- recording -------------------------------------------------------

    def begin_job(self, name):
        self.job = name
        self.job_first_span = len(self.spans)
        self.gb_seen = set()

    def end_job(self, latency):
        """Job latency not covered by the job's parse_job/run_job spans is
        process overhead: interpreter start, imports, YAML, output."""
        covered = [s[2] - s[1] for s in self.spans[self.job_first_span:]
                   if s[0] in ("cli.parse_job", "cli.run_job") and s[5]]
        if covered:
            self.process_s += latency - sum(covered)

    def count(self, name, n=1):
        self.counts[name] += n

    def _span(self, name, fn):
        spans, stack, active = self.spans, self.stack, self.active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job,
                   outer]
            spans.append(rec)
            stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                active[name] -= 1
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _gb(self, fn):
        """buchberger_vecs: a span plus input size, output size, repeats."""
        span = self._span("groebner.gb", fn)

        @functools.wraps(fn)
        def wrapper(vecs, key, *rest):
            t0 = time.perf_counter()
            vecs = list(vecs)
            fp = hash((_order_fingerprint(key),
                       tuple(tuple(sorted(v.items())) for v in vecs)))
            if fp in self.gb_seen:
                self.gb_repeats += 1
            self.gb_seen.add(fp)
            self.gb_input_vecs += len(vecs)
            # the fingerprint is the benchmark's work, not the program's:
            # a span of its own, which metrics() takes out of its ancestors
            self.spans.append([TRACE_SPAN, t0, time.perf_counter(),
                               self.stack[-1] if self.stack else -1,
                               self.job, True])
            out = span(vecs, key, *rest)
            self.gb_basis_max = max(self.gb_basis_max, len(out))
            return out
        return wrapper

    # -- installing ------------------------------------------------------

    def _wrappers(self):
        out = {}
        for module, attr, name in SPANS:
            owner, a = _resolve(module, attr)
            fn = vars(owner)[a]
            out[fn] = (self._gb(fn) if name == "groebner.gb"
                       else self._span(name, fn))
        for module, attr, name in COUNTS:
            owner, a = _resolve(module, attr)
            fn = vars(owner)[a]
            out[fn] = self._counter(name, fn)
        return out

    @staticmethod
    def _namespaces():
        """Every ncres module dict and every class dict defined in ncres."""
        for modname, mod in list(sys.modules.items()):
            if modname != "ncres" and not modname.startswith("ncres."):
                continue
            yield mod
            for value in vars(mod).values():
                if isinstance(value, type) and value.__module__ == modname:
                    yield value

    @contextlib.contextmanager
    def installed(self):
        """Wrap every reference to a traced function; restore on exit.

        Self-test: after install no ncres namespace or class still holds an
        original, and after uninstall every original is back and no wrapper
        is left, so untraced runs measure the untouched program.
        """
        wrappers = self._wrappers()
        wrapper_ids = {id(w) for w in wrappers.values()}
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                wrapper = wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(ns, attr, wrapper)
                    self._patched.append((ns, attr, value))
        self._check("after install: original left in",
                    lambda v: callable(v) and v in wrappers)
        try:
            yield self
        finally:
            for ns, attr, value in self._patched:
                setattr(ns, attr, value)
            for ns, attr, value in self._patched:
                if vars(ns)[attr] is not value:
                    self.selftest.append(
                        f"after uninstall: original not back in "
                        f"{ns.__name__}.{attr}")
            self._patched = []
            self._check("after uninstall: wrapper left in",
                        lambda v: id(v) in wrapper_ids)

    def _check(self, what, bad):
        for ns in self._namespaces():
            for attr, value in vars(ns).items():
                if bad(value):
                    self.selftest.append(f"{what} {ns.__name__}.{attr}")

    # -- results ---------------------------------------------------------

    def merge_child(self, data):
        """Add the spans and counts a traced child process wrote."""
        base = len(self.spans)
        for name, t0, t1, parent, _, outer in data["spans"]:
            self.spans.append([name, t0, t1,
                               parent + base if parent >= 0 else -1,
                               self.job, outer])
        for name, n in data["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.gb_repeats += data["gb_repeats"]
        self.gb_input_vecs += data["gb_input_vecs"]
        self.gb_basis_max = max(self.gb_basis_max, data["gb_basis_max"])
        self.selftest += data["selftest"]

    def dump(self):
        return {"spans": self.spans, "counts": self.counts,
                "gb_repeats": self.gb_repeats,
                "gb_input_vecs": self.gb_input_vecs,
                "gb_basis_max": self.gb_basis_max, "selftest": self.selftest}

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def metrics(self):
        calls, incl, self_by_name = {}, {}, {}
        child_time = [0.0] * len(self.spans)
        trace_time = [0.0] * len(self.spans)  # tracer's own work below a span
        # a parent span starts, and so is appended, before its children
        for i in reversed(range(len(self.spans))):
            name, t0, t1, parent = self.spans[i][:4]
            if parent >= 0:
                child_time[parent] += t1 - t0
                trace_time[parent] += trace_time[i] + (
                    t1 - t0 if name == TRACE_SPAN else 0.0)
        for i, (name, t0, t1, _, _, outer) in enumerate(self.spans):
            self_by_name[name] = (self_by_name.get(name, 0.0)
                                  + (t1 - t0) - child_time[i])
            if outer:
                calls[name] = calls.get(name, 0) + 1
                incl[name] = (incl.get(name, 0.0)
                              + (t1 - t0) - trace_time[i])
        out = {m: calls.get(n, 0) for m, n in CALLS.items()}
        out.update({m: incl.get(n, 0.0) for m, n in INCLUSIVE.items()})
        out.update({m: sum(v for n, v in self_by_name.items()
                           if n.startswith(layer + "."))
                    for m, layer in LAYER_SELF.items()})
        out.update(self.counts)
        runs = out["groebner.gb_runs"]
        out.update({"groebner.gb_s": self_by_name.get("groebner.gb", 0.0),
                    "groebner.gb_repeat_ratio":
                        self.gb_repeats / runs if runs else 0.0,
                    "groebner.gb_input_vecs": self.gb_input_vecs,
                    "groebner.gb_basis_max": self.gb_basis_max,
                    "cli.process_s": self.process_s,
                    "trace.fingerprint_s": self_by_name.get(TRACE_SPAN, 0.0)})
        return out
