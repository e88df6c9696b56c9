"""One workload in one process: set up, then run the job list in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|plain|trace --out RESULT.json

``setup`` stops once the first job is ready.  ``plain`` repeats the whole job
list with tracing off, as often as fits in ``--seconds`` (at least once).
``trace`` runs the list untraced and traced in turn, twice, for the per-layer
metrics, the tracing overhead and the count-repeatability self-test.  The
result file holds timings, resource use and every job's output; run.py checks
the outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import workloads as W

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
CLI_JOB_TIMEOUT_S = 60
TIMING_MARK = "# --- timing (non-canonical) ---"


def _cpu_s():
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- job runners: each returns (output, exit code) ---------------------------

class Exact2Jobs:
    """exact2-r3: job documents through ``parse_job`` and ``run_job``."""

    def __init__(self, seed):
        self.jobs = W.exact2_r3(seed)

    @staticmethod
    def run(job, tracer=None):
        from ncres.cli import parse_job, run_job
        canonical, timing, ok = run_job(parse_job(job[1]))
        if tracer is not None:
            tracer.count("cli.report_bytes",
                         len((canonical + timing).encode()))
        return canonical, 0 if ok else 1


class ResolveJobs:
    """resolve-r4: resolution, Hilbert function and lifts, in-process."""

    def __init__(self, seed):
        self.char, self.jobs = W.resolve_r4(seed)

    def run(self, job, tracer=None):
        from ncres.groebner import FreeModuleMap, lift_solve, vec_to_column
        from ncres.modules import FPModule, minimal_resolution
        from ncres.ring import RingContext, format_polynomial, parse_polynomial
        _, quad_texts, rhs_texts = job
        ctx = RingContext(self.char, W.VARS4, "grevlex")
        quads = [parse_polynomial(t, ctx) for t in quad_texts]
        rel = FreeModuleMap(ctx, [q.degree for q in quads], (0,),
                            [[q] for q in quads])
        m = FPModule(ctx, (0,), rel)
        res = minimal_resolution(m, ctx.nvars + 1)
        betti = [list(res.min_module.gen_degrees)] + [
            list(d.source_degrees) for d in res.maps]
        hf = m.hilbert_function(W.HILBERT_UP_TO)
        gb = [format_polynomial(vec_to_column(v, 1, ctx)[0])
              for v in m.rel_gb().generators]
        lifts = []
        for text in rhs_texts:
            b = parse_polynomial(text, ctx)
            x = lift_solve(rel, FreeModuleMap(ctx, (b.degree,), (0,), [[b]]))
            lifts.append(None if x is None else
                         [format_polynomial(f) for f in x.cols[0]])
        out = {"betti": betti, "complete": res.complete, "hilbert": hf,
               "gb": gb, "lifts": lifts}
        return json.dumps(out, sort_keys=True), 0


class CliJobs:
    """cli-jobs: every job is its own ``python -m ncres.cli`` process."""

    def __init__(self, seed):
        docs, _ = W.cli_jobs(seed)
        self.dir = OUT_DIR / f"cli-jobs-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.jobs = []
        for name, doc in docs:
            path = self.dir / f"{name}.yml"
            path.write_text(doc, encoding="utf-8")
            self.jobs.append((name, path))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, job, tracer=None):
        name, path = job
        if tracer is None:
            cmd = [sys.executable, "-m", "ncres.cli", "--job", str(path)]
        else:
            spans = self.dir / f"{name}.spans.json"
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(spans),
                   "--job", str(path)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=self.env, timeout=CLI_JOB_TIMEOUT_S)
        if tracer is not None:
            tracer.count("cli.report_bytes", len(proc.stdout.encode()))
            if spans.exists():
                tracer.merge_child(json.loads(spans.read_text()))
                spans.unlink()
        # the timing section differs from run to run: keep the canonical
        # section, and the message of a job that did not exit 0
        output = proc.stdout.split(TIMING_MARK)[0]
        if proc.returncode:
            lines = proc.stderr.strip().splitlines() or [""]
            output += f"# stderr: {lines[-1]}\n"
        return output, proc.returncode

    def close(self):
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()


RUNNERS = {"exact2-r3": Exact2Jobs, "resolve-r4": ResolveJobs,
           "cli-jobs": CliJobs}


# -- the closed loop ----------------------------------------------------------

def run_pass(runner, tracer=None):
    """Run every job once, one after another; return per-job records."""
    records = []
    for job in runner.jobs:
        name = job[0]
        if tracer is not None:
            tracer.begin_job(name)
        t0 = time.perf_counter()
        try:
            output, code = runner.run(job, tracer)
            error = None
        except subprocess.TimeoutExpired:
            output, code, error = "", None, "timeout"
        except Exception as e:  # a job that raises is a failed job
            output, code, error = "", None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job(latency)
        records.append({"job": name, "latency_s": latency, "code": code,
                        "error": error, "output": output})
    return records


def _digest(record):
    return hashlib.sha256(json.dumps(
        [record["code"], record["error"], record["output"]]).encode()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=RUNNERS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--mode", choices=("setup", "plain", "trace"),
                    required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import ncres
    if pathlib.Path(ncres.__file__).resolve().parent != SRC / "ncres":
        raise SystemExit(f"ncres imported from {ncres.__file__}, not {SRC}")
    runner = RUNNERS[args.workload](args.seed)
    result = {"ready": time.monotonic()}
    try:
        if args.mode == "plain":
            result.update(_plain(runner, args.seconds))
        elif args.mode == "trace":
            result.update(_traced(runner, args.workload))
    finally:
        if isinstance(runner, CliJobs):
            runner.close()
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(runner, CliJobs)
        else resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024
    pathlib.Path(args.out).write_text(json.dumps(result), encoding="utf-8")


def _plain(runner, seconds):
    passes = []
    start = time.perf_counter()
    # whole passes only, and none that would end after --seconds
    while not passes or (time.perf_counter() - start
                         + max(p["wall_s"] for p in passes) <= seconds):
        t0 = time.perf_counter()
        records = run_pass(runner)
        passes.append({"wall_s": time.perf_counter() - t0,
                       "records": records})
    return {"passes": _compact(passes)}


def _traced(runner, workload):
    """Untraced and traced passes in turn, twice: the traced ones give the
    per-layer metrics and the count-repeatability self-test; tracing
    overhead compares each job's faster untraced and faster traced run."""
    from tracer import Tracer
    passes, layers, selftest, cpu = [], [], [], 0.0
    for i in range(2):
        t0, cpu0 = time.perf_counter(), _cpu_s()
        passes.append({"records": run_pass(runner)})
        passes[-1]["wall_s"] = time.perf_counter() - t0
        cpu += _cpu_s() - cpu0
        tracer = Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            passes.append({"records": run_pass(runner, tracer)})
            passes[-1]["wall_s"] = time.perf_counter() - t0
        layers.append(tracer.metrics())
        selftest += tracer.selftest
        if i == 0:
            tracer.write(OUT_DIR / f"trace-{workload}.json")
    overhead = _fastest(passes[1::2]) / _fastest(passes[::2]) - 1
    for metrics in layers:
        metrics["proc.cpu_s"] = cpu / 2
        metrics["trace.overhead_frac"] = overhead
    return {"passes": _compact(passes), "layers": layers,
            "selftest": selftest}


def _fastest(passes):
    """Sum over the job list of each job's lowest latency in ``passes``."""
    return sum(min(latencies) for latencies in zip(
        *([r["latency_s"] for r in p["records"]] for p in passes)))


def _compact(passes):
    """Every record gets a digest of its outcome; only the first pass keeps
    its outputs, which run.py checks in full."""
    for i, p in enumerate(passes):
        for r in p["records"]:
            r["digest"] = _digest(r)
            if i:
                del r["output"]
    return passes


if __name__ == "__main__":
    main()
