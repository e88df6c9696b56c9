"""The ncres benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact2-r3|resolve-r4|cli-jobs \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` there
and nowhere else.  Each workload runs in its own worker process, one job at a
time (closed loop, one client).  ``--trace 0`` prints the end-to-end metrics
of an untraced run; ``--trace 1`` prints the per-layer metrics of a traced run
(see tracer.py).  Outputs are checked after the timed region.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
``failed`` counts jobs that raised, timed out, exited with the wrong code or
gave a wrong report; ``correct`` is false when any report was wrong or a
self-test of the benchmark failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import signal
import statistics
import subprocess
import sys
import time

import workloads as W

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("exact2-r3", "resolve-r4", "cli-jobs")
# fixed job whose latency is slowest_job_s
SLOWEST = {"exact2-r3": "exact2-s4", "resolve-r4": "q8",
           "cli-jobs": W.CLI_HARDEST}
# worker start-ups per run on each side of the timed worker, the very first
# one discarded; with the timed worker's own, setup_s is a median of 11
SETUP_SAMPLES = 6
DEADLINE_S = 170       # every worker is stopped by then
E2E = ("setup_s", "wall_s", "job_p50_s", "job_p80_s", "slowest_job_s",
       "peak_rss_mb")
START = time.monotonic()


def _worker(args, mode, deadline):
    """Run one worker; return (result or None, seconds from spawn to ready)."""
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{os.getpid()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--mode", mode, "--out", str(out)]
    t0 = time.monotonic()
    # own process group, so that a CLI job the worker started dies with it
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None
    if proc.returncode or not out.exists():
        return None, None
    result = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return result, result["ready"] - t0


def _sample_setup(args, deadline, setups, first):
    """Start SETUP_SAMPLES workers that stop once ready; the samples taken
    before and after the timed worker spread setup_s over the whole run."""
    for i in range(SETUP_SAMPLES):
        _, setup = _worker(args, "setup", deadline)
        if setup is None:
            print("error: the worker failed to start", file=sys.stderr)
            return False
        if i or not first:
            setups.append(setup)
    return True


def _outcomes(args, passes):
    """Per record: None, ("failed", why) or ("wrong", why).  The first pass
    is checked in full; a later record is right when its outcome digest
    equals the first pass's for that job."""
    import checks
    first = passes[0]["records"]
    verdicts = dict(zip((r["job"] for r in first),
                        zip(checks.check(args.workload, args.seed, first),
                            (r["digest"] for r in first))))
    out = []
    for p in passes:
        for r in p["records"]:
            verdict, digest = verdicts[r["job"]]
            if r["digest"] != digest:
                verdict = ("failed" if r["error"] or r["code"] is None
                           else "wrong", "outcome differs from first pass")
            out.append(verdict)
    return out


def _end_to_end(args, result, setups):
    records = [r for p in result["passes"] for r in p["records"]]
    latencies = [r["latency_s"] for r in records]
    slowest = [r["latency_s"] for r in records
               if r["job"] == SLOWEST[args.workload]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in result["passes"]),
                   "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_p80_s": (statistics.quantiles(latencies, n=5)[3], "s"),
        "slowest_job_s": (statistics.median(slowest), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _per_layer(result, problems):
    import tracer
    first, second = result["layers"]
    for name in tracer.REPEATABLE:
        if first[name] != second[name]:
            problems.append(f"{name} did not repeat: {first[name]} then "
                            f"{second[name]}")
    problems += result["selftest"]
    return {name: (first[name], unit) for name, unit in tracer.UNITS.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ncres" / "__init__.py").is_file():
        print(f"error: no ncres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = START + DEADLINE_S

    setups = []
    if not args.trace and not _sample_setup(args, deadline, setups, True):
        return 2
    result, setup = _worker(args, "trace" if args.trace else "plain",
                            deadline)
    if result is None:
        print("error: the worker crashed or ran past the deadline",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": _no_result(args)}), flush=True)
        return 0
    setups.append(setup)
    if not args.trace and not _sample_setup(args, deadline, setups, False):
        return 2

    records = [r for p in result["passes"] for r in p["records"]]
    outcomes = _outcomes(args, result["passes"])
    for rec, verdict in zip(records, outcomes):
        if verdict:
            print(f"check: {rec['job']}: {verdict[0]}: {verdict[1]}",
                  file=sys.stderr)
    bench_problems = []
    if args.trace:
        metrics = _per_layer(result, bench_problems)
    else:
        metrics = _end_to_end(args, result, setups)
    for line in bench_problems:
        print(f"self-test: {line}", file=sys.stderr)
    wrong = any(v and v[0] == "wrong" for v in outcomes)
    print(json.dumps({
        "correct": not wrong and not bench_problems,
        "attempted": len(outcomes),
        "failed": sum(map(bool, outcomes)),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}), flush=True)
    return 0


def _no_result(args):
    """Metrics of a run whose worker never reported: every time is the time
    spent, memory is the largest child's."""
    import tracer
    if args.trace:
        return {k: {"value": 0, "unit": u} for k, u in tracer.UNITS.items()}
    spent = time.monotonic() - START
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return {k: {"value": rss if k == "peak_rss_mb" else spent,
                "unit": "MB" if k == "peak_rss_mb" else "s"}
            for k in E2E}


if __name__ == "__main__":
    sys.exit(main())
