"""Run the benchmark over many seeds and summarize it; record a baseline, or a
second set of runs that checks it.

    python3 perfbench/measure.py [--seeds 1-10]
        [--baseline perfbench/baseline.json | --check perfbench/baseline.json]

For every workload in BENCHMARK.json and every seed it runs ``run.py --trace
0`` for ``run_seconds``, then prints each end-to-end metric's median and
spread (the distance between the first and third quartile over the seeds, as
a share of the median) next to the metric's bound.  ``--baseline`` also makes
one traced run per workload on the first seed and writes machine, commit,
seeds, every run's result and the per-layer predictions to the given file.
``--check`` runs the baseline's seeds again and adds them to the file under
``check``, with each median's change against the baseline's.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _measure(bench, workload, seeds):
    """Run every seed; print and return the runs and each metric's median
    and spread."""
    runs = {}
    for seed in seeds:
        res = _run(workload, seed, bench["run_seconds"], 0)
        runs[str(seed)] = res
        print(workload, seed, res["correct"], res["attempted"],
              res["failed"], {k: round(v["value"], 4)
                              for k, v in res["metrics"].items()},
              flush=True)
    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs.values()]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        summary[name] = {"median": med, "spread": (q3 - q1) / med}
        print(f"  {name:14s} median {med:.4f}  spread "
              f"{(q3 - q1) / med:.3f}  bound {metric['bound']}", flush=True)
    return {"summary": summary, "runs": runs}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--baseline", type=pathlib.Path)
    mode.add_argument("--check", type=pathlib.Path)
    args = ap.parse_args(argv)
    if args.check:
        record = json.loads(args.check.read_text())
        record["check"] = {"commit": _commit(), "workloads": {}}
        seeds = record["seeds"]
    else:
        record = {"machine": {"nproc": os.cpu_count(),
                              "python": platform.python_version(),
                              "platform": platform.platform()},
                  "commit": _commit(), "seeds": args.seeds,
                  "run_seconds": bench["run_seconds"], "workloads": {},
                  "should_move": tracer.SHOULD_MOVE}
        seeds = args.seeds
    for w in bench["workloads"]:
        entry = _measure(bench, w["name"], seeds)
        if args.check:
            base = record["workloads"][w["name"]]["summary"]
            for metric in bench["end_to_end"]:
                name = metric["name"]
                s = entry["summary"][name]
                s["change"] = s["median"] / base[name]["median"] - 1
                print(f"  {name:14s} median change {s['change']:+.3f}",
                      flush=True)
            record["check"]["workloads"][w["name"]] = entry
        elif args.baseline:
            entry["why"] = w["why"]
            entry["traced"] = _run(w["name"], seeds[0],
                                   bench["run_seconds"], 1)
            record["workloads"][w["name"]] = entry
        out = args.baseline or args.check
        if out:  # after every workload, so that a cut run keeps what it has
            out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
