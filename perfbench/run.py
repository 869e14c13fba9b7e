"""Benchmark of seqmeas: four workloads, each asked by one caller at a time.

    python3 perfbench/run.py --workload joint-grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                    # all four workloads
    python3 perfbench/run.py --workload universality --steady 10

A run splits the workload's round of questions into PARTS shares and asks
each share once, in a fresh process with BLAS pinned to one thread, one
process after the other.  If more rounds bring the run closer to
``--seconds``, PARTS more processes ask their shares that many more times, so
every run asks whole rounds.  The metrics pool all the processes:
``setup_s`` is the median of their set-ups, the latency percentiles are over
every question they asked.  With ``--trace 1`` a single process asks the
whole round and reports the per-layer metrics instead.  The last line of the
output is one JSON object; the lines before it print every metric by name
and unit.  Results and traces are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("joint-grid", "universality", "luders-channel", "cli-session")
# processes per run; each has a memory layout of its own, and some layouts
# make the cheap questions up to 1.5x faster than others, so a run pools
# several to keep that out of the run-to-run spread
PARTS = 5
# a run must end within 180 s
CHILD_TIMEOUT_S = 150.0
# the highest percentile with at least ten questions beyond it in one
# round, moved down where needed so it falls inside one group of questions
# of similar cost (see README.md)
TAIL_PERCENTILE = {
    "joint-grid": 99.4,
    "universality": 95.5,
    "luders-channel": 89.0,
    "cli-session": 95.0,
}
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, deadline: float,
           part: int = 0, parts: int = 1, repeats: int = 0) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--part", str(part), "--parts", str(parts), "--repeats", str(repeats)]
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker ran past its deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result object the last line prints."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    if trace:
        shares = [_child(workload, seed, seconds, trace, deadline)]
    else:
        shares = [_child(workload, seed, seconds, trace, deadline, part, PARTS, 1)
                  for part in range(PARTS)]
        # as many rounds as bring the run closest to --seconds, at least one
        round_s = sum(s["wall_s"] for s in shares)
        more = max(1, int(seconds / round_s + 0.5)) - 1
        if more:
            shares += [_child(workload, seed, seconds, trace, deadline, part, PARTS, more)
                       for part in range(PARTS)]
    notes: dict = {}
    for share in shares:
        for note, count in share["notes"].items():
            notes[note] = notes.get(note, 0) + count
    for note, count in sorted(notes.items()):
        print(f"  {workload}: {count} x {note}", file=sys.stderr)
    attempted = sum(s["attempted"] for s in shares)
    if trace:
        metrics = shares[0]["metrics"]
    else:
        ms = np.concatenate([s["latencies_ms"] for s in shares])
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in shares), "unit": "s"},
            "questions_per_s": {"value": attempted / sum(s["busy_s"] for s in shares),
                                "unit": "1/s"},
            "question_ms_p50": {"value": float(np.percentile(ms, 50)), "unit": "ms"},
            "question_ms_tail": {
                "value": float(np.percentile(ms, TAIL_PERCENTILE[workload])),
                "unit": "ms",
            },
            "peak_rss_mb": {"value": max(s["peak_rss_mb"] for s in shares), "unit": "MB"},
        }
    return {
        "correct": all(s["wrong"] == 0 for s in shares),
        "attempted": attempted,
        "failed": sum(s["failed"] for s in shares),
        "metrics": metrics,
    }


def _print_metrics(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:14.6g} {m['unit']}")


def _save(name: str, doc) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def steady(workload: str, first_seed: int, runs: int, seconds: float) -> dict:
    """Run one workload ``runs`` times with consecutive seeds and report, for
    each end-to-end metric, median, quartiles and spread next to its bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    results = []
    for seed in range(first_seed, first_seed + runs):
        results.append(run_workload(workload, seed, seconds, 0))
        r = results[-1]
        print(f"seed {seed}: failed {r['failed']}/{r['attempted']} correct={r['correct']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
              flush=True)
    summary = {}
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": values}
        flag = "" if spread < bound / 3 else "  above a third of the bound"
        print(f"{name:20s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound:6.2f}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed shares: {sorted(shares)}")
    return {"workload": workload, "runs": runs, "first_seed": first_seed,
            "correct": all(r["correct"] for r in results),
            "failed_shares": sorted(shares), "metrics": summary}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="K",
                        help="rerun the workload K times with seeds seed..seed+K-1")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "seqmeas", "__init__.py")):
        print(f"seqmeas sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.steady:
            if args.workload == "all":
                parser.error("--steady needs one --workload")
            summary = steady(args.workload, args.seed, args.steady, args.seconds)
            _save(f"steady-{args.workload}-seed{args.seed}.json", summary)
            print(json.dumps(summary))
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            _print_metrics(name, results[name])
            _save(f"result-{name}-seed{args.seed}-trace{args.trace}.json", results[name])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
