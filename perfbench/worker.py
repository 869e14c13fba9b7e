"""One share of a workload in one process, started by run.py.

It imports seqmeas, builds the seeded round of questions, runs the warm-up,
then asks its share of the round one question at a time (a closed loop with
one caller): part k of P takes units k, k + P, k + 2P, ... of the round.  It
asks its share ``--repeats`` times or, when that is 0, as many times as come
closest to ``--seconds``, at least once.  The last line of its output is one
JSON object with its set-up time, its counts and the latency of every
question it asked.  With ``--trace 1`` it asks the whole round, every
question once traced and once untraced, so the tracing overhead is measured
in the same process, and reports per-layer metrics.

Every time it reports is CPU time of this process (``tracing.CLOCK``); only
the run length, ``--seconds``, is wall time.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import CLOCK  # noqa: E402


def _ask(tracer, qid, question):
    """Time one question; the clock stops before the reference check."""
    start = CLOCK()
    with tracer.question(qid):
        answer = question.ask(tracer)
    return CLOCK() - start, answer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=0,
                        help="passes over the share; 0: as many as come closest to --seconds")
    args = parser.parse_args()

    import tracing
    import workloads
    from seqmeas.feasibility import DEFAULT_OPTIONS

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        warmup, units = workloads.WORKLOADS[args.workload](args.seed, workdir)
        # a question's id is its place in the whole round
        first = [0]
        for unit in units:
            first.append(first[-1] + len(unit))
        share = [(first[u] + i, question)
                 for u in range(args.part, len(units), args.parts)
                 for i, question in enumerate(units[u])]
        plain = tracing.Tracer(False)
        notes: collections.Counter = collections.Counter()
        wrong = 0
        for question in warmup:
            _, answer = _ask(plain, -1, question)
            status, note = question.check(answer)
            if status != workloads.OK:
                wrong += 1
                notes[f"warm-up {status}: {note}"] += 1
        # CPU time since the process started: interpreter start, imports,
        # the inputs and the warm-up
        setup_s = CLOCK()

        # with --trace 1 every question is asked twice in a row, once traced
        # and once not, in an order that alternates, so drifts of machine
        # speed and warm caches cancel out of the overhead
        traced = tracing.Tracer(True, DEFAULT_OPTIONS.stall_delta)
        latencies: list[float] = []
        busy = {False: 0.0, True: 0.0}
        attempted = failed = 0
        check_s = 0.0
        passes = 0
        start, cpu_start = time.monotonic(), CLOCK()
        while True:
            for qid, question in share:
                tracers = (plain,)
                if args.trace:
                    tracers = (plain, traced) if (qid + passes) % 2 else (traced, plain)
                for tracer in tracers:
                    mirror_s = traced.mirror_s
                    seconds, answer = _ask(tracer, qid, question)
                    busy[tracer.enabled] += seconds - (traced.mirror_s - mirror_s)
                    t0 = CLOCK()
                    status, note = question.check(answer)
                    check_s += CLOCK() - t0
                    latencies.append(seconds)
                    attempted += 1
                    failed += status == workloads.FAILED
                    wrong += status == workloads.WRONG
                    if status != workloads.OK:
                        notes[f"{status}: {note}"] += 1
            passes += 1
            if args.repeats:
                if passes >= args.repeats:
                    break
            else:
                # whole passes only, as many as bring the run closest to --seconds
                elapsed = time.monotonic() - start
                if elapsed + elapsed / passes / 2 >= args.seconds:
                    break
        busy_s = CLOCK() - cpu_start - check_s

        result = {"setup_s": setup_s, "attempted": attempted, "failed": failed,
                  "wrong": wrong, "passes": passes, "wall_s": time.monotonic() - start,
                  "notes": dict(notes)}
        if args.trace:
            overhead = 100.0 * (busy[True] / busy[False] - 1.0)
            workloads.stand_in(traced, workdir)
            result["metrics"] = tracing.per_layer_metrics(traced.spans, passes, overhead)
            traced.write(os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        else:
            result.update(
                busy_s=busy_s,
                latencies_ms=[x * 1e3 for x in latencies],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
