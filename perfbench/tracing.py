"""Spans around the benchmark's calls into seqmeas, and the per-layer metrics
derived from them.

A span is (name, start, end, parent, question id, info).  Its name is
``<module>.<function>``; the module is the layer.  Spans are kept in memory
and written out when the run ends.  With tracing off, ``Tracer.call`` is a
plain call, so the untraced run pays for nothing but one method dispatch.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass

import numpy as np

# per-call self times reported for each layer, in the layer's unit
TIMED = {
    "dilation": ("us", ("naimark_minimal", "naimark_canonical", "connecting_isometry")),
    "sequential": ("us", ("universal_channel", "modified_observable", "verify_sequential")),
    "channels": ("us", ("luders", "choi", "conjugate", "heisenberg_apply")),
    "serialize": ("us", ("read", "write")),
    "cli": ("ms", ("joint", "universal", "conjugate-test", "validate", "dilate", "nondisturb")),
    "harness": ("ms", ("run_checks",)),
}
SCALE = {"us": 1e6, "ms": 1e3}

# Every time the benchmark reports, spans and question latencies alike, is
# read from this process's CPU clock.  The program is single-threaded (BLAS
# is pinned to one thread) and does no blocking I/O beyond small files in the
# page cache, so on a dedicated core its CPU time is its wall time; on a
# shared host the wall clock also counts the time the host runs other guests
# (steal), which moved a fixed round of questions by up to 1.8x within a
# minute while its CPU time moved by 1.3x.
CLOCK = time.process_time


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    question: int | None
    info: dict | None = None


def _stall_sweeps(history, delta: float) -> int:
    """Trailing sweeps in which the best residual improved by at most delta."""
    h = np.asarray(history)
    if h.size < 2:
        return 0
    improved = np.nonzero(h[:-1] - h[1:] > delta)[0]
    last = improved[-1] + 1 if improved.size else 0
    return int(h.size - 1 - last)


class Tracer:
    """Records spans when enabled; otherwise calls straight through."""

    def __init__(self, enabled: bool, stall_delta: float = 1e-12):
        self.enabled = enabled
        self.stall_delta = stall_delta
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._question: int | None = None
        self.mirror_s = 0.0

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self._question)
        self.spans.append(span)
        self._stack.append(index)
        span.start = CLOCK()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.info = {"error": type(exc).__name__}
            raise
        finally:
            span.end = CLOCK()
            self._stack.pop()
        history = getattr(result, "residual_history", None)
        if history is not None:
            span.info = {
                "status": result.status,
                "sweeps": int(result.iterations),
                "stall": _stall_sweeps(history, self.stall_delta),
            }
        elif isinstance(result, int) and name == "serialize.write":
            span.info = {"bytes": result}
        return result

    @contextlib.contextmanager
    def question(self, qid: int):
        """Root span of one question; layer spans inside it are its children."""
        if not self.enabled:
            yield
            return
        root = Span("question", CLOCK(), 0.0, None, qid)
        self.spans.append(root)
        self._stack.append(len(self.spans) - 1)
        self._question = qid
        try:
            yield
        finally:
            root.end = CLOCK()
            self._stack.pop()
            self._question = None

    @contextlib.contextmanager
    def mirroring(self):
        """Calls made only for the trace, on a question's own inputs, into
        modules the question reaches only through another module.  Their
        time is kept in ``mirror_s`` so the tracing overhead leaves it out."""
        start = CLOCK()
        try:
            yield
        finally:
            self.mirror_s += CLOCK() - start

    def covered(self, name: str) -> bool:
        return any(s.name == name for s in self.spans)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span less the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def per_layer_metrics(spans: list[Span], rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics; counts are per round of questions."""
    own = self_times(spans)
    by_name: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        by_name.setdefault(s.name, []).append(t)
    out: dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    # counts come from the questions only; the spans of calls that stand in
    # for layers a workload never reaches carry no question id
    asked = [(s, t) for s, t in zip(spans, own) if s.question is not None]
    feas = [(s, t) for s, t in asked if s.name.startswith("feasibility.")]
    solved = [(s, t) for s, t in feas if s.info and "sweeps" in s.info]
    sweeps = sum(s.info["sweeps"] for s, _ in solved)
    stall = sum(s.info["stall"] for s, _ in solved)
    undecided = [s for s, _ in solved if s.info["status"] == "undecided"]
    timed = [(s, t) for s, t in zip(spans, own) if s.info and "sweeps" in s.info]
    one_sweep = [t for s, t in timed if s.info["sweeps"] == 1]
    put("feasibility.calls", len(feas) / rounds, "count")
    put("feasibility.sweeps", sweeps / rounds, "count")
    put("feasibility.sweeps_infeasible",
        sum(s.info["sweeps"] for s, _ in solved if s.info["status"] == "infeasible") / rounds,
        "count")
    put("feasibility.stall_sweeps", stall / rounds, "count")
    put("feasibility.useful_sweep_ratio", 1.0 - stall / sweeps if sweeps else 1.0, "ratio")
    put("feasibility.sweeps_undecided", sum(s.info["sweeps"] for s in undecided) / rounds, "count")
    put("feasibility.undecided", len(undecided) / rounds, "count")
    put("feasibility.us_per_sweep",
        1e6 * sum(t for _, t in timed) / sum(s.info["sweeps"] for s, _ in timed), "us")
    put("feasibility.one_sweep_call_us", 1e6 * statistics.fmean(one_sweep), "us")
    put("feasibility.self_ms", 1e3 * sum(t for _, t in feas) / rounds, "ms")
    put("sequential.failed",
        sum(1 for s, _ in asked if s.name.startswith("sequential.") and s.info) / rounds,
        "count")
    for layer, (unit, fns) in TIMED.items():
        for fn in fns:
            put(f"{layer}.{fn}_{unit}",
                SCALE[unit] * statistics.fmean(by_name[f"{layer}.{fn}"]), unit)
    put("serialize.bytes_written",
        sum(s.info["bytes"] for s, _ in asked if s.name == "serialize.write") / rounds,
        "bytes")
    put("trace.overhead_pct", overhead_pct, "%")
    return out
