"""Spans recorded around the benchmark's calls into each layer, and the
per-layer metrics derived from them.

The traced run records one span per op and one child span per call the op
makes into the library (or per CLI invocation). Spans stay in memory and
are written out when the run ends. No span is recorded inside `src/`.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from workloads import Op, OpError


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the parent span, None for an op span
    op_id: int
    failed: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._children: dict[int, list[int]] = defaultdict(list)  # op_id -> child span indices

    def run(self, op: Op) -> list | OpError:
        """`workloads.execute` with a span around the op and each of its calls."""
        parent = len(self.spans)
        self.spans.append(Span(f"op.{op.cls}", perf_counter(), 0.0, None, op.op_id))
        results = []
        out: list | OpError = results
        for c in op.calls:
            start = perf_counter()
            try:
                results.append(c.fn(*c.args, **c.kwargs))
            except Exception as exc:  # an op that raises is a failed op, not a crashed run
                out = OpError(len(results), exc)
            self._children[op.op_id].append(len(self.spans))
            self.spans.append(Span(c.span, start, perf_counter(), parent, op.op_id, isinstance(out, OpError)))
            if isinstance(out, OpError):
                break
        self.spans[parent].end = perf_counter()
        return out

    def record(self, name: str, op_id: int, fn) -> None:
        """A span with no parent, around a call that is not part of the
        workload, made just before op `op_id` (whose speed scale it takes)."""
        start = perf_counter()
        fn()
        self.spans.append(Span(name, start, perf_counter(), None, op_id))

    def mark_failed(self, op_id: int, call: int) -> None:
        children = self._children[op_id]
        if call < len(children):
            self.spans[children[call]].failed = True

    def self_times(self, scale: list[float]) -> list[float]:
        """Each span's duration minus the time its children cover (children
        of one op run one after another, so their durations add up), at the
        reference speed: times the scale factor of its op (see speed.py)."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return [t * scale[s.op_id] for t, s in zip(own, self.spans)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def layer_stats(tracer: Tracer, scale: list[float]) -> dict[str, dict[str, float]]:
    """calls, busy_s (self time), ms_p50 and failed for every span name."""
    own = tracer.self_times(scale)
    groups: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(tracer.spans):
        groups[s.name].append(i)
    return {
        name: {
            "calls": len(idx),
            "busy_s": sum(own[i] for i in idx),
            "ms_p50": 1e3 * statistics.median(own[i] for i in idx),
            "failed": sum(tracer.spans[i].failed for i in idx),
        }
        for name, idx in groups.items()
    }


def per_layer_metrics(names: dict[str, str], tracer: Tracer, scale: list[float], fired: dict[str, int],
                      overhead_frac: float) -> dict[str, dict]:
    """Every per-layer metric BENCHMARK.json names, times at the reference
    speed (`scale` holds each op's factor). A layer the workload never
    calls reads 0."""
    stats = layer_stats(tracer, scale)
    out = {}
    for name, unit in names.items():
        if name == "trace.overhead_frac":
            value = overhead_frac
        elif name.endswith(".fired"):
            value = fired.get(name.removeprefix("oracle.implication_trial.").removesuffix(".fired"), 0)
        else:
            span, stat = name.rsplit(".", 1)
            value = stats.get(span, {}).get(stat, 0)
        out[name] = {"value": value, "unit": unit}
    return out
