"""The benchmark's own tracing: in-memory spans around the calls into the
program, and the cProfile pass that attributes one repeat of a workload
to layers by source file.

Spans here are recorded from perfbench's side of each call only; spans
inside the program are a later issue (ROADMAP item 4a).
"""

import cProfile
import json
import os
import time
from contextlib import contextmanager

from perfbench.layers import LAYERS, layer_of


class Tracer:
    """Spans of one child run: ``child`` -> ``setup`` / ``warmup`` /
    ``repeat[i]`` / ``traced_pass`` / ``driver:<name>``.  Each span keeps
    name, start, end and its parent's id; the workload name is the
    identifier all spans of a run share."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(),
                  "cpu_start": time.process_time()}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end_ns"] = time.perf_counter_ns()
            record["cpu_s"] = time.process_time() - record.pop("cpu_start")

    def write(self, path, layer_table):
        """Chrome trace format (load in Perfetto / chrome://tracing);
        the per-layer table rides beside the events."""
        origin = self.spans[0]["start_ns"] if self.spans else 0
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (s["start_ns"] - origin) / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "args": {"id": s["id"], "parent": s["parent"],
                     "workload": self.workload, "cpu_s": s["cpu_s"]},
        } for s in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "workload": self.workload,
                       "layers": layer_table}, handle, indent=1)


def profile_layers(fn):
    """Run ``fn()`` under cProfile.  Returns ``(fn's result, total calls,
    {layer: {"self_s", "calls"}})``.  Self time is cProfile's ``tottime``
    (time in the function itself, callees excluded), so layers do not
    double-count; calls are Python and C calls as cProfile counts them,
    which repeat exactly for the same inputs."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    total_calls = 0
    for entry in profiler.getstats():
        code = entry.code
        layer = ("host" if isinstance(code, str)
                 else layer_of(code.co_filename))
        table[layer]["self_s"] += entry.inlinetime
        table[layer]["calls"] += entry.callcount
        total_calls += entry.callcount
    return result, total_calls, table
