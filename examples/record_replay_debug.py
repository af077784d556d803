#!/usr/bin/env python3
"""Record/replay debugging demo (paper section 3.4).

1. Run a pipe workload on the WFQ scheduler with the recorder attached.
2. Save the trace, reload it, and replay it against *the same scheduler
   code* at userspace — it matches.
3. Replay it against a subtly buggy variant — the divergence is caught
   and localised to the first differing call, which is exactly the
   debugging workflow the paper describes.

Run:  python examples/record_replay_debug.py
"""

import tempfile
from pathlib import Path

from repro.core import Recorder, ReplayEngine, load_trace
from repro.exp import KernelBuilder
from repro.schedulers.wfq import EnokiWfq
from repro.workloads.pipe_bench import run_pipe_benchmark

POLICY = 7


class BuggyWfq(EnokiWfq):
    """A 'developer mistake': the placement fast path ignores the
    previous CPU, so every wakeup lands on CPU 0."""

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        if allowed_cpus is not None and 0 not in allowed_cpus:
            return min(allowed_cpus)
        return 0   # BUG: hardcoded core


def main():
    recorder = Recorder()
    kernel = (KernelBuilder("small8").with_native("cfs")
              .with_enoki("wfq", policy=POLICY, recorder=recorder)
              .build().kernel)
    result = run_pipe_benchmark(kernel, policy=POLICY, rounds=300)
    recorder.stop()
    print(f"recorded run: {result.latency_us_per_message:.2f} us/msg, "
          f"{len(recorder.entries)} trace entries "
          f"({recorder.dropped} dropped)")

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "wfq.trace.jsonl"
        recorder.save(str(trace_path))
        entries = load_trace(str(trace_path))
        print(f"trace saved to {trace_path.name}: {len(entries)} entries")

        engine = ReplayEngine(lambda: EnokiWfq(8, POLICY), entries)
        ok = engine.run_sequential()
        print(f"replay (same code, sequential): "
              f"{ok.calls_replayed} calls, "
              f"{'MATCH' if ok.matched else 'DIVERGED'} "
              f"in {ok.wall_seconds:.2f} s")

        threaded = ReplayEngine(
            lambda: EnokiWfq(8, POLICY), entries).run_threaded()
        print(f"replay (same code, threaded lock-order): "
              f"{threaded.calls_replayed} calls, "
              f"{'MATCH' if threaded.matched else 'DIVERGED'} "
              f"in {threaded.wall_seconds:.2f} s")

        buggy = ReplayEngine(lambda: BuggyWfq(8, POLICY), entries)
        bad = buggy.run_sequential()
        print(f"replay (buggy variant): "
              f"{len(bad.divergences)} divergences")
        if bad.divergences:
            first = bad.divergences[0]
            print(f"  first divergence at seq {first.seq} in "
                  f"{first.function}: expected {first.expected!r}, "
                  f"got {first.actual!r}")


if __name__ == "__main__":
    main()
