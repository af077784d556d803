#!/usr/bin/env python3
"""Custom scheduler hints demo (paper sections 3.3 / 5.5).

An application whose thread pairs communicate heavily tells the
locality-aware scheduler which threads belong together.  We run the same
workload three ways — CFS, locality scheduler without hints (random), and
with hints — and print the wakeup-latency medians, the Table 6 shape.

Run:  python examples/locality_hints.py
"""

from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs
from repro.workloads.schbench import run_schbench

POLICY = 9


def run(mode):
    builder = KernelBuilder("small8").with_native("cfs")
    kwargs = dict(message_threads=2, workers_per_thread=2,
                  warmup_ns=msecs(50), duration_ns=msecs(400))
    if mode == "cfs":
        return run_schbench(builder.build().kernel, 0, **kwargs)
    kernel = builder.with_enoki(
        "locality", policy=POLICY,
        mode="random" if mode == "random" else "hints").build().kernel
    return run_schbench(kernel, POLICY,
                        hint_locality=(mode == "hints"), **kwargs)


def main():
    print("modified schbench, 2 message threads x 2 workers "
          "(wakeup latency):")
    for mode in ("cfs", "random", "hints"):
        result = run(mode)
        print(f"  {mode:7s}: p50={result.p50_us:7.1f} us  "
              f"p99={result.p99_us:7.1f} us  "
              f"({len(result.samples_us)} samples)")
    print()
    print("the hinted run co-locates each message thread with its "
          "workers, so wakeups stay core-local — the Table 6 effect")


if __name__ == "__main__":
    main()
