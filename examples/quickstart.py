#!/usr/bin/env python3
"""Quickstart: write a scheduler against the Enoki trait and run it.

This is the paper's section 3.1 walk-through, runnable: a per-core FCFS
scheduler loaded through the framework, driven by a small mixed workload,
raced against the CFS baseline on the sched-pipe benchmark.

Run:  python examples/quickstart.py
"""

from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.workloads.pipe_bench import run_pipe_benchmark

POLICY = 7


def build_kernel():
    """An 8-core machine with CFS as the default class and our Enoki
    FIFO loaded above it."""
    session = (KernelBuilder("small8").with_native("cfs")
               .with_enoki("fifo", policy=POLICY).build())
    return session.kernel, session.shim.scheduler


def mixed_workload(kernel):
    """A few tasks with different shapes, all under the Enoki FIFO."""

    def cpu_bound():
        yield Run(msecs(5))

    def interactive():
        for _ in range(20):
            yield Run(usecs(100))
            yield Sleep(usecs(500))

    tasks = [kernel.spawn(cpu_bound, name=f"cpu-{i}", policy=POLICY)
             for i in range(4)]
    tasks += [kernel.spawn(interactive, name=f"ia-{i}", policy=POLICY)
              for i in range(4)]
    kernel.run_until_idle()
    return tasks


def main():
    kernel, scheduler = build_kernel()
    tasks = mixed_workload(kernel)
    print("mixed workload finished at "
          f"t={kernel.now / 1e6:.2f} ms (virtual)")
    for task in tasks:
        print(f"  {task.name:8s} ran {task.sum_exec_runtime_ns / 1e6:6.2f} ms"
              f"  wakeups={task.stats.wakeups}"
              f"  mean wakeup latency="
              f"{task.stats.mean_wakeup_latency_ns / 1e3:6.1f} us")

    # Race the FIFO against CFS on sched-pipe (Table 3's microbenchmark,
    # one-core configuration so placement differences don't interfere).
    kernel, _ = build_kernel()
    fifo = run_pipe_benchmark(kernel, policy=POLICY, rounds=1000,
                              same_core=True)
    kernel2 = KernelBuilder("small8").with_native("cfs").build().kernel
    cfs = run_pipe_benchmark(kernel2, policy=0, rounds=1000,
                             same_core=True)
    print()
    print(f"sched-pipe: Enoki FIFO {fifo.latency_us_per_message:.2f} us/msg"
          f" vs CFS {cfs.latency_us_per_message:.2f} us/msg "
          f"(framework overhead ≈ "
          f"{fifo.latency_us_per_message - cfs.latency_us_per_message:.2f}"
          " us)")


if __name__ == "__main__":
    main()
