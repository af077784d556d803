#!/usr/bin/env python3
"""Debugging a buggy scheduler with the framework's tools.

The paper's section 3.1 admits Enoki cannot prevent semantic bugs —
"schedulers ... can deadlock, lose tasks, and violate work conservation.
We attempt to catch as many of these bugs as we can at runtime."

This demo plants a lost-wakeup bug in a FIFO scheduler and catches it
three different ways:

1. the **watchdog** flags the lost task at runtime;
2. the **tracer** shows the victim CPU going idle while work waits;
3. **record/replay** pinpoints the first call where the buggy scheduler
   diverges from the correct one.

Run:  python examples/debugging_tools.py
"""

from repro.core import Recorder, ReplayEngine
from repro.core.watchdog import SchedulerWatchdog
from repro.exp import KernelBuilder
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel.clock import msecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.tracing import SchedTracer

POLICY = 7


class LossyFifo(EnokiFifo):
    """The planted bug: every fourth wakeup is dropped on the floor."""

    def __init__(self, nr_cpus, policy):
        super().__init__(nr_cpus, policy)
        self._wakeups = 0

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        self._wakeups += 1
        if self._wakeups % 4 == 0:
            return   # oops
        super().task_wakeup(pid, agent_data, deferrable, last_run_cpu,
                            wake_up_cpu, waker_cpu, sched)


def build(scheduler, recorder=None):
    return (KernelBuilder("smp:2").with_native("cfs")
            .with_enoki(scheduler, policy=POLICY, recorder=recorder)
            .build().kernel)


def workload(kernel):
    def prog():
        for _ in range(6):
            yield Run(msecs(1))
            yield Sleep(msecs(1))

    return [kernel.spawn(prog, policy=POLICY) for _ in range(4)]


def main():
    # 1. The watchdog catches the lost task live.
    recorder = Recorder()
    kernel = build(LossyFifo, recorder=recorder)
    tracer = SchedTracer.attach(kernel)
    watchdog = SchedulerWatchdog(kernel, POLICY,
                                 lost_task_ns=msecs(15))
    workload(kernel)
    kernel.run_until(msecs(120))
    recorder.stop()
    report = watchdog.stop()
    print("watchdog findings:")
    for finding in report.findings[:4]:
        print(f"  [{finding.kind}] t={finding.at_ns / 1e6:.1f} ms "
              f"pid={finding.pid} cpu={finding.cpu}: {finding.detail}")

    # 2. The tracer shows the idle-while-work-waits window.
    if report.findings:
        cpu = report.findings[0].cpu
        spans = tracer.timeline(cpu)[-5:]
        print(f"\nlast activity on cpu{cpu}:")
        for start, end, pid in spans:
            who = f"pid {pid}" if pid is not None else "idle"
            print(f"  {start / 1e6:8.2f} - {end / 1e6:8.2f} ms  {who}")

    # 3. Replay against the CORRECT scheduler localises the divergence.
    engine = ReplayEngine(lambda: EnokiFifo(2, POLICY), recorder.entries)
    result = engine.run_sequential()
    print(f"\nreplaying the buggy trace against the fixed scheduler: "
          f"{len(result.divergences)} divergences")
    if result.divergences:
        first = result.divergences[0]
        print(f"  first at seq {first.seq} in {first.function}: "
              f"recorded {first.expected!r}, fixed code answers "
              f"{first.actual!r}")
        print("  -> the recorded run stopped returning this task: "
              "inspect task_wakeup")


if __name__ == "__main__":
    main()
