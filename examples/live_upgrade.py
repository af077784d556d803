#!/usr/bin/env python3
"""Live upgrade demo (paper section 3.2 / 5.7).

A WFQ scheduler runs a busy multi-task workload; mid-run we hot-swap it
for a new version — twice — without losing a single task.  The second
upgrade transfers state to a *tweaked* policy (double time slices) to
show that upgrades can change behaviour, not just fix bugs.

Run:  python examples/live_upgrade.py
"""

from repro.core import UpgradeManager
from repro.exp import KernelBuilder
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel.clock import msecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState

POLICY = 7


class WfqV2(EnokiWfq):
    """The 'fixed' second version: longer minimum slices."""

    def __init__(self, nr_cpus, policy):
        super().__init__(nr_cpus, policy,
                         min_granularity_ns=1_500_000)


def main():
    session = (KernelBuilder("small8").with_native("cfs")
               .with_enoki("wfq", policy=POLICY).build())
    kernel, shim = session.kernel, session.shim
    manager = UpgradeManager(kernel, shim)

    def worker():
        for _ in range(30):
            yield Run(msecs(1))
            yield Sleep(msecs(1))

    tasks = [kernel.spawn(worker, name=f"w{i}", policy=POLICY)
             for i in range(16)]

    manager.schedule_upgrade(lambda: EnokiWfq(8, POLICY), at_ns=msecs(15))
    manager.schedule_upgrade(lambda: WfqV2(8, POLICY), at_ns=msecs(35))
    kernel.run_until_idle()

    survivors = sum(1 for t in tasks if t.state is TaskState.DEAD)
    print(f"workload finished at t={kernel.now / 1e6:.1f} ms; "
          f"{survivors}/{len(tasks)} tasks completed normally")
    for i, report in enumerate(manager.reports, 1):
        print(f"upgrade {i}: {report.old_scheduler} -> "
              f"{report.new_scheduler}, pause {report.pause_us:.2f} us, "
              f"{report.transferred_tasks} live tasks transferred")
    active = shim.lib.scheduler
    print(f"running scheduler is now {type(active).__name__} "
          f"(generation {active.generation})")


if __name__ == "__main__":
    main()
