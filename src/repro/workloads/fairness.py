"""The appendix A.1 functional-equivalence benchmarks.

Three experiments verifying that the Enoki WFQ scheduler implements the
*behaviour* of a weighted-fair-queuing scheduler, compared against CFS:

* **fair sharing** — five CPU-bound tasks: spread across cores they finish
  together; forced onto one core they take ~5x as long, still together;
* **weighting** — the same five tasks with one at minimum priority: the
  four nice-0 tasks finish together, the nice-19 task trails;
* **placement** — one task per core: each keeps its core; forcing one
  task to move mid-run leaves completion times intact, with the paper
  noting a higher runtime standard deviation for WFQ's simpler balancer.
"""

from dataclasses import dataclass, field

from repro.analysis.stats import stddev
from repro.simkernel.clock import msecs
from repro.simkernel.program import Run, SetAffinity


@dataclass
class FairnessResult:
    finish_times_ns: dict = field(default_factory=dict)   # name -> ns
    runtimes_ns: dict = field(default_factory=dict)

    def runtime_stddev_ns(self):
        return stddev(list(self.runtimes_ns.values()))


def run_fair_share(kernel, policy, tasks=5, work_ns=msecs(400),
                   one_core=False):
    """Five CPU hogs, spread (default) or co-located on CPU 0."""
    affinity = frozenset({0}) if one_core else None
    result = FairnessResult()
    spawned = []

    def spinner():
        yield Run(work_ns)

    for i in range(tasks):
        spawned.append(kernel.spawn(
            spinner, name=f"fair-{i}", policy=policy,
            allowed_cpus=affinity,
        ))
    kernel.run_until_idle()
    for task in spawned:
        result.finish_times_ns[task.name] = task.stats.finished_ns
        result.runtimes_ns[task.name] = task.sum_exec_runtime_ns
    return result


def run_weighted_share(kernel, policy, tasks=5, work_ns=msecs(400)):
    """Co-located hogs with one at minimum priority (nice 19)."""
    result = FairnessResult()
    spawned = []

    def spinner():
        yield Run(work_ns)

    for i in range(tasks):
        nice = 19 if i == tasks - 1 else 0
        spawned.append(kernel.spawn(
            spinner, name=f"weighted-{i}", policy=policy, nice=nice,
            allowed_cpus=frozenset({0}),
        ))
    kernel.run_until_idle()
    for task in spawned:
        result.finish_times_ns[task.name] = task.stats.finished_ns
        result.runtimes_ns[task.name] = task.sum_exec_runtime_ns
    return result


def run_placement(kernel, policy, work_ns=msecs(300), move_one=False):
    """One task per core; optionally force one to change cores mid-run."""
    nr = kernel.topology.nr_cpus
    result = FairnessResult()
    spawned = []

    def spinner():
        yield Run(work_ns)

    def mover():
        yield Run(work_ns // 2)
        yield SetAffinity(frozenset({(nr - 1) // 2}))
        yield Run(work_ns - work_ns // 2)

    for cpu in range(nr):
        if move_one and cpu == 0:
            task = kernel.spawn(mover, name="placed-0", policy=policy,
                                origin_cpu=cpu)
        else:
            task = kernel.spawn(spinner, name=f"placed-{cpu}",
                                policy=policy, origin_cpu=cpu)
        spawned.append(task)
    kernel.run_until_idle()
    for task in spawned:
        result.finish_times_ns[task.name] = task.stats.finished_ns
        result.runtimes_ns[task.name] = (
            task.stats.finished_ns - task.stats.created_ns
        )
    return result
