"""The batch/background application co-located with RocksDB (Fig 2b/2c).

A thread-per-core CPU-bound application (paper: run at nice 19 under CFS
for the CFS/Enoki experiments, and as low-priority ghOSt tasks for the
ghOSt experiment).  Figure 2c reports how many CPUs' worth of time it
obtains while the latency-critical workload runs.
"""

from dataclasses import dataclass

from repro.simkernel.clock import msecs
from repro.simkernel.program import Call, Run


@dataclass
class BatchApp:
    """Handle for the co-located batch application."""

    kernel: object
    tgid: int
    started_ns: int

    def busy_ns(self):
        """CPU time the application's threads have consumed (the task
        table keeps dead tasks, so exited threads still count)."""
        return sum(task.sum_exec_runtime_ns
                   for task in self.kernel.tasks.values()
                   if task.tgid == self.tgid)

    def cpu_share(self, since_ns=None, until_ns=None):
        """Average CPUs held since start (Figure 2c's y-axis)."""
        start = since_ns if since_ns is not None else self.started_ns
        end = until_ns if until_ns is not None else self.kernel.now
        window = max(1, end - start)
        return self.busy_ns() / window


def start_batch_app(kernel, policy, cpus, threads_per_cpu=1, nice=19,
                    chunk_ns=msecs(2)):
    """Launch the batch application; it runs until the simulation ends.

    Each thread loops over finite chunks so a terminating workload drains
    naturally: when nothing else is runnable the chunks still consume CPU,
    but the tasks exit once the kernel's stop flag is raised.
    """
    stop = {"flag": False}
    affinity = frozenset(cpus)
    tgid_holder = {}

    def batch_thread():
        def prog():
            while not stop["flag"]:
                yield Run(chunk_ns)
                yield Call(lambda: None)
        return prog

    first = None
    for index in range(len(cpus) * threads_per_cpu):
        task = kernel.spawn(
            batch_thread(), name=f"batch-{index}", policy=policy,
            nice=nice, allowed_cpus=affinity,
            origin_cpu=cpus[index % len(cpus)],
            tgid=tgid_holder.get("tgid"),
        )
        if first is None:
            first = task
            tgid_holder["tgid"] = task.tgid

    app = BatchApp(kernel=kernel, tgid=first.tgid, started_ns=kernel.now)
    app.stop = lambda: stop.__setitem__("flag", True)
    return app
