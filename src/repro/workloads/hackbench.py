"""hackbench: the classic scheduler stress test.

The paper's artifact appendix notes its perf pipe benchmark "was
previously known as Hackbench".  This is the full groups form: each group
has N senders and N receivers connected all-to-all through pipes; every
sender sends M messages to every receiver in its group.  The metric is
the wall time to drain everything — a pure scheduler-throughput stress
(thousands of short wake/block cycles in flight at once).
"""

from dataclasses import dataclass

from repro.simkernel.pipe import Pipe
from repro.simkernel.program import PipeRead, PipeWrite
from repro.simkernel.task import TaskState


@dataclass
class HackbenchResult:
    groups: int
    fds: int
    loops: int
    elapsed_ns: int
    total_messages: int


def run_hackbench(kernel, policy, groups=2, fds=4, loops=20,
                  scheduler_name=""):
    """Run hackbench on a configured kernel.

    ``groups`` groups of ``fds`` senders + ``fds`` receivers; every sender
    sends ``loops`` messages to *each* receiver in its group, so total
    messages = groups * fds * fds * loops.
    """
    start = kernel.now
    all_pids = []

    for group in range(groups):
        pipes = [Pipe(f"hb-{group}-{i}") for i in range(fds)]

        def sender(group_pipes):
            def prog():
                for _ in range(loops):
                    for pipe in group_pipes:
                        yield PipeWrite(pipe, b"m")
            return prog

        def receiver(pipe, expected):
            def prog():
                for _ in range(expected):
                    yield PipeRead(pipe)
            return prog

        for index in range(fds):
            task = kernel.spawn(sender(pipes),
                                name=f"hb-s{group}.{index}",
                                policy=policy)
            all_pids.append(task.pid)
        for index in range(fds):
            task = kernel.spawn(receiver(pipes[index], loops * fds),
                                name=f"hb-r{group}.{index}",
                                policy=policy)
            all_pids.append(task.pid)

    kernel.run_until_idle()
    unfinished = [pid for pid in all_pids
                  if kernel.tasks[pid].state is not TaskState.DEAD]
    if unfinished:
        raise RuntimeError(f"hackbench hung: pids {unfinished}")
    return HackbenchResult(
        groups=groups, fds=fds, loops=loops,
        elapsed_ns=kernel.now - start,
        total_messages=groups * fds * fds * loops,
    )
