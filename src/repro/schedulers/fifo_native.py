"""A minimal trusted (native) FIFO scheduler class.

This is kernel-side code, like CFS: it implements the raw
:class:`~repro.simkernel.sched_class.SchedClass` hooks directly with no
framework between it and the core.  ghOSt's agents run under it, a spec
can name it (``fifo_native``), and the substrate test-suite uses it to
validate the kernel's call-ordering contract and to stack a class above
and below CFS.  It doubles as the reference for how *little* a native
class can get away with — and how dangerous that is: nothing stops it
from returning a bogus pid, which the kernel core treats as a crash.  A
task runs until it blocks, yields or is preempted by a higher class;
there is no time slice.
"""

from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.sched_class import SchedClass, WF_SYNC


class NativeFifoClass(SchedClass):
    """Per-CPU FIFO queues with round-robin fork placement."""

    name = "native-fifo"

    def __init__(self, policy=1):
        super().__init__()
        self.policy = policy
        self.queues = None
        self._next_cpu = 0

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self.queues = TokenQueue(kernel.topology.nr_cpus)

    # -- placement ---------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        candidates = [
            c for c in self.kernel.topology.all_cpus() if task.can_run_on(c)
        ]
        if wake_flags & WF_SYNC and task.can_run_on(prev_cpu):
            return prev_cpu
        # Prefer an idle allowed CPU, else round-robin.
        for cpu in candidates:
            if self.kernel.rqs[cpu].nr_running == 0:
                return cpu
        self._next_cpu = (self._next_cpu + 1) % len(candidates)
        return candidates[self._next_cpu]

    # -- state tracking -------------------------------------------------------

    def task_new(self, task, cpu):
        self.queues.push_back(cpu, task.pid, None)

    def task_wakeup(self, task, cpu):
        self.queues.push_back(cpu, task.pid, None)

    def task_blocked(self, task, cpu):
        self.queues.remove(task.pid)

    def task_yield(self, task, cpu):
        self.queues.push_back(cpu, task.pid, None)

    def task_preempt(self, task, cpu):
        self.queues.push_back(cpu, task.pid, None)

    def task_dead(self, pid):
        self.queues.remove(pid)

    def task_departed(self, task, cpu):
        self.queues.remove(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        self.queues.push_back(new_cpu, task.pid, None)   # replaces the old

    # -- decisions ------------------------------------------------------------

    def pick_next_task(self, cpu):
        if self.queues.cpus[cpu]:
            return self.queues.pop_head(cpu)[1]
        return None
