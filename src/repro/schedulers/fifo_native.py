"""A minimal trusted (native) FIFO scheduler class.

This is kernel-side code, like Linux's rt/deadline classes: it implements
the raw :class:`~repro.simkernel.sched_class.SchedClass` hooks directly with
no framework between it and the core.  The substrate test-suite uses it to
validate the kernel's call-ordering contract, and it doubles as the
reference for how *little* a native class can get away with — and how
dangerous that is: nothing stops it from returning a bogus pid, which the
kernel core treats as a crash.
"""

from collections import deque

from repro.simkernel.sched_class import SchedClass, WF_SYNC


class NativeFifoClass(SchedClass):
    """Per-CPU FIFO queues with round-robin fork placement."""

    name = "native-fifo"

    def __init__(self, policy=1, timeslice_ns=None):
        super().__init__()
        self.policy = policy
        self.timeslice_ns = timeslice_ns
        self._queues = None
        self._next_cpu = 0

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self._queues = [deque() for _ in kernel.topology.all_cpus()]

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
        self._queues[cpu].append(task.pid)

    def task_wakeup(self, task, cpu):
        self._queues[cpu].append(task.pid)

    def task_blocked(self, task, cpu):
        self._discard(task.pid)

    def task_yield(self, task, cpu):
        self._queues[cpu].append(task.pid)

    def task_preempt(self, task, cpu):
        self._queues[cpu].append(task.pid)

    def task_dead(self, pid):
        self._discard(pid)

    def task_departed(self, task, cpu):
        self._discard(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        self._discard(task.pid)
        self._queues[new_cpu].append(task.pid)

    def _discard(self, pid):
        for queue in self._queues:
            try:
                queue.remove(pid)
            except ValueError:
                pass

    # -- decisions ------------------------------------------------------------

    def pick_next_task(self, cpu):
        queue = self._queues[cpu]
        if queue:
            return queue.popleft()
        return None

    def task_tick(self, cpu, task):
        if self.timeslice_ns is None or task is None:
            return
        ran = self.kernel.now - task.last_enqueue_ns
        if ran >= self.timeslice_ns and self._queues[cpu]:
            self.kernel.resched_cpu(cpu)

    def queued_pids(self, cpu):
        """Test hook: the policy-side view of a CPU's queue."""
        return tuple(self._queues[cpu])
