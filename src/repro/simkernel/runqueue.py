"""Kernel-side per-CPU run-queue bookkeeping.

The *kernel core* (not the scheduler classes) owns these structures: they
track which tasks are attached to which CPU's run queue, which task is
current, and the resched flag.  A scheduler class keeps its own policy
structures; ``pick_next_task`` must nevertheless return a task that is on
the CPU's kernel run queue — this is exactly the invariant the paper's
``Schedulable`` token proves, and the invariant whose violation "can cause
the kernel to crash" (section 1).
"""

from repro.simkernel.errors import SchedulingError


class KernelRunQueue:
    """Membership + current-task state for one CPU."""

    __slots__ = (
        "cpu", "queued", "current", "need_resched",
        "idle_since_ns", "nr_switches",
    )

    def __init__(self, cpu):
        self.cpu = cpu
        self.queued = {}           # pid -> TaskStruct (attached, runnable)
        self.current = None        # TaskStruct or None (idle)
        self.need_resched = False
        self.idle_since_ns = 0
        self.nr_switches = 0

    # -- membership ------------------------------------------------------

    def attach(self, task):
        if task.pid in self.queued:
            raise SchedulingError(
                f"pid {task.pid} double-attached to cpu {self.cpu}"
            )
        if task.on_rq:
            raise SchedulingError(
                f"pid {task.pid} already on a run queue (cpu {task.cpu})"
            )
        self.queued[task.pid] = task
        task.on_rq = True
        task.cpu = self.cpu

    def detach(self, task):
        if task.pid not in self.queued:
            raise SchedulingError(
                f"pid {task.pid} not attached to cpu {self.cpu}"
            )
        del self.queued[task.pid]
        task.on_rq = False

    def has(self, pid):
        return pid in self.queued

    @property
    def nr_queued(self):
        """Tasks attached to this run queue (excluding the current task)."""
        return len(self.queued)

    @property
    def nr_running(self):
        """Queued tasks plus the current one, mirroring rq->nr_running."""
        return len(self.queued) + (1 if self.current is not None else 0)

    def load_weight(self):
        """Sum of attached task weights (plus current), for balancing."""
        total = sum(t.weight for t in self.queued.values())
        if self.current is not None:
            total += self.current.weight
        return total

    def __repr__(self):
        cur = self.current.pid if self.current else None
        return (
            f"KernelRunQueue(cpu={self.cpu}, queued={sorted(self.queued)}, "
            f"current={cur})"
        )
