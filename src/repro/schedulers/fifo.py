"""The paper's walk-through scheduler (section 3.1): per-core FCFS.

    "consider a simple scheduler that keeps a queue of tasks assigned to
    each core and schedules these tasks first come, first serve on each
    core"

Every task it queues is represented by the ``Schedulable`` token the
framework handed it, and picking a task spends that token.  The queue the
tokens wait in, the hooks that queue them (first come, first served is
the base class's default order) and the load/identity/upgrade
boilerplate come from :mod:`repro.schedulers.base`; what is left here is
placement and the pick.  This file doubles as the reference
implementation for the docs' quickstart and carries the transfer state
used by the live-upgrade examples.
"""

from dataclasses import dataclass

from repro.schedulers.base import QueuePolicy
from repro.simkernel.runqueue import TokenQueue


@dataclass
class FifoTransferState:
    """State passed across a live upgrade of the FIFO scheduler."""

    queues: TokenQueue
    generation: int


class EnokiFifo(QueuePolicy):
    """First-come-first-serve per-core queues."""

    TRANSFER_TYPE = FifoTransferState
    LOCK_NAME = "fifo-queues"

    def __init__(self, nr_cpus, policy=7):
        super().__init__(nr_cpus, policy)
        self.queues = TokenQueue(nr_cpus)

    # -- placement -------------------------------------------------------

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = (allowed_cpus if allowed_cpus is not None
                      else range(self.nr_cpus))
        with self.lock:
            queues = self.queues.cpus
            return min(candidates, key=lambda c: len(queues[c]))

    # -- decisions --------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            if self.queues.cpus[cpu]:
                return self.queues.pop_head(cpu)[2]
        return None
