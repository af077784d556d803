"""The paper's walk-through scheduler (section 3.1): per-core FCFS.

    "consider a simple scheduler that keeps a queue of tasks assigned to
    each core and schedules these tasks first come, first serve on each
    core"

Every task it queues is represented by the ``Schedulable`` token the
framework handed it, and picking a task spends that token.  The queue the
tokens wait in and the load/identity/upgrade boilerplate come from
:mod:`repro.schedulers.base`; what is left here is the policy.  This file
doubles as the reference implementation for the docs' quickstart and
carries the transfer state used by the live-upgrade examples.
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

    # -- state tracking ------------------------------------------------------

    def task_new(self, pid, tgid, runtime, runnable, prio, sched):
        with self.lock:
            self.queues.push_back(sched.cpu, pid, sched)

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        with self.lock:
            self.queues.push_back(sched.cpu, pid, sched)

    def task_blocked(self, pid, runtime, cpu_seqnum, cpu, from_switchto):
        with self.lock:
            self.queues.remove(pid)

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        with self.lock:
            self.queues.push_back(sched.cpu, pid, sched)

    def task_dead(self, pid):
        with self.lock:
            self.queues.remove(pid)

    def migrate_task_rq(self, pid, new_cpu, sched):
        with self.lock:
            old_token = self.queues.remove(pid)
            self.queues.push_back(new_cpu, pid, sched)
        return old_token

    # -- decisions --------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            if self.queues.cpus[cpu]:
                return self.queues.pop_head(cpu)[2]
        return None
