"""An EEVDF scheduler — the paper's thesis, demonstrated forward.

Enoki's pitch is development *velocity*: new scheduling algorithms should
be a few hundred lines against a stable trait.  Linux itself made the
paper's point shortly after publication: in 6.6 the kernel replaced CFS's
pick logic with **EEVDF** (Earliest Eligible Virtual Deadline First,
Stoica & Abdel-Wahab '95) — a change that took kernel releases to land.
Here the same policy change is this file.

Policy (the 6.6 sched/fair.c shape, simplified):

* every task accrues **vruntime** weighted by priority, as in WFQ;
* a task is **eligible** when it is not ahead of its fair share — its
  vruntime is at or below the queue's weighted average;
* each task carries a **virtual deadline** = vruntime at (re)queue time
  plus its base slice scaled by weight;
* pick = the *eligible* task with the *earliest virtual deadline*.

Inherits the Enoki WFQ scheduler's bookkeeping (runtime folding, queues,
stealing, upgrade state); only ordering and placement credit change,
which is exactly the kind of surgical policy swap the framework is for.

A live upgrade carries WFQ's state and nothing more, so EEVDF and WFQ
can replace each other: the incoming version re-derives every queued
task's deadline from its vruntime (its queue key).
"""

from repro.schedulers.wfq import EnokiWfq, WfqTransferState
from repro.simkernel.task import NICE_0_WEIGHT


class EnokiEevdf(EnokiWfq):
    """Earliest Eligible Virtual Deadline First over the WFQ engine."""

    TRANSFER_TYPE = WfqTransferState

    #: base request slice (Linux 6.6's sysctl_sched_base_slice default)
    BASE_SLICE_NS = 750_000

    def __init__(self, nr_cpus, policy=13):
        super().__init__(nr_cpus, policy)
        #: pid -> virtual deadline assigned at (re)queue time
        self.vdeadline = {}

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------

    def _assign_deadline(self, pid):
        weight = self.weights.get(pid, NICE_0_WEIGHT)
        self.vdeadline[pid] = (
            self.vruntime.get(pid, 0)
            + self.BASE_SLICE_NS * NICE_0_WEIGHT // weight
        )

    def _enqueue(self, cpu, pid, sched):
        # Every (re)entry to a queue re-derives the deadline.
        self._assign_deadline(pid)
        super()._enqueue(cpu, pid, sched)

    def task_dead(self, pid):
        super().task_dead(pid)
        self.vdeadline.pop(pid, None)

    # ------------------------------------------------------------------
    # the EEVDF pick
    # ------------------------------------------------------------------

    def _queue_average_vruntime(self, cpu):
        queue = self.queues.cpus[cpu]
        total_weight = 0
        weighted = 0
        for vruntime, pid, _token in queue:
            weight = self.weights.get(pid, NICE_0_WEIGHT)
            total_weight += weight
            weighted += vruntime * weight
        return weighted // max(1, total_weight)

    def _take(self, queues, cpu):
        """Unqueue the eligible entry with the earliest deadline."""
        queue = queues.cpus[cpu]
        average = self._queue_average_vruntime(cpu)
        eligible = [entry for entry in queue if entry[0] <= average]
        entry = min(eligible or queue,
                    key=lambda entry: self.vdeadline.get(entry[1], 0))
        queues.remove(entry[1])
        return entry

    # ------------------------------------------------------------------
    # live upgrade
    # ------------------------------------------------------------------

    def transfer_adopted(self):
        super().transfer_adopted()
        for queue in self.queues.cpus.values():
            for _vruntime, pid, _token in queue:
                self._assign_deadline(pid)
