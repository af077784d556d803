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
* pick = the *eligible* task with the *earliest virtual deadline* —
  latency-sensitive (short-slice) tasks get service sooner without
  starving anyone.

Inherits the Enoki WFQ scheduler's bookkeeping (runtime folding, queues,
stealing, upgrade state); only ordering and placement credit change,
which is exactly the kind of surgical policy swap the framework is for.
"""

from repro.schedulers.wfq import EnokiWfq, WfqTransferState
from repro.simkernel.task import NICE_0_WEIGHT


class EnokiEevdf(EnokiWfq):
    """Earliest Eligible Virtual Deadline First over the WFQ engine."""

    TRANSFER_TYPE = WfqTransferState

    #: base request slice (Linux 6.6's sysctl_sched_base_slice default)
    BASE_SLICE_NS = 750_000

    def __init__(self, nr_cpus, policy=13, base_slice_ns=None):
        super().__init__(nr_cpus, policy)
        if base_slice_ns is not None:
            self.BASE_SLICE_NS = base_slice_ns
        #: pid -> virtual deadline assigned at (re)queue time
        self.vdeadline = {}
        #: pid -> custom slice (latency hints could set this; shorter
        #: slice => earlier deadlines => snappier service)
        self.slice_ns = {}

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------

    def _assign_deadline(self, pid):
        weight = self.weights.get(pid, NICE_0_WEIGHT)
        slice_ns = self.slice_ns.get(pid, self.BASE_SLICE_NS)
        self.vdeadline[pid] = (
            self.vruntime.get(pid, 0)
            + slice_ns * NICE_0_WEIGHT // weight
        )

    def set_slice(self, pid, slice_ns):
        """Latency tuning: a shorter slice buys earlier deadlines."""
        self.slice_ns[pid] = max(1, int(slice_ns))

    # Re-derive a deadline whenever a task (re)enters a queue.

    def task_new(self, pid, tgid, runtime, runnable, prio, sched):
        super().task_new(pid, tgid, runtime, runnable, prio, sched)
        self._assign_deadline(pid)

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        super().task_wakeup(pid, agent_data, deferrable, last_run_cpu,
                            wake_up_cpu, waker_cpu, sched)
        self._assign_deadline(pid)

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        super().task_preempt(pid, runtime, cpu_seqnum, cpu, from_switchto,
                             was_latched, sched)
        self._assign_deadline(pid)

    def task_dead(self, pid):
        super().task_dead(pid)
        self.vdeadline.pop(pid, None)
        self.slice_ns.pop(pid, None)

    # ------------------------------------------------------------------
    # the EEVDF pick
    # ------------------------------------------------------------------

    def _queue_average_vruntime(self, cpu):
        queue = self.queues.cpus[cpu]
        if not queue:
            return 0
        total_weight = 0
        weighted = 0
        for vruntime, pid, _token in queue:
            weight = self.weights.get(pid, NICE_0_WEIGHT)
            total_weight += weight
            weighted += vruntime * weight
        return weighted // max(1, total_weight)

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            for pid, runtime in runtimes.items():
                self._observe_runtime(pid, runtime)
            queue = self.queues.cpus[cpu]
            if not queue:
                return None
            average = self._queue_average_vruntime(cpu)
            eligible = [entry for entry in queue if entry[0] <= average]
            pool = eligible if eligible else queue
            vruntime, pid, _token = min(
                pool,
                key=lambda entry: self.vdeadline.get(entry[1], 0),
            )
            self.min_vruntime[cpu] = max(self.min_vruntime[cpu], vruntime)
            self.current[cpu] = (pid, self.last_runtime.get(pid, 0))
            return self.queues.remove(pid)
