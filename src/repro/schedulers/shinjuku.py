"""The Enoki Shinjuku scheduler (paper section 4.2.2).

    "Our scheduler implements an approximation of a first-come-first-serve
    queue of tasks with fast preemption across the multiple kernel
    run-queues.  Our preemption slice is 10 us instead of 5 us to prevent
    overloading the scheduler.  This scheduler was implemented in 285
    lines of code."

Mechanics:

* A global arrival order (sequence numbers) is approximated over per-core
  queues; when a core empties, ``balance`` pulls the globally-oldest
  waiting task, keeping dispatch close to true FCFS.
* Every pick re-arms a 10 us resched timer; the fired timer preempts the
  running task, which re-enters the queue at the back — this is what keeps
  long range-queries from blocking short GETs (Figure 2).
* The paper notes this scheduler's slightly higher Table 3 latency comes
  from arming the timer on every operation; the framework charges that
  cost (``timer_arm_cost_ns``).
"""

from dataclasses import dataclass

from repro.schedulers.base import QueuePolicy
from repro.simkernel.runqueue import TokenQueue


@dataclass
class ShinjukuTransferState:
    """State passed across a live upgrade of the Shinjuku scheduler."""

    queues: TokenQueue
    generation: int


class EnokiShinjuku(QueuePolicy):
    """Centralised-FCFS approximation with microsecond-scale preemption."""

    TRANSFER_TYPE = ShinjukuTransferState
    LOCK_NAME = "shinjuku-queues"

    def __init__(self, nr_cpus, policy=8, preemption_us=10,
                 worker_cpus=None):
        super().__init__(nr_cpus, policy)
        self.preemption_ns = preemption_us * 1_000
        #: the CPUs this scheduler will place tasks on (the RocksDB setup
        #: reserves cores for the load generator and background work)
        self.worker_cpus = (list(worker_cpus) if worker_cpus is not None
                            else list(range(nr_cpus)))
        # Keyed by arrival: ``push_back``'s sequence is the global FCFS
        # order; only migration's front-of-line keys go in below it.
        self.queues = TokenQueue(nr_cpus)

    # ------------------------------------------------------------------
    # placement: shortest queue among the worker cores
    # ------------------------------------------------------------------

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = [c for c in self.worker_cpus
                      if allowed_cpus is None or c in allowed_cpus]
        if not candidates:
            candidates = (list(allowed_cpus) if allowed_cpus
                          else list(range(self.nr_cpus)))
        with self.lock:
            queues = self.queues.cpus
            return min(candidates, key=lambda c: len(queues[c]))

    # ------------------------------------------------------------------
    # FCFS state: new, woken and preempted tasks take the base class's
    # ``push_back``, so a preempted task goes to the BACK of the global
    # order (the Shinjuku processor-sharing approximation)
    # ------------------------------------------------------------------

    def migrate_task_rq(self, pid, new_cpu, sched):
        with self.lock:
            old = self.queues.remove(pid)
            if old is None:
                self._enqueue(new_cpu, pid, sched)
            else:
                # Preserve FCFS position as well as we can: the old entry
                # is gone, so adopt the minimum sequence currently queued
                # (some queue's head) minus a step.
                front = min((queue[0][0]
                             for queue in self.queues.cpus.values()
                             if queue), default=1) - 1
                self.queues.push(new_cpu, front, pid, sched)
        return old

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            if not self.queues.cpus[cpu]:
                return None
            token = self.queues.pop_head(cpu)[2]
        # Re-arm the preemption timer on every dispatch ("it starts a
        # reschedule timer on every operation").
        self.env.start_resched_timer(cpu, self.preemption_ns)
        return token

    def balance(self, cpu):
        """Approximate the global FCFS: an idle worker core pulls the
        globally-oldest waiting task."""
        if cpu not in self.worker_cpus:
            return None
        with self.lock:
            if self.queues.cpus[cpu]:
                return None
            oldest = None
            for other, queue in self.queues.cpus.items():
                if other == cpu or not queue:
                    continue
                head = queue[0]
                if oldest is None or head[0] < oldest[0]:
                    oldest = head
            if oldest is None:
                return None
            return oldest[1]
