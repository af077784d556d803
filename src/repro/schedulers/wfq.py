"""The Enoki weighted-fair-queuing scheduler (paper section 4.2.1).

    "Our version does not provide the full complexity of the [CFS]
    algorithm ... We compute vruntime for per-core time slices but use a
    much simpler method for determining task placement.  If a core is
    about to become idle and another core had a waiting task, our
    scheduler steals waiting work from the core with the longest queue of
    tasks.  Otherwise, our scheduler does not rebalance tasks."

Everything here is pure policy against the Enoki trait: runtimes arrive in
messages (Enoki-C tracks them), queue membership is proven by Schedulable
tokens, and preemption is requested through the env's resched timer.
The paper's version is 646 lines of Rust; this is deliberately the same
kind of object — far simpler than CFS, close to it in behaviour.
"""

from dataclasses import dataclass

from repro.schedulers.base import QueuePolicy
from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.task import NICE_0_WEIGHT, weight_for_nice


@dataclass
class WfqTransferState:
    """State passed across a live upgrade of the WFQ scheduler."""

    queues: TokenQueue
    vruntime: dict
    last_runtime: dict
    weights: dict
    min_vruntime: dict
    current: dict
    generation: int


class EnokiWfq(QueuePolicy):
    """Per-core weighted fair queuing with idle-time work stealing."""

    TRANSFER_TYPE = WfqTransferState
    LOCK_NAME = "wfq-state"

    #: how much earlier than the fair share a task may run after waking
    WAKEUP_BONUS_DIVISOR = 2

    #: ``_take(queues, cpu)`` unqueues the entry a non-empty ``cpu`` runs
    #: next: here the queue's own ``pop_head``, so a pick pays no extra
    #: frame for the choice an ordering variant overrides
    _take = staticmethod(TokenQueue.pop_head)

    def __init__(self, nr_cpus, policy=7,
                 sched_latency_ns=6_000_000,
                 min_granularity_ns=750_000):
        super().__init__(nr_cpus, policy)
        self.sched_latency_ns = sched_latency_ns
        self.min_granularity_ns = min_granularity_ns
        # Keyed by the pid's vruntime at push time, which stays its
        # vruntime for as long as it is queued: all mutation sites
        # (observe on preempt/block/yield, the wakeup floor, migration
        # re-homing) run while the pid is off-queue, and a queued pid's
        # runtime does not move, so the pick fold skips it.
        self.queues = TokenQueue(nr_cpus)
        self.vruntime = {}         # pid -> weighted runtime
        self.last_runtime = {}     # pid -> last raw runtime seen
        self.weights = {}          # pid -> load weight
        self.min_vruntime = {cpu: 0 for cpu in range(nr_cpus)}
        self.current = {}          # cpu -> (pid, runtime at pick)

    # ------------------------------------------------------------------
    # vruntime bookkeeping (several times per crossing, so the quiet
    # path's hooks read their dicts with ``in`` and a subscript and
    # compare instead of calling ``dict.get``, ``max`` or ``pop``)
    # ------------------------------------------------------------------

    def _observe_runtime(self, pid, runtime):
        """Fold a kernel-reported raw runtime into the pid's vruntime."""
        last_runtime = self.last_runtime
        last = last_runtime[pid] if pid in last_runtime else runtime
        last_runtime[pid] = runtime
        if runtime <= last:
            return      # nothing to add: reads default a missing pid to 0
        weights, vruntimes = self.weights, self.vruntime
        weight = weights[pid] if pid in weights else NICE_0_WEIGHT
        vruntimes[pid] = ((vruntimes[pid] if pid in vruntimes else 0)
                          + (runtime - last) * NICE_0_WEIGHT // weight)

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = (list(allowed_cpus) if allowed_cpus is not None
                      else list(range(self.nr_cpus)))
        with self.lock:
            queues = self.queues.cpus
            current = self.current
            # Cache affinity: back to the previous CPU if it is free.
            if (prev_cpu in candidates and prev_cpu not in current
                    and not queues[prev_cpu]):
                return prev_cpu
            # Else the first free CPU, else the first least loaded one.
            best = best_load = None
            for cpu in candidates:
                load = len(queues[cpu]) + (cpu in current)
                if not load:
                    return cpu
                if best_load is None or load < best_load:
                    best, best_load = cpu, load
            return best

    # ------------------------------------------------------------------
    # state tracking: a pid has a vruntime from its task_new on; each
    # entry hook updates it, then queues the pid keyed by it
    # ------------------------------------------------------------------

    def _enqueue(self, cpu, pid, sched):
        self.queues.push(cpu, self.vruntime[pid], pid, sched)

    def task_new(self, pid, tgid, runtime, runnable, prio, sched):
        with self.lock:
            self.weights[pid] = weight_for_nice(prio)
            self.last_runtime[pid] = runtime
            cpu = sched.cpu
            # New tasks start at the end of the current period.
            self.vruntime[pid] = (
                self.min_vruntime[cpu]
                + self.sched_latency_ns
                * NICE_0_WEIGHT // self.weights[pid]
                // max(1, len(self.queues.cpus[cpu]) + 1)
            )
            self._enqueue(cpu, pid, sched)

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        with self.lock:
            cpu = sched.cpu
            floor = (self.min_vruntime[cpu]
                     - self.sched_latency_ns // self.WAKEUP_BONUS_DIVISOR)
            vruntimes = self.vruntime
            if floor > vruntimes[pid]:
                vruntimes[pid] = floor
            self._enqueue(cpu, pid, sched)

    def task_blocked(self, pid, runtime, cpu_seqnum, cpu, from_switchto):
        with self.lock:
            self._observe_runtime(pid, runtime)
            self.queues.remove(pid)
            current = self.current
            if cpu in current:
                del current[cpu]

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        with self.lock:
            self._observe_runtime(pid, runtime)
            current = self.current
            if cpu in current:
                del current[cpu]
            self._enqueue(sched.cpu, pid, sched)

    def task_yield(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                   sched):
        with self.lock:
            self._observe_runtime(pid, runtime)
            self.current.pop(cpu, None)
            # Yielding pushes the task behind its peers (the back of the
            # queue holds the max vruntime, as its key).
            queue = self.queues.cpus[sched.cpu]
            if queue:
                self.vruntime[pid] = max(self.vruntime[pid], queue[-1][0])
            self._enqueue(sched.cpu, pid, sched)

    def task_dead(self, pid):
        with self.lock:
            self.queues.remove(pid)
            self.vruntime.pop(pid, None)
            self.last_runtime.pop(pid, None)
            self.weights.pop(pid, None)
            for cpu, (cur, _rt) in list(self.current.items()):
                if cur == pid:
                    del self.current[cpu]

    def task_departed(self, pid, cpu_seqnum, cpu, from_switchto,
                      was_current):
        with self.lock:
            token = self.queues.remove(pid)
            self.vruntime.pop(pid, None)
            self.weights.pop(pid, None)
        return token

    def task_prio_changed(self, pid, prio):
        with self.lock:
            self.weights[pid] = weight_for_nice(prio)

    def migrate_task_rq(self, pid, new_cpu, sched):
        with self.lock:
            old_token = self.queues.remove(pid)
            # Re-home vruntime to the destination queue's baseline.
            self.vruntime[pid] = max(self.vruntime[pid],
                                     self.min_vruntime[new_cpu])
            self._enqueue(new_cpu, pid, sched)
        return old_token

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            # Fold only a runtime that moved, or a pid with no entry yet.
            last_runtime = self.last_runtime
            for pid in runtimes:
                if (pid not in last_runtime
                        or last_runtime[pid] != runtimes[pid]):
                    self._observe_runtime(pid, runtimes[pid])
            if not self.queues.cpus[cpu]:
                return None
            vruntime, pid, token = self._take(self.queues, cpu)
            min_vruntime = self.min_vruntime
            if vruntime > min_vruntime[cpu]:
                min_vruntime[cpu] = vruntime
            self.current[cpu] = (
                pid, last_runtime[pid] if pid in last_runtime else 0)
            return token

    def balance(self, cpu):
        """Steal from the longest queue when this core is about to idle."""
        with self.lock:
            queues = self.queues.cpus
            if queues[cpu]:
                return None
            longest_cpu = self.queues.longest_other(cpu)
            if longest_cpu is None:
                return None
            # Steal the task that has waited longest (queue head by
            # vruntime order).
            return queues[longest_cpu][0][1]

    def balance_err(self, cpu, pid, err, sched):
        # Nothing to restore: the task never left its queue.
        pass

    def task_tick(self, cpu, queued, pid, runtime):
        if pid is None:
            return
        with self.lock:
            self._observe_runtime(pid, runtime)
            entry = self.current.get(cpu)
            if entry is None or entry[0] != pid or not queued:
                return
            ran = runtime - entry[1]
            queue = self.queues.cpus[cpu]
            slice_ns = max(self.min_granularity_ns,
                           self.sched_latency_ns // (len(queue) + 1))
            preempt = ran >= slice_ns
            if not preempt and queue:
                # Wakeup preemption at the tick: a waiting task with a
                # clearly lower vruntime takes the CPU (queue head).
                preempt = queue[0][0] + self.min_granularity_ns < \
                    self.vruntime.get(pid, 0)
        if preempt:
            self.env.start_resched_timer(cpu, 0)

    # ------------------------------------------------------------------
    # live upgrade
    # ------------------------------------------------------------------

    def transfer_adopted(self):
        for cpu in range(self.nr_cpus):
            self.min_vruntime.setdefault(cpu, 0)
