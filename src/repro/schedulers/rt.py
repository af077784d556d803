"""A native model of Linux's real-time scheduler class (SCHED_FIFO/RR).

The paper's section 2 notes Linux ships three mainline schedulers — the
real-time scheduler, the deadline scheduler, and CFS.  The substrate
models the RT class so experiments can layer latency-critical RT tasks
above CFS exactly as Linux stacks its classes, and so the class-stacking
machinery is exercised by a second native policy.

Semantics modelled:

* 100 static priorities (higher number = more urgent, like rt_priority);
* strict priority dispatch: the highest-priority runnable task always
  runs; equal priorities are FIFO, or round-robin with a 100 ms slice
  when a task is created with ``round_robin=True`` (SCHED_RR);
* an RT task preempts lower-priority RT tasks immediately on wakeup;
* a simple RT pull balance: a CPU going idle takes the most urgent task
  waiting at the head of another CPU's queue.
"""

from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.sched_class import SchedClass

RR_SLICE_NS = 100_000_000   # sched_rr_timeslice default (100 ms)

_IDLE = (None, -1)


class RtSchedClass(SchedClass):
    """Fixed-priority preemptive scheduling (SCHED_FIFO / SCHED_RR).

    Each CPU's queue, like rt_rq's bitmap + per-priority lists, is one
    ordered list keyed ``(-prio, seq)``: the most urgent level first, FIFO
    within it.  A task preempted by something more urgent keeps its front
    slot under ``(-prio, -seq)``, ahead of its level's queue, the latest
    preempted first.
    """

    name = "rt"

    def __init__(self, policy=2):
        super().__init__()
        self.policy = policy
        self.queues = None
        self._seq = 0
        self._current = {}        # cpu -> (pid, prio) of the running task
        self._slice_start = {}    # cpu -> when that task was picked
        self.rt_priority = {}     # pid -> static priority (1..99)
        self.round_robin = {}     # pid -> bool
        self._pending = None      # (priority, rr) during spawn_rt
        self._rr_expired = set()  # pids preempted by slice expiry

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self.queues = TokenQueue(kernel.topology.nr_cpus)

    # -- task admission ------------------------------------------------------

    def spawn_rt(self, prog, priority, round_robin=False, **spawn_kwargs):
        """Spawn a task under this class with its priority pre-assigned,
        so placement and queueing see the real priority from the start
        (like sched_setscheduler before the first wakeup)."""
        if not 1 <= priority <= 99:
            raise ValueError(f"rt priority out of range: {priority}")
        self._pending = (priority, round_robin)
        try:
            task = self.kernel.spawn(prog, policy=self.policy,
                                     **spawn_kwargs)
            self.rt_priority[task.pid] = priority
            self.round_robin[task.pid] = round_robin
        finally:
            self._pending = None
        return task

    def _prio(self, pid):
        prio = self.rt_priority.get(pid)
        if prio is not None:
            return prio
        if self._pending is not None:
            return self._pending[0]
        return 1

    def _top_prio(self, cpu):
        """The most urgent queued level on ``cpu``, or -1."""
        queued = self.queues.cpus[cpu]
        return -queued[0][0][0] if queued else -1

    def _push(self, task, cpu, front=False):
        self._seq += 1
        key = (-self._prio(task.pid), -self._seq if front else self._seq)
        self.queues.push(cpu, key, task.pid, None)

    def _stop(self, pid, cpu):
        """``pid`` no longer runs on ``cpu``."""
        if self._current.get(cpu, _IDLE)[0] == pid:
            del self._current[cpu]

    # -- placement --------------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        """Prefer a CPU running lower-priority (or no) RT work."""
        best, best_key = None, None
        my_prio = self._prio(task.pid)
        for cpu in self.kernel.topology.all_cpus():
            if not task.can_run_on(cpu):
                continue
            running = self._current.get(cpu, _IDLE)[1]
            if running < my_prio:
                key = (0, running, self.kernel.rqs[cpu].nr_running)
            else:
                key = (1, self._top_prio(cpu),
                       self.kernel.rqs[cpu].nr_running)
            if best_key is None or key < best_key:
                best, best_key = cpu, key
        return best if best is not None else prev_cpu

    # -- state tracking ------------------------------------------------------------

    def task_new(self, task, cpu):
        self._push(task, cpu)

    def task_wakeup(self, task, cpu):
        self._push(task, cpu)

    def task_blocked(self, task, cpu):
        self._stop(task.pid, cpu)
        self.queues.remove(task.pid)

    def task_preempt(self, task, cpu):
        self._stop(task.pid, cpu)
        if task.pid in self._rr_expired:
            # SCHED_RR slice expiry: rotate to the back of the level.
            self._rr_expired.discard(task.pid)
            self._push(task, cpu)
        else:
            # Preempted by something more urgent: keep the front slot.
            self._push(task, cpu, front=True)

    def task_yield(self, task, cpu):
        self._stop(task.pid, cpu)
        self._push(task, cpu)   # back of its level

    def task_dead(self, pid):
        for cpu, (running, _prio) in list(self._current.items()):
            if running == pid:
                del self._current[cpu]
        self.queues.remove(pid)
        self.rt_priority.pop(pid, None)
        self.round_robin.pop(pid, None)

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        self._push(task, new_cpu)   # replaces the old entry

    # -- decisions --------------------------------------------------------------------

    def pick_next_task(self, cpu):
        if not self.queues.cpus[cpu]:
            return None
        (neg_prio, _seq), pid, _token = self.queues.pop_head(cpu)
        self._current[cpu] = (pid, -neg_prio)
        self._slice_start[cpu] = self.kernel.now
        return pid

    def balance(self, cpu):
        """RT pull: an idle CPU takes the head of another CPU's queue."""
        if self.queues.cpus[cpu] or self.kernel.rqs[cpu].nr_running:
            return None
        best_pid, best_prio = None, 0
        for other, queued in self.queues.cpus.items():
            if other == cpu or not queued:
                continue
            candidate = queued[0][1]
            task = self.kernel.tasks.get(candidate)
            if task is None or not task.can_run_on(cpu):
                continue
            prio = self._prio(candidate)
            if prio > best_prio:
                best_pid, best_prio = candidate, prio
        return best_pid

    def task_tick(self, cpu, task):
        if task is None:
            return
        if not self.round_robin.get(task.pid, False):
            return
        if (self.kernel.now - self._slice_start.get(cpu, 0) >= RR_SLICE_NS
                and self._top_prio(cpu) >= self._prio(task.pid)):
            self._rr_expired.add(task.pid)
            self.kernel.resched_cpu(cpu)

    def wakeup_preempt(self, cpu, task):
        if self._prio(task.pid) > self._current.get(cpu, _IDLE)[1]:
            return "now"
        return None
