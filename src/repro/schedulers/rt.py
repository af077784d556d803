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
* a simple RT push balance: an overloaded CPU offers its second task to
  any CPU running lower-priority work.
"""

from collections import deque

from repro.simkernel.sched_class import SchedClass

RR_SLICE_NS = 100_000_000   # sched_rr_timeslice default (100 ms)


class _RtRq:
    """Per-CPU priority array, like rt_rq's bitmap + queues."""

    __slots__ = ("queues", "curr_pid", "curr_prio", "curr_slice_start")

    def __init__(self):
        self.queues = {}          # prio -> deque of pids
        self.curr_pid = None
        self.curr_prio = -1
        self.curr_slice_start = 0

    def push(self, prio, pid, front=False):
        queue = self.queues.setdefault(prio, deque())
        if front:
            queue.appendleft(pid)
        else:
            queue.append(pid)

    def pop_highest(self):
        if not self.queues:
            return None, -1
        prio = max(self.queues)
        pid = self.queues[prio].popleft()
        if not self.queues[prio]:
            del self.queues[prio]
        return pid, prio

    def peek_highest_prio(self):
        return max(self.queues) if self.queues else -1

    def remove(self, pid):
        for prio, queue in list(self.queues.items()):
            try:
                queue.remove(pid)
            except ValueError:
                continue
            if not queue:
                del self.queues[prio]
            return prio
        return None

    def second_task(self):
        """A candidate to push away: the head below the top task."""
        if not self.queues:
            return None
        prios = sorted(self.queues, reverse=True)
        # Anything queued is waiting behind the current task.
        return self.queues[prios[0]][0] if self.queues[prios[0]] else None


class RtSchedClass(SchedClass):
    """Fixed-priority preemptive scheduling (SCHED_FIFO / SCHED_RR)."""

    name = "rt"

    def __init__(self, policy=2):
        super().__init__()
        self.policy = policy
        self._rqs = None
        self.rt_priority = {}     # pid -> static priority (1..99)
        self.round_robin = {}     # pid -> bool
        self._pending = None      # (priority, rr) during spawn_rt
        self._rr_expired = set()  # pids preempted by slice expiry

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self._rqs = [_RtRq() for _ in kernel.topology.all_cpus()]

    # -- task admission ------------------------------------------------------

    def set_rt_priority(self, pid, priority, round_robin=False):
        """Assign the static priority (prefer :meth:`spawn_rt`, which
        applies the priority before placement)."""
        if not 1 <= priority <= 99:
            raise ValueError(f"rt priority out of range: {priority}")
        self.rt_priority[pid] = priority
        self.round_robin[pid] = round_robin

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

    # -- placement --------------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        """Prefer a CPU running lower-priority (or no) RT work."""
        best, best_key = None, None
        my_prio = self._prio(task.pid)
        for cpu in self.kernel.topology.all_cpus():
            if not task.can_run_on(cpu):
                continue
            rq = self._rqs[cpu]
            running = rq.curr_prio
            if running < my_prio:
                key = (0, running, self.kernel.rqs[cpu].nr_running)
            else:
                key = (1, rq.peek_highest_prio(),
                       self.kernel.rqs[cpu].nr_running)
            if best_key is None or key < best_key:
                best, best_key = cpu, key
        return best if best is not None else prev_cpu

    # -- state tracking ------------------------------------------------------------

    def task_new(self, task, cpu):
        self._rqs[cpu].push(self._prio(task.pid), task.pid)

    def task_wakeup(self, task, cpu):
        self._rqs[cpu].push(self._prio(task.pid), task.pid)

    def task_blocked(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid, rq.curr_prio = None, -1
        else:
            rq.remove(task.pid)

    def task_preempt(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid, rq.curr_prio = None, -1
        if task.pid in self._rr_expired:
            # SCHED_RR slice expiry: rotate to the back of the level.
            self._rr_expired.discard(task.pid)
            rq.push(self._prio(task.pid), task.pid)
        else:
            # Preempted by something more urgent: keep the front slot.
            rq.push(self._prio(task.pid), task.pid, front=True)

    def task_yield(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid, rq.curr_prio = None, -1
        rq.push(self._prio(task.pid), task.pid)   # back of its level

    def task_dead(self, pid):
        for rq in self._rqs:
            if rq.curr_pid == pid:
                rq.curr_pid, rq.curr_prio = None, -1
            rq.remove(pid)
        self.rt_priority.pop(pid, None)
        self.round_robin.pop(pid, None)

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        for rq in self._rqs:
            rq.remove(task.pid)
        self._rqs[new_cpu].push(self._prio(task.pid), task.pid)

    # -- decisions --------------------------------------------------------------------

    def pick_next_task(self, cpu):
        rq = self._rqs[cpu]
        pid, prio = rq.pop_highest()
        if pid is None:
            return None
        rq.curr_pid, rq.curr_prio = pid, prio
        rq.curr_slice_start = self.kernel.now
        return pid

    def balance(self, cpu):
        """RT pull: an idle CPU takes waiting RT work from elsewhere."""
        if self._rqs[cpu].queues or self.kernel.rqs[cpu].nr_running:
            return None
        best_pid, best_prio = None, 0
        for other, rq in enumerate(self._rqs):
            if other == cpu:
                continue
            candidate = rq.second_task() if rq.curr_pid is not None \
                else None
            if candidate is None and rq.queues:
                prios = sorted(rq.queues, reverse=True)
                candidate = rq.queues[prios[0]][0]
            if candidate is None:
                continue
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
        rq = self._rqs[cpu]
        if not self.round_robin.get(task.pid, False):
            return
        if (self.kernel.now - rq.curr_slice_start >= RR_SLICE_NS
                and rq.queues
                and rq.peek_highest_prio() >= self._prio(task.pid)):
            self._rr_expired.add(task.pid)
            self.kernel.resched_cpu(cpu)

    def wakeup_preempt(self, cpu, task):
        rq = self._rqs[cpu]
        if self._prio(task.pid) > rq.curr_prio:
            return "now"
        return None
