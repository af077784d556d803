"""A native model of Linux's deadline scheduler class (SCHED_DEADLINE).

The paper's section 2: "Linux includes three schedulers: a real time
scheduler, an earliest deadline first scheduler, and the Completely Fair
Scheduler."  This class completes the substrate's mainline trio.

Semantics modelled (kernel/sched/deadline.c, simplified):

* each task declares ``(runtime, deadline, period)``: it may consume up to
  ``runtime`` of CPU in every ``period``, and should finish that budget by
  ``deadline`` after the period start;
* **EDF dispatch**: the runnable task with the earliest absolute deadline
  runs first and preempts later-deadline tasks on wakeup;
* **CBS throttling**: a task that exhausts its runtime budget is throttled
  (dequeued) until its next replenishment instant, so it cannot starve
  the classes below — the property that lets deadline tasks coexist with
  CFS;
* admission control: total declared utilisation on the machine may not
  exceed the CPU count.
"""

import heapq

from repro.simkernel.errors import SchedulingError
from repro.simkernel.sched_class import SchedClass


class _DlParams:
    __slots__ = ("runtime_ns", "deadline_ns", "period_ns",
                 "abs_deadline", "budget_ns", "throttled_until")

    def __init__(self, runtime_ns, deadline_ns, period_ns):
        self.runtime_ns = runtime_ns
        self.deadline_ns = deadline_ns
        self.period_ns = period_ns
        self.abs_deadline = 0
        self.budget_ns = runtime_ns
        self.throttled_until = 0

    @property
    def utilisation(self):
        return self.runtime_ns / self.period_ns


class DeadlineSchedClass(SchedClass):
    """Earliest-deadline-first with constant-bandwidth throttling."""

    name = "deadline"

    def __init__(self, policy=3):
        super().__init__()
        self.policy = policy
        self.params = {}            # pid -> _DlParams
        # Per-cpu heaps of (abs_deadline, pid, gen).  Removal is lazy: a
        # pid's generation bump invalidates every queued entry for it, and
        # stale entries are skipped when they surface — no heapify on the
        # removal path.  ``pid`` sorts before ``gen`` so valid-entry
        # ordering matches the old (abs_deadline, pid) heap exactly.
        self._queues = None
        self._gen = {}              # pid -> live entry generation
        self._current = {}          # cpu -> pid
        self._total_util = 0.0
        self._pending = None

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self._queues = [[] for _ in kernel.topology.all_cpus()]

    # -- admission ---------------------------------------------------------

    def spawn_dl(self, prog, runtime_ns, deadline_ns=None, period_ns=None,
                 **spawn_kwargs):
        """Admit and spawn a deadline task (sched_setattr + fork).

        Raises :class:`SchedulingError` when the declared bandwidth would
        exceed the machine (the kernel's admission-control check).
        """
        period_ns = period_ns if period_ns is not None else deadline_ns
        if period_ns is None:
            raise ValueError("deadline tasks need a deadline or period")
        deadline_ns = deadline_ns if deadline_ns is not None else period_ns
        if not 0 < runtime_ns <= deadline_ns <= period_ns:
            raise ValueError(
                f"need 0 < runtime ({runtime_ns}) <= deadline "
                f"({deadline_ns}) <= period ({period_ns})"
            )
        params = _DlParams(runtime_ns, deadline_ns, period_ns)
        if self._total_util + params.utilisation > \
                self.kernel.topology.nr_cpus:
            raise SchedulingError(
                "deadline admission control: utilisation "
                f"{self._total_util + params.utilisation:.2f} exceeds "
                f"{self.kernel.topology.nr_cpus} CPUs"
            )
        self._pending = params
        try:
            task = self.kernel.spawn(prog, policy=self.policy,
                                     **spawn_kwargs)
            self.params[task.pid] = params
            self._total_util += params.utilisation
        finally:
            self._pending = None
        return task

    def _params(self, pid):
        if pid in self.params:
            return self.params[pid]
        if self._pending is not None:
            return self._pending
        raise SchedulingError(f"pid {pid} has no deadline parameters")

    # -- placement -----------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        params = self._params(task.pid)
        best, best_key = prev_cpu, None
        for cpu in self.kernel.topology.all_cpus():
            if not task.can_run_on(cpu):
                continue
            running = self._current.get(cpu)
            if running is None:
                key = (0, 0)
            else:
                key = (1, -self.params[running].abs_deadline)
            if best_key is None or key < best_key:
                best, best_key = cpu, key
        return best

    # -- CBS bookkeeping ---------------------------------------------------------

    def _replenish(self, params, now):
        """Start a new period: full budget, fresh absolute deadline."""
        params.budget_ns = params.runtime_ns
        params.abs_deadline = now + params.deadline_ns

    def _wakeup_update(self, pid, now):
        params = self._params(pid)
        if now >= params.abs_deadline or params.budget_ns <= 0:
            self._replenish(params, now)

    def update_curr(self, task, delta_ns):
        params = self.params.get(task.pid)
        if params is None:
            return
        params.budget_ns -= delta_ns
        if params.budget_ns <= 0:
            # Budget exhausted: throttle until the next period.
            params.throttled_until = params.abs_deadline
            self.kernel.resched_cpu(task.cpu)

    # -- state tracking --------------------------------------------------------------

    def _enqueue(self, pid, cpu):
        params = self._params(pid)
        heapq.heappush(self._queues[cpu],
                       (params.abs_deadline, pid, self._gen.get(pid, 0)))

    def _stale(self, entry):
        return entry[2] != self._gen.get(entry[1], 0)

    def _prune_stale(self, queue):
        while queue and self._stale(queue[0]):
            heapq.heappop(queue)

    def task_new(self, task, cpu):
        params = self._params(task.pid)
        self._replenish(params, self.kernel.now)
        self._enqueue(task.pid, cpu)

    def task_wakeup(self, task, cpu):
        self._wakeup_update(task.pid, self.kernel.now)
        self._enqueue(task.pid, cpu)

    def task_blocked(self, task, cpu):
        if self._current.get(cpu) == task.pid:
            del self._current[cpu]
        self._remove(task.pid)

    def task_preempt(self, task, cpu):
        if self._current.get(cpu) == task.pid:
            del self._current[cpu]
        params = self._params(task.pid)
        now = self.kernel.now
        if params.budget_ns <= 0:
            # Throttled: schedule the replenishment wake.
            wake_at = max(params.throttled_until, now + 1)
            self.kernel.timers.arm(
                wake_at - now,
                lambda _t, pid=task.pid, c=cpu: self._unthrottle(pid, c),
                tag=("dl-replenish", task.pid),
            )
        else:
            self._enqueue(task.pid, cpu)

    def _unthrottle(self, pid, cpu):
        task = self.kernel.tasks.get(pid)
        if task is None or not task.on_rq:
            return
        params = self._params(pid)
        self._replenish(params, self.kernel.now)
        if self.kernel.rqs[task.cpu].has(pid):
            self._enqueue(pid, task.cpu)
            self.kernel.resched_cpu(task.cpu)

    def task_dead(self, pid):
        self._remove(pid)
        for cpu, cur in list(self._current.items()):
            if cur == pid:
                del self._current[cpu]
        params = self.params.pop(pid, None)
        if params is not None:
            self._total_util -= params.utilisation

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        self._remove(task.pid)
        self._enqueue(task.pid, new_cpu)

    def _remove(self, pid):
        # Lazy: bumping the generation invalidates every queued entry for
        # this pid (never deleted from ``_gen`` — a zeroed default would
        # resurrect stale generation-0 entries).
        self._gen[pid] = self._gen.get(pid, 0) + 1

    # -- decisions ------------------------------------------------------------------------

    def pick_next_task(self, cpu):
        queue = self._queues[cpu]
        now = self.kernel.now
        while queue:
            entry = queue[0]
            if self._stale(entry):
                heapq.heappop(queue)
                continue
            pid = entry[1]
            task = self.kernel.tasks.get(pid)
            if task is None or not self.kernel.rqs[cpu].has(pid):
                heapq.heappop(queue)
                continue
            params = self._params(pid)
            if params.budget_ns <= 0 and now < params.throttled_until:
                heapq.heappop(queue)
                self.kernel.timers.arm(
                    params.throttled_until - now,
                    lambda _t, p=pid, c=cpu: self._unthrottle(p, c),
                    tag=("dl-replenish", pid),
                )
                continue
            heapq.heappop(queue)
            self._current[cpu] = pid
            # hrtick-style precision: fire exactly when the CBS budget
            # runs out instead of waiting for the next periodic tick.
            self.kernel.timers.arm(
                max(1, params.budget_ns),
                lambda _t, p=pid, c=cpu: self._budget_check(p, c),
                tag=("dl-budget", pid),
            )
            return pid
        return None

    def _budget_check(self, pid, cpu):
        if self._current.get(cpu) != pid:
            return
        self.kernel._update_curr(cpu)
        params = self.params.get(pid)
        if params is None:
            return
        if params.budget_ns <= 0:
            params.throttled_until = params.abs_deadline
            self.kernel.resched_cpu(cpu)
        else:
            # Fired early (dispatch-cost skew): re-arm for the remainder.
            self.kernel.timers.arm(
                max(1, params.budget_ns),
                lambda _t, p=pid, c=cpu: self._budget_check(p, c),
                tag=("dl-budget", pid),
            )

    def wakeup_preempt(self, cpu, task):
        running = self._current.get(cpu)
        if running is None:
            return "now"
        if (self._params(task.pid).abs_deadline
                < self.params[running].abs_deadline):
            return "now"
        return None

    def task_tick(self, cpu, task):
        if task is None:
            return
        params = self.params.get(task.pid)
        if params is None:
            return
        queue = self._queues[cpu]
        self._prune_stale(queue)
        if queue and queue[0][0] < params.abs_deadline:
            self.kernel.resched_cpu(cpu)
