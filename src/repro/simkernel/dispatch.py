"""The core schedule() path: balance -> pick_next_task -> dispatch.

One of the four kernel-core subsystems (see :mod:`repro.simkernel.kernel`
for the facade): this one owns reschedule requests, preemption, voluntary
descheduling (block / yield / exit), the class-stack pick walk the paper
describes in section 3.1, the periodic tick, and runtime accounting
(``update_curr``).
"""

from repro.simkernel.errors import SchedulingError, SimError
from repro.simkernel.task import TaskState
from repro.simkernel.tracing import NO_KEYS

#: per-event state tests read module globals, not enum attributes
_RUNNABLE, _RUNNING, _BLOCKED, _DEAD = (
    TaskState.RUNNABLE, TaskState.RUNNING, TaskState.BLOCKED, TaskState.DEAD)

#: dispositions a current task leaves its CPU with
BLOCK = "block"
YIELD = "yield"
EXIT = "exit"


class DispatchEngine:
    """Schedule-path logic over the kernel's shared state."""

    def __init__(self, kernel):
        self.k = kernel
        # Direct clock reference: the schedule path reads the time
        # constantly and the kernel's ``now`` property costs a call.
        self.clock = kernel.clock
        self._tick_timers = [None] * kernel.topology.nr_cpus

    # ------------------------------------------------------------------
    # reschedule requests
    # ------------------------------------------------------------------

    def resched_cpu(self, cpu):
        """Request a reschedule of ``cpu`` (used by scheduler classes)."""
        k = self.k
        k.rqs[cpu].need_resched = True
        k.events.after(0, self.reschedule, cpu)

    def reschedule(self, cpu):
        """Honor a pending resched request if the CPU can act on it."""
        k = self.k
        rq = k.rqs[cpu]
        if not rq.need_resched:
            return
        cur = rq.current
        if cur is None:
            rq.need_resched = False
            self.pick_and_switch(cpu, prev=None)
            return
        if cur._in_syscall:
            return  # honored at the op boundary
        if cur.state is not _RUNNING:
            return
        if cur.exec_start_ns > self.clock.now:
            # Mid-context-switch: interrupts are effectively off until the
            # dispatch completes.  Re-deliver just after the task actually
            # starts — without this, a preemption timer shorter than the
            # dispatch cost livelocks the CPU (no task ever runs).
            k.events.at(
                cur.exec_start_ns + k.config.timer_min_delay_ns,
                self.reschedule, cpu,
            )
            return
        rq.need_resched = False
        self.preempt_current(cpu)

    def preempt_current(self, cpu):
        k = self.k
        rq = k.rqs[cpu]
        prev = rq.current
        # ``update_curr``'s own ``delta > 0`` test, without its frame when
        # the op handler has just charged this instant.
        if prev.exec_start_ns < self.clock.now:
            self.update_curr(cpu)
        if prev.run_remaining_ns > 0:
            k.interp.pause_run_segment(prev)
        prev.run_epoch += 1
        prev.set_state(_RUNNABLE)
        prev.stats.preemptions += 1
        rq.current = None
        prev.on_rq = False
        cls = k._class_cache[prev.policy]
        throttled = (k.groups.throttled_ancestor(prev)
                     if prev.group is not None else None)
        if throttled is not None:
            # Preempted because its group ran out of bandwidth: park
            # instead of re-queueing.  The class sees a plain block
            # (revoking any Enoki token) and re-learns the task via
            # the wakeup path at unthrottle time.
            cls.task_blocked(prev, cpu)
            k.groups.park(prev, throttled)
        else:
            k._attach_runnable(prev, cpu)
            cls.task_preempt(prev, cpu)
        if k.trace is not None:
            k.trace("preempt", k.now, cpu, NO_KEYS, pid=prev.pid)
        cost = cls.hook_cost_ns
        if cls.owes:
            cost += cls.settle_ns(1)
        self.pick_and_switch(cpu, prev, cost)

    def deschedule_current(self, cpu, disposition, block_reason=None):
        """The current task leaves the CPU voluntarily.

        ``block_reason`` distinguishes voluntary sleep (``"sleep"``) from
        involuntary blocking (pipe/futex/semaphore, the default) for delay
        accounting — Linux's sleep vs. block split in /proc/<pid>/schedstat
        terms.
        """
        k = self.k
        rq = k.rqs[cpu]
        prev = rq.current
        if prev is None:
            raise SchedulingError(f"deschedule on idle cpu {cpu}")
        if prev.exec_start_ns < self.clock.now:     # as in preempt_current
            self.update_curr(cpu)
        prev.run_epoch += 1
        rq.current = None
        prev.on_rq = False
        cls = k._class_cache[prev.policy]
        if disposition == BLOCK:
            prev.set_state(_BLOCKED)
            stats = prev.stats
            stats.blocked_count += 1
            stats.block_since_ns = self.clock.now
            stats.block_is_sleep = block_reason == "sleep"
            if prev.group is not None:
                k.groups.unaccount(prev)
            cls.task_blocked(prev, cpu)
        elif disposition == YIELD:
            prev.set_state(_RUNNABLE)
            prev.stats.yields += 1
            throttled = (k.groups.throttled_ancestor(prev)
                         if prev.group is not None else None)
            if throttled is not None:
                # Yielded inside a throttled subtree: park it (the class
                # sees a block, matching the preemption park path).
                cls.task_blocked(prev, cpu)
                k.groups.park(prev, throttled)
            else:
                k._attach_runnable(prev, cpu)
                cls.task_yield(prev, cpu)
        elif disposition == EXIT:
            prev.set_state(_DEAD)
            prev.stats.finished_ns = self.clock.now
            if prev.group is not None:
                k.groups.unaccount(prev)
            cls.task_dead(prev.pid)
        else:
            raise SimError(f"unknown disposition {disposition}")
        # Every disposition ran exactly one state hook.
        cost = cls.hook_cost_ns
        if cls.owes:
            cost += cls.settle_ns(1)
        self.pick_and_switch(cpu, prev, cost)

    # ------------------------------------------------------------------
    # the pick walk (section 3.1)
    # ------------------------------------------------------------------

    def pick_and_switch(self, cpu, prev, base_cost=0):
        """balance -> pick_next_task over the class stack, then dispatch
        the task picked, or go idle when no class answers."""
        k = self.k
        rq = k.rqs[cpu]
        if rq.current is not None:
            raise SchedulingError(f"pick on busy cpu {cpu}")
        cost = base_cost
        stats = k.stats
        for _prio, cls in k._classes:
            pulled = cls.balance(cpu)
            if pulled is not None:
                if k.migration.try_migrate(pulled, cpu, cls):
                    cost += k.config.migrate_ns
                else:
                    cls.balance_err(cpu, pulled)
            stats.sched_invocations += 1
            pid = cls.pick_next_task(cpu)
            # Settled after the hooks: balance + pick + what they accrued.
            cost += cls.walk_cost_ns
            if cls.owes:
                cost += cls.settle_ns(2, True)
            if pid is None:
                continue
            # Queued here, runnable, allowed here: one lookup.
            queued = rq.queued
            task = queued[pid] if pid in queued else None
            if (task is None or task.state is not _RUNNABLE
                    or (task.allowed_cpus is not None
                        and cpu not in task.allowed_cpus)):
                # A native class answering wrongly is the crash the paper
                # describes; Enoki's adapter never lets this surface.
                stats.pick_errors += 1
                raise SchedulingError(
                    f"{cls.name}.pick_next_task({cpu}) returned pid {pid} "
                    "which is not runnable on this CPU's run queue"
                )
            break
        else:
            # Nobody answered: go idle and stop the tick.
            now = self.clock.now
            rq.idle_since_ns = now
            timer = self._tick_timers[cpu]
            if timer is not None:
                timer.cancel()
                self._tick_timers[cpu] = None
            if k.trace is not None:
                k.trace("idle", now, cpu, NO_KEYS)
            return
        # Dispatch: switch ``cpu`` to ``task``, which the walk has just
        # proved queued on this CPU's run queue and runnable here.
        now = self.clock.now
        cpu_stats = stats.cpus[cpu]
        if prev is None and rq.idle_since_ns >= 0:
            cpu_stats.idle_ns += now - rq.idle_since_ns
            rq.idle_since_ns = -1
        if task is not prev:
            cost += k.config.context_switch_ns
            rq.nr_switches += 1
            cpu_stats.switches += 1
        # Unlink without re-proving membership.  ``on_rq`` stays True (the
        # current task counts as on_rq, as in Linux) and ``task.cpu`` is
        # already this CPU: both were set when the task was attached.
        del rq.queued[task.pid]
        rq.nr_queued -= 1
        rq.current = task
        task.state = _RUNNING       # proven RUNNABLE: no transition check
        start = now + cost
        task.exec_start_ns = start
        task.run_started_ns = start
        task_stats = task.stats
        task_stats.timeslices += 1
        if task_stats.wait_since_ns >= 0:
            # Close the wait segment at ``start``: context-switch cost is
            # time spent waiting for the CPU, not running on it.
            task_stats.wait_ns += start - task_stats.wait_since_ns
            task_stats.wait_since_ns = -1
        if task.last_wakeup_ns >= 0:
            latency = start - task.last_wakeup_ns
            task_stats.note_wakeup_latency(latency)
            task.last_wakeup_ns = -1
            acct = k.accounting
            if acct is not None:
                acct.note_wakeup(latency)
        epoch = task.run_epoch
        if task.run_remaining_ns > 0:
            # A banked Run segment resumes unconditionally, so skip the
            # task_resume trampoline and schedule its completion directly;
            # run_complete carries the same epoch/state/current guards.
            # (task.run_started_ns is already ``start``, set above.)
            k.events.at(start + task.run_remaining_ns,
                        k.interp.run_complete, task, epoch)
        else:
            k.events.at(start, self.task_resume, task, epoch)
        if task.group is not None:
            headroom = k.groups.bandwidth_headroom(task.group)
            if headroom is not None:
                # Tight enforcement: re-examine the quota the moment the
                # remaining budget would run dry, not just at the tick.
                floor = k.config.timer_min_delay_ns
                if headroom < floor:
                    headroom = floor
                k.events.at(start + headroom, self._bandwidth_expire, task,
                            epoch)
        if self._tick_timers[cpu] is None:
            self._tick_timers[cpu] = k.timers.arm_periodic(
                k.config.tick_period_ns, self.tick, tag=("tick", cpu))
        if k.trace is not None:
            k.trace("dispatch", now, cpu, NO_KEYS, pid=task.pid, cost=cost)

    def _bandwidth_expire(self, task, epoch):
        """A dispatched task's group budget should be dry about now:
        charge up to the instant and re-arm or let enforcement throttle."""
        k = self.k
        if task.run_epoch != epoch or task.state is not _RUNNING:
            return
        cpu = task.cpu
        if k.rqs[cpu].current is not task:
            return
        self.update_curr(cpu)
        headroom = k.groups.bandwidth_headroom(task.group)
        if headroom is not None and headroom > 0:
            # Other CPUs drained less than predicted; check again later.
            k.events.after(headroom, self._bandwidth_expire, task, epoch)
        # headroom <= 0: the charge above queued the throttle enforcement.

    def task_resume(self, task, epoch):
        k = self.k
        if task.run_epoch != epoch or task.state is not _RUNNING:
            return
        cpu = task.cpu
        if k.rqs[cpu].current is not task:
            return
        if task.run_remaining_ns > 0:
            task.run_started_ns = self.clock.now
            k.events.after(
                task.run_remaining_ns, k.interp.run_complete, task, epoch
            )
        else:
            k.interp.advance_program(task)

    # ------------------------------------------------------------------
    # tick
    # ------------------------------------------------------------------

    def tick(self, timer):
        """The periodic tick of ``timer.tag[1]``, armed by :meth:`dispatch`
        and cancelled when the CPU goes idle."""
        k = self.k
        cpu = timer.tag[1]
        rq = k.rqs[cpu]
        cur = rq.current
        if cur is None:
            timer.cancel()
            self._tick_timers[cpu] = None
            return
        self.update_curr(cpu)
        k._class_cache[cur.policy].task_tick(cpu, cur)
        if rq.need_resched:
            self.reschedule(cpu)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def update_curr(self, cpu):
        k = self.k
        cur = k.rqs[cpu].current
        if cur is None:
            return
        now = self.clock.now
        delta = now - cur.exec_start_ns
        if delta <= 0:
            return
        cur.exec_start_ns = now
        cur.sum_exec_runtime_ns += delta
        cur.last_ran_ns = now
        k.stats.cpus[cpu].busy_ns += delta
        acct = k.accounting
        if acct is not None:
            acct.note_run(cur.policy, delta)
        # Up the group chain: an uncapped node only adds the runtime; a
        # capped one also pays from its budget, in ``groups.py``.
        group = cur.group
        while group is not None:
            if group.quota_ns > 0:
                k.groups.charge(group, delta)
            else:
                group.total_runtime_ns += delta
            group = group.parent
        hook = k._class_cache[cur.policy].update_curr
        if hook is not None:
            hook(cur, delta)
