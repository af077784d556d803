"""Wakeup placement and run-queue migration.

One of the four kernel-core subsystems (see :mod:`repro.simkernel.kernel`
for the facade): this one owns the try-to-wake-up path — placement via
``select_task_rq``, the IPI/idle-exit cost model, wakeup preemption — and
every movement of a queued task between run queues, including the
failed-migration accounting that makes balancer miss rates observable.
"""

from repro.simkernel.errors import SchedulingError
from repro.simkernel.sched_class import DEFERRED_CPU, WF_SYNC, WF_TTWU
from repro.simkernel.task import TaskState


class MigrationService:
    """Placement and migration over the kernel's shared state."""

    def __init__(self, kernel):
        self.k = kernel
        # Direct clock reference (mirrors DispatchEngine).
        self.clock = kernel.clock

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def invoke_select(self, cls, task, prev_cpu, flags, waker_cpu=-1):
        """Call ``select_task_rq`` and validate the answer."""
        k = self.k
        cpu = cls.select_task_rq(task, prev_cpu, flags, waker_cpu)
        if cpu == DEFERRED_CPU:
            return cpu
        if not 0 <= cpu < k.topology.nr_cpus:
            raise SchedulingError(
                f"{cls.name}.select_task_rq returned bad cpu {cpu}"
            )
        if task.allowed_cpus is not None and cpu not in task.allowed_cpus:
            raise SchedulingError(
                f"{cls.name} placed pid {task.pid} on disallowed cpu {cpu}"
            )
        return cpu

    # ------------------------------------------------------------------
    # wakeups
    # ------------------------------------------------------------------

    def wake_task(self, task, waker_cpu=None, sync=False,
                  charge_waker=False):
        """Try-to-wake-up: move a blocked task back onto a run queue.

        Returns the kernel time the wakeup hooks cost.  When
        ``charge_waker`` is true the caller is a running task's op handler
        and must absorb that cost into its own timeline (ttwu executes in
        the waker's context); otherwise the cost is folded into the wakee's
        dispatch delay (timer-driven wakeups).
        """
        k = self.k
        if task.state is not TaskState.BLOCKED:
            return 0        # dead, or already runnable: nothing to wake
        now = self.clock.now
        stats = task.stats
        if stats.block_since_ns >= 0:
            # Close the sleep/block segment at wakeup time.
            if stats.block_is_sleep:
                stats.sleep_ns += now - stats.block_since_ns
            else:
                stats.block_ns += now - stats.block_since_ns
            stats.block_since_ns = -1
        k.stats.total_wakeups += 1
        waker = waker_cpu if waker_cpu is not None else -1
        if task.group is not None:
            throttled = k.groups.throttled_ancestor(task)
            if throttled is not None:
                # Waking into a throttled subtree: park straight from
                # BLOCKED.  No class hooks run (the class already saw
                # task_blocked); the wakeup is replayed at unthrottle.
                # No wakeup-latency sample either — the task is not
                # waiting on the scheduler, it is waiting on bandwidth.
                k.groups.park(task, throttled)
                if k.trace is not None:
                    k.trace("wakeup", t=now, cpu=-1, pid=task.pid,
                            waker=waker, throttled=True)
                return 0
        cls = k.class_of(task)
        flags = WF_TTWU | (WF_SYNC if sync else 0)
        task.set_state(TaskState.RUNNABLE)
        task.last_wakeup_ns = now
        task.wakeup_flags = flags
        hook_cost = cls.hooks_cost_ns(2)    # select_task_rq + task_wakeup
        cpu = self.invoke_select(cls, task, task.cpu, flags, waker)
        if cpu == DEFERRED_CPU:
            k._limbo.add(task.pid)
            # Limbo time is wait time: the task is runnable but parked
            # until the asynchronous scheduler places it.
            stats.wait_since_ns = now
            cls.task_wakeup(task, DEFERRED_CPU)
            if k.trace is not None:
                k.trace("wakeup", t=now, cpu=-1, pid=task.pid,
                        waker=waker, deferred=True)
            return hook_cost if charge_waker else 0
        k._attach_runnable(task, cpu)
        cls.task_wakeup(task, cpu)
        if k.trace is not None:
            k.trace("wakeup", t=now, cpu=cpu, pid=task.pid,
                    waker=waker, sync=sync)
        extra = 0 if charge_waker else hook_cost
        self.kick_cpu_for_wakeup(task, cpu, waker_cpu, cls, extra)
        return hook_cost if charge_waker else 0

    def place_task(self, pid, cpu, kicker_cpu=None):
        """Complete a deferred placement (asynchronous schedulers only).

        Returns False when the task is no longer placeable (raced with
        exit), letting the caller observe staleness — the ghOSt model relies
        on this.
        """
        k = self.k
        task = k.tasks.get(pid)
        if task is None or task.state != TaskState.RUNNABLE:
            return False
        if pid not in k._limbo:
            return False
        if not task.can_run_on(cpu):
            return False
        if task.group is not None:
            throttled = k.groups.throttled_ancestor(task)
            if throttled is not None:
                # Deferred placement landing in a throttled subtree: the
                # placement is consumed (True — it was valid), but the
                # task parks instead of reaching the run queue.
                k._limbo.discard(pid)
                k.groups.park(task, throttled)
                return True
        k._limbo.discard(pid)
        k._attach_runnable(task, cpu)
        cls = k.class_of(task)
        self.kick_cpu_for_wakeup(task, cpu, kicker_cpu, cls)
        return True

    # ------------------------------------------------------------------
    # the wakeup cost model
    # ------------------------------------------------------------------

    def kick_cpu_for_wakeup(self, task, cpu, waker_cpu, cls, extra=0):
        """Charge the wakeup (IPI + idle exit) and kick ``cpu`` if the
        wakee should run: always when idle, else by class priority or the
        class's ``wakeup_preempt`` answer."""
        k = self.k
        cfg = k.config
        rng = k._rng
        now = self.clock.now
        rq = k.rqs[cpu]
        cost = extra + (rng.randrange(cfg.wakeup_jitter_ns)
                        if cfg.wakeup_jitter_ns > 0 else 0)
        if waker_cpu is None or waker_cpu == cpu:
            cost += cfg.wakeup_local_ns
        else:
            cost += cfg.wakeup_remote_ns
            if k.topology.distance(waker_cpu, cpu) >= 4:
                cost += cfg.wakeup_cross_socket_extra_ns
        # The target CPU owns this wakee until its kick lands (the IPI'd
        # CPU claims the task in Linux); balancers must not steal it in
        # flight, however long the idle exit takes.
        cur = rq.current
        if cur is None:
            if now - rq.idle_since_ns < cfg.idle_deep_threshold_ns:
                cost += cfg.idle_exit_shallow_ns
                task.kick_at_ns = now + cost
            else:
                # Deep idle (C6).  The exit jitter is drawn twice, window
                # first: the steal-protection window and the kick itself
                # disagree by up to the jitter.  A model quirk kept as is
                # — one draw would shift the RNG stream and every digest
                # (ROADMAP files the fix as a behaviour change).
                jitter_ns = cfg.idle_exit_deep_jitter_ns
                window_jitter, kick_jitter = (
                    (rng.randrange(jitter_ns), rng.randrange(jitter_ns))
                    if jitter_ns > 0 else (0, 0))
                task.kick_at_ns = (now + cost + cfg.idle_exit_deep_ns
                                   + window_jitter)
                cost += cfg.idle_exit_deep_ns + kick_jitter
            rq.need_resched = True
            k.events.after(cost, k.dispatcher.reschedule, cpu)
            return
        task.kick_at_ns = now + cost
        priority = k._class_priority
        if priority[cls] > priority[k.class_of(cur)]:
            decision = "now"
        else:
            decision = cls.wakeup_preempt(cpu, task)
        if decision == "now":
            rq.need_resched = True
            k.events.after(cost, k.dispatcher.reschedule, cpu)
        elif decision == "tick":
            rq.need_resched = True

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------

    def try_migrate(self, pid, dest_cpu, cls):
        """Move a queued (not running) task to ``dest_cpu``'s run queue.

        Every rejected request counts as a failed migration in
        :class:`~repro.simkernel.stats.KernelStats` (and traces the
        rejection reason), so balancers' miss rates are observable.
        """
        k = self.k
        task = k.tasks.get(pid)
        if task is None or task.state != TaskState.RUNNABLE:
            return self.migrate_failed(pid, dest_cpu, "not-runnable")
        if pid in k._limbo:
            return self.migrate_failed(pid, dest_cpu, "in-limbo")
        src_cpu = task.cpu
        if src_cpu == dest_cpu:
            return self.migrate_failed(pid, dest_cpu, "same-cpu")
        src_rq = k.rqs[src_cpu]
        if not src_rq.has(pid):
            return self.migrate_failed(pid, dest_cpu, "not-queued")
        if not task.can_run_on(dest_cpu):
            return self.migrate_failed(pid, dest_cpu, "affinity")
        now = self.clock.now
        if now - task.last_enqueue_ns < k.config.migration_min_queued_ns:
            # Its wakeup IPI is still in flight; the rq lock would be held.
            return self.migrate_failed(pid, dest_cpu, "rq-locked")
        if now < task.kick_at_ns:
            # The woken task belongs to the CPU whose kick is in flight.
            return self.migrate_failed(pid, dest_cpu, "kick-in-flight")
        src_rq.detach(task)
        k.rqs[dest_cpu].attach(task)
        if task.group is not None:
            k.groups.account(task, dest_cpu)
        task.stats.migrations += 1
        k.stats.total_migrations += 1
        k.stats.cpus[dest_cpu].steals += 1
        cls.migrate_task_rq(task, dest_cpu)
        if k.trace is not None:
            k.trace("migrate", t=now, cpu=dest_cpu, pid=pid, src=src_cpu)
        return True

    def migrate_failed(self, pid, dest_cpu, reason):
        k = self.k
        k.stats.failed_migrations += 1
        if k.trace is not None:
            k.trace("migrate_failed", t=k.now, cpu=dest_cpu, pid=pid,
                    reason=reason)
        return False
