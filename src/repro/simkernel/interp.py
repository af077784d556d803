"""Program-op interpretation: fetching, cost charging, and effects.

One of the four kernel-core subsystems (see :mod:`repro.simkernel.kernel`
for the facade): task programs are generators of ops
(:mod:`repro.simkernel.program`); this subsystem fetches one op at a time,
charges its cost from the calibrated cost model, and applies its effect.
Syscall-like ops are non-preemptible (as in the real kernel); ``Run``
segments are preemptible at any instant.
"""

from repro.simkernel import program as ops
from repro.simkernel.dispatch import BLOCK, EXIT, YIELD
from repro.simkernel.errors import ProgramError
from repro.simkernel.task import TaskState


class OpInterpreter:
    """Executes task programs one op at a time on the kernel."""

    def __init__(self, kernel):
        self.k = kernel
        # Direct clock reference (mirrors DispatchEngine): op boundaries
        # read the time on every op.
        self.clock = kernel.clock

    # ------------------------------------------------------------------
    # fetch / begin
    # ------------------------------------------------------------------

    def advance_program(self, task):
        """Fetch and begin the task's next op.  ``Call`` ops loop inline."""
        k = self.k
        cpu = task.cpu
        while True:
            result = task.pending_result
            task.pending_result = None
            op = task.next_op(result)
            if op is None:
                k.dispatcher.deschedule_current(cpu, EXIT)
                return
            if isinstance(op, ops.Call):
                task.pending_result = op.fn(*op.args)
                continue
            break
        self.begin_op(task, op)

    def begin_op(self, task, op):
        k = self.k
        cfg = k.config
        epoch = task.run_epoch
        if isinstance(op, ops.Run):
            if op.ns < 0:
                raise ProgramError(f"negative Run: {op.ns}")
            task.run_remaining_ns = int(op.ns)
            task.run_started_ns = self.clock.now
            k.events.after(task.run_remaining_ns,
                           self.run_complete, task, epoch)
            return
        # Everything else is a syscall: charge entry cost, then apply the
        # effect at completion time.  Syscalls are non-preemptible.
        cost = cfg.syscall_ns
        if isinstance(op, (ops.PipeWrite, ops.PipeRead)):
            cost += cfg.pipe_transfer_ns
        task._in_syscall = True
        k.events.after(cost, self.op_effect, task, op, epoch)

    # ------------------------------------------------------------------
    # Run segments
    # ------------------------------------------------------------------

    def run_complete(self, task, epoch):
        k = self.k
        if task.run_epoch != epoch or task.state != TaskState.RUNNING:
            return
        if k.rqs[task.cpu].current is not task:
            return
        k.dispatcher.update_curr(task.cpu)
        task.run_remaining_ns = 0
        self.boundary(task)

    def pause_run_segment(self, task):
        """Bank unfinished Run time when a task is preempted mid-segment."""
        if task.run_remaining_ns > 0:
            elapsed = max(0, self.clock.now - task.run_started_ns)
            task.run_remaining_ns = max(0, task.run_remaining_ns - elapsed)

    # ------------------------------------------------------------------
    # syscall completion
    # ------------------------------------------------------------------

    def complete_op(self, task, epoch, extra_cost):
        """Finish a syscall whose effect incurred extra kernel time.

        The extra cost (e.g. try-to-wake-up work done in this task's
        context) delays the task's next op.
        """
        if extra_cost <= 0:
            self.boundary(task)
            return
        task._in_syscall = True
        self.k.events.after(extra_cost, self.op_epilogue, task, epoch)

    def op_epilogue(self, task, epoch):
        k = self.k
        if task.run_epoch != epoch or task.state != TaskState.RUNNING:
            return
        if k.rqs[task.cpu].current is not task:
            return
        task._in_syscall = False
        k.dispatcher.update_curr(task.cpu)
        self.boundary(task)

    def boundary(self, task):
        """An op finished: honor any pending resched, else keep going."""
        k = self.k
        cpu = task.cpu
        rq = k.rqs[cpu]
        if rq.need_resched:
            rq.need_resched = False
            k.dispatcher.preempt_current(cpu)
            return
        self.advance_program(task)

    # ------------------------------------------------------------------
    # op effects
    # ------------------------------------------------------------------

    def op_effect(self, task, op, epoch):
        k = self.k
        if task.run_epoch != epoch or task.state != TaskState.RUNNING:
            return
        cpu = task.cpu
        if k.rqs[cpu].current is not task:
            return
        task._in_syscall = False
        k.dispatcher.update_curr(cpu)

        # Ops are tested roughly in hot-path frequency order (the op
        # classes form a flat hierarchy, so the order is free to choose);
        # pipe traffic dominates the benchmark mixes.
        if isinstance(op, ops.PipeWrite):
            reader, item = op.pipe.write(op.item)
            extra = 0
            if reader is not None:
                reader.pending_result = item
                extra = k.wake_task(reader, waker_cpu=cpu,
                                    charge_waker=True)
            task.pending_result = None
            self.complete_op(task, epoch, extra)
            return
        if isinstance(op, ops.PipeRead):
            available, item = op.pipe.try_read()
            if available:
                task.pending_result = item
                self.boundary(task)
                return
            op.pipe.add_reader(task)
            k.dispatcher.deschedule_current(cpu, BLOCK)
            return
        if isinstance(op, ops.Sleep):
            k.dispatcher.deschedule_current(cpu, BLOCK,
                                            block_reason="sleep")
            k.timers.arm(op.ns, lambda _t: k.wake_task(task),
                         tag=("sleep", task.pid))
            return
        if isinstance(op, ops.FutexWait):
            if op.futex.should_block(op.expected):
                op.futex.add_waiter(task)
                k.dispatcher.deschedule_current(cpu, BLOCK)
                return
            task.pending_result = False
            self.boundary(task)
            return
        if isinstance(op, ops.FutexWake):
            if op.new_value is not None:
                op.futex.value = op.new_value
            woken = op.futex.take_waiters(op.count)
            extra = 0
            for waiter in woken:
                extra += k.wake_task(waiter, waker_cpu=cpu, sync=op.sync,
                                     charge_waker=True)
            task.pending_result = len(woken)
            self.complete_op(task, epoch, extra)
            return
        if isinstance(op, ops.SemUp):
            waiter = op.sem.up()
            extra = 0
            if waiter is not None:
                waiter.pending_result = None
                extra = k.wake_task(waiter, waker_cpu=cpu,
                                    charge_waker=True)
            task.pending_result = None
            self.complete_op(task, epoch, extra)
            return
        if isinstance(op, ops.SemDown):
            if op.sem.try_down():
                task.pending_result = None
                self.boundary(task)
                return
            op.sem.add_waiter(task)
            k.dispatcher.deschedule_current(cpu, BLOCK)
            return
        if isinstance(op, ops.YieldCpu):
            k.dispatcher.deschedule_current(cpu, YIELD)
            return
        if isinstance(op, ops.SendHint):
            policy = op.policy if op.policy is not None else task.policy
            handler = k._hint_handlers.get(policy)
            if handler is None:
                raise ProgramError(
                    f"no hint handler for policy {policy} (pid {task.pid})"
                )
            task.pending_result = handler.send_hint(task, op.payload)
            self.boundary(task)
            return
        if isinstance(op, ops.RecvHints):
            policy = op.policy if op.policy is not None else task.policy
            handler = k._hint_handlers.get(policy)
            if handler is None:
                raise ProgramError(
                    f"no hint handler for policy {policy} (pid {task.pid})"
                )
            task.pending_result = handler.drain_rev(task)
            self.boundary(task)
            return
        if isinstance(op, ops.Spawn):
            child_policy = op.policy if op.policy is not None else task.policy
            child = k.spawn(
                op.program, name=op.name, policy=child_policy,
                nice=op.nice, allowed_cpus=op.allowed_cpus,
                origin_cpu=cpu, tgid=task.tgid,
            )
            task.pending_result = child.pid
            # The fork ran in this task's context: select_task_rq +
            # task_new delay its next op.
            self.complete_op(task, epoch,
                             k.class_of(child).hooks_cost_ns(2))
            return
        if isinstance(op, ops.SetNice):
            if task.group is not None:
                # Re-account under the new weight: the group runnable
                # index holds the old weight until told otherwise.
                k.groups.unaccount(task)
                task.set_nice(op.nice)
                k.groups.account(task, cpu)
            else:
                task.set_nice(op.nice)
            k.class_of(task).task_prio_changed(task, cpu)
            task.pending_result = None
            self.boundary(task)
            return
        if isinstance(op, ops.SetAffinity):
            self.set_affinity(task, frozenset(op.cpus))
            return
        if isinstance(op, ops.Exit):
            task.exit_value = op.value
            k.dispatcher.deschedule_current(cpu, EXIT)
            return
        raise ProgramError(f"unknown op {op!r} from pid {task.pid}")

    def set_affinity(self, task, cpus):
        k = self.k
        if not cpus:
            raise ProgramError(f"pid {task.pid}: empty affinity mask")
        cpu = task.cpu
        task.allowed_cpus = cpus
        k.class_of(task).task_affinity_changed(task, cpu)
        if cpu in cpus:
            task.pending_result = None
            self.boundary(task)
            return
        # Running on a now-disallowed CPU: migrate by block + instant wake,
        # which routes through select_task_rq as the migration thread would.
        k.dispatcher.deschedule_current(cpu, BLOCK)
        k.events.after(k.config.migrate_ns, k.wake_task, task, cpu)
