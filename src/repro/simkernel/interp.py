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
        """Fetch the task's next op and begin it.  A ``Run`` schedules its
        own completion, a ``Call`` runs inline and fetches again, anything
        else is a syscall: entry cost now, effect at completion time,
        non-preemptible in between."""
        k = self.k
        cpu = task.cpu
        while True:
            result = task.pending_result
            task.pending_result = None
            op = task.next_op(result)
            if op is None:
                k.dispatcher.deschedule_current(cpu, EXIT)
                return
            kind = type(op)
            try:
                effect = _EFFECTS[kind]
            except KeyError:
                effect = _resolve(kind)
            if effect is _RUN:
                if op.ns < 0:
                    raise ProgramError(f"negative Run: {op.ns}")
                task.run_remaining_ns = int(op.ns)
                task.run_started_ns = self.clock.now
                k.events.after(task.run_remaining_ns,
                               self.run_complete, task, task.run_epoch)
                return
            if effect is _CALL:
                task.pending_result = op.fn(*op.args)
                continue
            cost = k.config.syscall_ns
            if effect in _TRANSFERS:
                cost += k.config.pipe_transfer_ns
            task._in_syscall = True
            k.events.after(cost, self.op_effect, task, op, task.run_epoch,
                           effect)
            return

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

    def op_effect(self, task, op, epoch, effect):
        """A syscall's entry cost has elapsed: account it, then apply
        ``effect``, the handler ``advance_program`` resolved."""
        k = self.k
        if task.run_epoch != epoch or task.state != TaskState.RUNNING:
            return
        cpu = task.cpu
        if k.rqs[cpu].current is not task:
            return
        task._in_syscall = False
        k.dispatcher.update_curr(cpu)
        effect(self, task, op, epoch, cpu)

    def _pipe_write(self, task, op, epoch, cpu):
        reader, item = op.pipe.write(op.item)
        extra = 0
        if reader is not None:
            reader.pending_result = item
            extra = self.k.wake_task(reader, waker_cpu=cpu,
                                     charge_waker=True)
        task.pending_result = None
        self.complete_op(task, epoch, extra)

    def _pipe_read(self, task, op, epoch, cpu):
        available, item = op.pipe.try_read()
        if available:
            task.pending_result = item
            self.boundary(task)
            return
        op.pipe.add_reader(task)
        self.k.dispatcher.deschedule_current(cpu, BLOCK)

    def _sleep(self, task, op, epoch, cpu):
        k = self.k
        k.dispatcher.deschedule_current(cpu, BLOCK, block_reason="sleep")
        k.timers.arm(op.ns, lambda _t: k.wake_task(task),
                     tag=("sleep", task.pid))

    def _futex_wait(self, task, op, epoch, cpu):
        if op.futex.should_block(op.expected):
            op.futex.add_waiter(task)
            self.k.dispatcher.deschedule_current(cpu, BLOCK)
            return
        task.pending_result = False
        self.boundary(task)

    def _futex_wake(self, task, op, epoch, cpu):
        if op.new_value is not None:
            op.futex.value = op.new_value
        woken = op.futex.take_waiters(op.count)
        extra = 0
        for waiter in woken:
            extra += self.k.wake_task(waiter, waker_cpu=cpu, sync=op.sync,
                                      charge_waker=True)
        task.pending_result = len(woken)
        self.complete_op(task, epoch, extra)

    def _sem_up(self, task, op, epoch, cpu):
        waiter = op.sem.up()
        extra = 0
        if waiter is not None:
            waiter.pending_result = None
            extra = self.k.wake_task(waiter, waker_cpu=cpu,
                                     charge_waker=True)
        task.pending_result = None
        self.complete_op(task, epoch, extra)

    def _sem_down(self, task, op, epoch, cpu):
        if op.sem.try_down():
            task.pending_result = None
            self.boundary(task)
            return
        op.sem.add_waiter(task)
        self.k.dispatcher.deschedule_current(cpu, BLOCK)

    def _yield_cpu(self, task, op, epoch, cpu):
        self.k.dispatcher.deschedule_current(cpu, YIELD)

    def _hint_handler(self, task, op):
        policy = op.policy if op.policy is not None else task.policy
        handler = self.k._hint_handlers.get(policy)
        if handler is None:
            raise ProgramError(
                f"no hint handler for policy {policy} (pid {task.pid})"
            )
        return handler

    def _send_hint(self, task, op, epoch, cpu):
        task.pending_result = self._hint_handler(task, op).send_hint(
            task, op.payload)
        self.boundary(task)

    def _recv_hints(self, task, op, epoch, cpu):
        task.pending_result = self._hint_handler(task, op).drain_rev(task)
        self.boundary(task)

    def _spawn(self, task, op, epoch, cpu):
        k = self.k
        child_policy = op.policy if op.policy is not None else task.policy
        child = k.spawn(
            op.program, name=op.name, policy=child_policy,
            nice=op.nice, allowed_cpus=op.allowed_cpus,
            origin_cpu=cpu, tgid=task.tgid,
        )
        task.pending_result = child.pid
        # The fork ran in this task's context: select_task_rq +
        # task_new delay its next op.
        self.complete_op(task, epoch, k.class_of(child).hooks_cost_ns(2))

    def _set_nice(self, task, op, epoch, cpu):
        k = self.k
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

    def _set_affinity(self, task, op, epoch, cpu):
        k = self.k
        cpus = frozenset(op.cpus)
        if not cpus:
            raise ProgramError(f"pid {task.pid}: empty affinity mask")
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

    def _exit(self, task, op, epoch, cpu):
        task.exit_value = op.value
        self.k.dispatcher.deschedule_current(cpu, EXIT)

    def _unknown_op(self, task, op, epoch, cpu):
        raise ProgramError(f"unknown op {op!r} from pid {task.pid}")


#: ``Run`` and ``Call`` never become syscalls; ``advance_program`` begins
#: them itself when an op type resolves to one of these markers.
_RUN, _CALL = "run", "call"

#: op type -> effect handler, the one place an op is told apart.  Exact
#: types only: ``_resolve`` adds a subclass the first time one is seen.
_EFFECTS = {
    ops.Run: _RUN,
    ops.Call: _CALL,
    ops.PipeWrite: OpInterpreter._pipe_write,
    ops.PipeRead: OpInterpreter._pipe_read,
    ops.Sleep: OpInterpreter._sleep,
    ops.FutexWait: OpInterpreter._futex_wait,
    ops.FutexWake: OpInterpreter._futex_wake,
    ops.SemUp: OpInterpreter._sem_up,
    ops.SemDown: OpInterpreter._sem_down,
    ops.YieldCpu: OpInterpreter._yield_cpu,
    ops.SendHint: OpInterpreter._send_hint,
    ops.RecvHints: OpInterpreter._recv_hints,
    ops.Spawn: OpInterpreter._spawn,
    ops.SetNice: OpInterpreter._set_nice,
    ops.SetAffinity: OpInterpreter._set_affinity,
    ops.Exit: OpInterpreter._exit,
}

#: effects whose syscall entry also pays ``pipe_transfer_ns``
_TRANSFERS = (OpInterpreter._pipe_write, OpInterpreter._pipe_read)


def _resolve(kind):
    """Effect for an op type the table does not hold: a subclass takes its
    nearest registered base's (memoised), anything else is rejected when
    its effect would apply."""
    for base in kind.__mro__:
        if base in _EFFECTS:
            effect = _EFFECTS[kind] = _EFFECTS[base]
            return effect
    return OpInterpreter._unknown_op
