"""Unit tests for the decomposed kernel-core subsystems.

These drive :class:`OpInterpreter` and :class:`DispatchEngine` directly —
hand-placed tasks, recording scheduler classes, no workload and no event
pump — so a regression pinpoints the subsystem, not the whole machine.
The facade test pins the public ``Kernel`` API the rest of the tree
(schedulers, sanitizers, fault injection, observers) relies on.
"""

import pytest

from repro.simkernel import (
    DispatchEngine,
    Kernel,
    LifecycleManager,
    MigrationService,
    OpInterpreter,
    Pipe,
    SimConfig,
    Topology,
)
from repro.simkernel.errors import ProgramError, SchedulingError
from repro.simkernel.futex import Futex
from repro.simkernel.program import (Call, FutexWait, FutexWake, PipeRead,
                                    PipeWrite, Run, Sleep)
from repro.simkernel.sched_class import SchedClass
from repro.simkernel.task import TaskState


class RecordingClass(SchedClass):
    """A scheduler class that logs every hook invocation."""

    def __init__(self, policy, log, name):
        super().__init__()
        self.policy = policy
        self.name = name
        self.log = log
        self.pick_result = None      # pid to answer pick_next_task with
        self.balance_result = None   # pid to answer balance with

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        self.log.append(f"{self.name}.select")
        return prev_cpu

    def task_new(self, task, cpu):
        self.log.append(f"{self.name}.task_new")

    def task_wakeup(self, task, cpu):
        self.log.append(f"{self.name}.task_wakeup")

    def task_blocked(self, task, cpu):
        self.log.append(f"{self.name}.task_blocked")

    def task_preempt(self, task, cpu):
        self.log.append(f"{self.name}.task_preempt")

    def task_dead(self, pid):
        self.log.append(f"{self.name}.task_dead")

    def migrate_task_rq(self, task, new_cpu):
        self.log.append(f"{self.name}.migrate_task_rq")

    def balance(self, cpu):
        self.log.append(f"{self.name}.balance")
        pid, self.balance_result = self.balance_result, None
        return pid

    def balance_err(self, cpu, pid):
        self.log.append(f"{self.name}.balance_err")

    def pick_next_task(self, cpu):
        self.log.append(f"{self.name}.pick")
        return self.pick_result


def two_class_kernel():
    """A 2-CPU kernel with recording classes at priorities 10 and 5."""
    kernel = Kernel(Topology.smp(2), SimConfig())
    log = []
    hi = kernel.register_sched_class(RecordingClass(1, log, "hi"),
                                     priority=10)
    lo = kernel.register_sched_class(RecordingClass(2, log, "lo"),
                                     priority=5)
    return kernel, hi, lo, log


def place_queued(kernel, policy, cpu=0, name="t"):
    """Spawn a task and leave it queued on ``cpu`` (no event pump).

    The wakeup-kick ownership windows are cleared so balancers are
    allowed to steal the task immediately.
    """
    task = kernel.spawn(lambda: iter(()), name=name, policy=policy,
                        origin_cpu=cpu)
    assert kernel.rqs[cpu].has(task.pid)
    task.last_enqueue_ns = -(10 ** 9)
    task.kick_at_ns = -1
    return task


def make_running(kernel, task, cpu=0):
    """Promote a queued task to current by hand (what dispatch would do)."""
    rq = kernel.rqs[cpu]
    rq.detach(task)
    task.on_rq = True
    task.cpu = cpu
    rq.current = task
    task.set_state(TaskState.RUNNING)
    task.exec_start_ns = kernel.now
    task.run_started_ns = kernel.now
    return task


def begin_op(kernel, task, op):
    """Have ``task``'s program yield ``op`` next and the interpreter
    fetch and begin it."""
    task._gen = (o for o in (op,))
    kernel.interp.advance_program(task)


def events_after(kernel, seq):
    """Live events scheduled after sequence number ``seq``."""
    return [h for h in kernel.events.pending() if h[1] > seq]


class TestDispatchOrdering:
    def test_pick_walks_classes_highest_priority_first(self):
        kernel, hi, lo, log = two_class_kernel()
        task = place_queued(kernel, policy=2)
        lo.pick_result = task.pid
        del log[:]

        kernel.dispatcher.pick_and_switch(0, prev=None)

        assert log == ["hi.balance", "hi.pick", "lo.balance", "lo.pick"]
        assert kernel.rqs[0].current is task
        assert task.state is TaskState.RUNNING

    def test_pick_stops_at_first_class_with_a_task(self):
        kernel, hi, lo, log = two_class_kernel()
        task = place_queued(kernel, policy=1)
        hi.pick_result = task.pid
        del log[:]

        kernel.dispatcher.pick_and_switch(0, prev=None)

        # The lower class is never consulted once the higher one answers.
        assert log == ["hi.balance", "hi.pick"]
        assert kernel.rqs[0].current is task

    def test_balance_pull_migrates_before_pick(self):
        kernel, hi, lo, log = two_class_kernel()
        task = place_queued(kernel, policy=1, cpu=1)
        hi.balance_result = task.pid
        hi.pick_result = task.pid
        del log[:]

        kernel.dispatcher.pick_and_switch(0, prev=None)

        assert log == ["hi.balance", "hi.migrate_task_rq", "hi.pick"]
        assert kernel.rqs[0].current is task
        assert not kernel.rqs[1].has(task.pid)
        assert kernel.stats.total_migrations == 1

    def test_failed_balance_pull_reports_balance_err(self):
        kernel, hi, lo, log = two_class_kernel()
        running = place_queued(kernel, policy=1, cpu=1, name="running")
        make_running(kernel, running, cpu=1)
        # A running task is not queued anywhere, so the pull must fail.
        hi.balance_result = running.pid
        waiting = place_queued(kernel, policy=2, cpu=0, name="waiting")
        lo.pick_result = waiting.pid
        del log[:]

        kernel.dispatcher.pick_and_switch(0, prev=None)

        assert log == ["hi.balance", "hi.balance_err", "hi.pick",
                       "lo.balance", "lo.pick"]
        assert kernel.stats.failed_migrations == 1
        assert kernel.rqs[0].current is waiting

    def test_bad_pick_raises_and_counts(self):
        kernel, hi, lo, log = two_class_kernel()
        hi.pick_result = 999
        with pytest.raises(SchedulingError):
            kernel.dispatcher.pick_and_switch(0, prev=None)
        assert kernel.stats.pick_errors == 1

    def test_empty_pick_goes_idle(self):
        kernel, hi, lo, log = two_class_kernel()
        kernel.dispatcher.pick_and_switch(0, prev=None)
        rq = kernel.rqs[0]
        assert rq.current is None
        assert rq.idle_since_ns == kernel.now

    def test_pick_charges_balance_pick_and_switch_costs(self):
        kernel, hi, lo, log = two_class_kernel()
        cfg = kernel.config
        task = place_queued(kernel, policy=2)
        lo.pick_result = task.pid
        seq = kernel.events._seq

        kernel.dispatcher.pick_and_switch(0, prev=None)

        # The dispatch completion carries the accumulated cost: one
        # balance + one pick per consulted class, plus the context switch.
        (resume,) = [h for h in events_after(kernel, seq)
                     if h[2] == kernel.dispatcher.task_resume]
        expected = (2 * cfg.sched_balance_ns + 2 * cfg.sched_pick_ns
                    + cfg.context_switch_ns)
        assert resume[0] - kernel.now == expected
        assert task.exec_start_ns == kernel.now + expected


class TestInterpreterCostCharging:
    def test_run_segment_schedules_completion_at_cost(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        seq = kernel.events._seq

        begin_op(kernel, task, Run(10_000))

        (handle,) = events_after(kernel, seq)
        assert handle[2] == kernel.interp.run_complete
        assert handle[0] - kernel.now == 10_000
        assert task.run_remaining_ns == 10_000
        assert not getattr(task, "_in_syscall", False)

    def test_negative_run_rejected(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        with pytest.raises(ProgramError):
            begin_op(kernel, task, Run(-1))

    def test_plain_syscall_charges_syscall_ns(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        seq = kernel.events._seq

        begin_op(kernel, task, FutexWake(Futex()))

        (handle,) = events_after(kernel, seq)
        assert handle[2] == kernel.interp.op_effect
        assert handle[0] - kernel.now == kernel.config.syscall_ns
        assert task._in_syscall is True

    def test_sleep_is_a_syscall(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        seq = kernel.events._seq
        begin_op(kernel, task, Sleep(5_000))
        (handle,) = events_after(kernel, seq)
        assert handle[0] - kernel.now == kernel.config.syscall_ns

    def test_pipe_ops_charge_transfer_cost_on_top(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        cfg = kernel.config
        seq = kernel.events._seq

        begin_op(kernel, task, PipeWrite(Pipe("p"), b"x"))

        (handle,) = events_after(kernel, seq)
        assert (handle[0] - kernel.now
                == cfg.syscall_ns + cfg.pipe_transfer_ns)

    def test_subclassed_op_resolves_to_its_base_handler_once(self):
        from repro.simkernel import interp

        class TimedRun(Run):
            pass

        class LoudWrite(PipeWrite):
            pass

        kernel, hi, lo, _log = two_class_kernel()
        cfg = kernel.config
        task = make_running(kernel, place_queued(kernel, policy=1))
        assert TimedRun not in interp._EFFECTS
        seq = kernel.events._seq
        begin_op(kernel, task, TimedRun(7_000))
        (handle,) = events_after(kernel, seq)
        assert handle[2] == kernel.interp.run_complete
        assert handle[0] - kernel.now == 7_000
        assert interp._EFFECTS[TimedRun] is interp._EFFECTS[Run]

        other = make_running(kernel, place_queued(kernel, policy=1, cpu=1),
                             cpu=1)
        seq = kernel.events._seq
        begin_op(kernel, other, LoudWrite(Pipe("p"), b"x"))
        (handle,) = events_after(kernel, seq)
        assert handle[2] == kernel.interp.op_effect
        assert (handle[0] - kernel.now
                == cfg.syscall_ns + cfg.pipe_transfer_ns)
        assert interp._EFFECTS[LoudWrite] is interp._EFFECTS[PipeWrite]

    def test_unknown_op_rejected_when_its_effect_applies(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        begin_op(kernel, task, "not an op")
        assert task._in_syscall is True
        with pytest.raises(ProgramError, match="unknown op 'not an op'"):
            kernel.run_until_idle()
        assert kernel.now == kernel.config.syscall_ns

    def test_pause_run_segment_banks_remaining_time(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        task.run_remaining_ns = 10_000
        task.run_started_ns = kernel.now - 4_000
        kernel.interp.pause_run_segment(task)
        assert task.run_remaining_ns == 6_000

    def test_stale_epoch_completion_is_ignored(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        task.run_remaining_ns = 1_000
        kernel.interp.run_complete(task, task.run_epoch - 1)
        # A completion from a previous run epoch must not touch the task.
        assert task.run_remaining_ns == 1_000
        assert kernel.rqs[0].current is task


class TestSyscallCompletion:
    """What a syscall's effect does to the task's next op."""

    def test_a_descheduling_effect_does_not_continue_the_task(self):
        kernel, hi, lo, _log = two_class_kernel()
        task = make_running(kernel, place_queued(kernel, policy=1))
        ran = []
        task._gen = (op for op in (PipeRead(Pipe("p")),
                                   Call(ran.append, ("next",))))
        kernel.interp.advance_program(task)
        assert kernel.events.step()      # the read's effect: pipe empty
        assert task.state is TaskState.BLOCKED
        assert kernel.rqs[0].current is None
        assert not task._in_syscall
        kernel.run_until_idle()
        assert ran == []

    def test_futex_wake_delays_the_wakers_next_op_by_the_wake_cost(self):
        kernel, hi, lo, _log = two_class_kernel()
        futex = Futex()
        waiter = make_running(kernel, place_queued(kernel, policy=1, cpu=1),
                              cpu=1)
        begin_op(kernel, waiter, FutexWait(futex))
        kernel.events.step()
        assert waiter.state is TaskState.BLOCKED

        wakes = []
        wake_task = kernel.migration.wake_task

        def recording_wake(*args, **kwargs):
            cost = wake_task(*args, **kwargs)
            wakes.append((kernel.now, cost))
            return cost

        kernel.migration.wake_task = recording_wake
        waker = make_running(kernel, place_queued(kernel, policy=1))
        kernel.rqs[0].need_resched = False   # the spawn's kick: placed by hand
        next_op_at = []
        waker._gen = (op for op in (FutexWake(futex),
                                    Call(lambda: next_op_at.append(
                                        kernel.now))))
        kernel.interp.advance_program(waker)
        kernel.run_until_idle()
        ((woke_at, cost),) = wakes
        assert cost > 0
        assert next_op_at == [woke_at + cost]


class TestKernelFacadeApi:
    """The decomposition must not change the Kernel surface other layers
    use (schedulers, sanitizers, faults, observers, workloads)."""

    METHODS = (
        "register_sched_class", "redirect_policy", "register_hint_handler",
        "spawn", "wake_task", "place_task", "try_migrate", "resched_cpu",
        "run_until", "run_for", "run_until_idle",
        "current_pid", "alive_tasks",
        "_attach_runnable",
    )
    ATTRS = (
        "topology", "config", "clock", "events", "timers", "rqs", "stats",
        "tasks", "trace",
        "_classes", "_class_by_policy", "_limbo", "_rng",
    )

    def test_public_surface_is_intact(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        for name in self.METHODS:
            assert callable(getattr(kernel, name)), name
        for name in self.ATTRS:
            assert hasattr(kernel, name), name

    def test_subsystems_are_wired_to_the_facade(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        assert isinstance(kernel.interp, OpInterpreter)
        assert isinstance(kernel.dispatcher, DispatchEngine)
        assert isinstance(kernel.migration, MigrationService)
        assert isinstance(kernel.lifecycle, LifecycleManager)
        for subsystem in (kernel.interp, kernel.dispatcher,
                          kernel.migration, kernel.lifecycle):
            assert subsystem.k is kernel

    def test_facade_delegates_to_subsystems(self):
        kernel, hi, lo, log = two_class_kernel()
        task = place_queued(kernel, policy=1, cpu=0)
        # try_migrate is served by MigrationService.
        assert kernel.try_migrate(task.pid, 1, hi) is True
        assert kernel.rqs[1].has(task.pid)
        # resched_cpu is served by DispatchEngine.
        kernel.resched_cpu(1)
        assert kernel.rqs[1].need_resched is True

    def test_seeded_rng_is_deterministic_per_config(self):
        a = Kernel(Topology.smp(1), SimConfig().scaled(seed=7))
        b = Kernel(Topology.smp(1), SimConfig().scaled(seed=7))
        c = Kernel(Topology.smp(1), SimConfig().scaled(seed=8))
        draws_a = [a._rng.randrange(1000) for _ in range(5)]
        draws_b = [b._rng.randrange(1000) for _ in range(5)]
        draws_c = [c._rng.randrange(1000) for _ in range(5)]
        assert draws_a == draws_b
        assert draws_a != draws_c
