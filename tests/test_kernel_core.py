"""Integration tests for the kernel core using the trusted native FIFO.

These pin down the substrate's call-ordering contract — the exact sequence
of scheduler-class invocations the paper describes in section 3.1 — before
any Enoki machinery is layered on top.
"""

import pytest

from repro.simkernel import Kernel, Pipe, SimConfig, Topology
from repro.simkernel.errors import ProgramError, SchedulingError
from repro.simkernel.program import (
    Call,
    Exit,
    FutexWait,
    FutexWake,
    PipeRead,
    PipeWrite,
    Run,
    SendHint,
    SetAffinity,
    SetNice,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.core import EnokiSchedClass
from repro.exp import KernelBuilder
from repro.schedulers.fifo_native import NativeFifoClass
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel.futex import Futex
from repro.simkernel.task import TaskState


def make_kernel(nr_cpus=2, **config_overrides):
    session = (KernelBuilder(topology=f"smp:{nr_cpus}")
               .with_config(**config_overrides)
               .with_native("fifo_native", policy=1, priority=10)
               .build())
    return session.kernel, session.sched_class()


class TestBasicExecution:
    def test_single_task_runs_to_completion(self):
        kernel, _ = make_kernel()

        def prog():
            yield Run(10_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert task.sum_exec_runtime_ns >= 10_000

    def test_exit_value(self):
        kernel, _ = make_kernel()

        def prog():
            yield Run(100)
            return "done"

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.exit_value == "done"

    def test_explicit_exit_op(self):
        kernel, _ = make_kernel()

        def prog():
            yield Run(100)
            yield Exit("early")
            yield Run(1_000_000)  # never reached

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.exit_value == "early"
        assert task.sum_exec_runtime_ns < 10_000

    def test_call_op_runs_host_callback(self):
        kernel, _ = make_kernel()
        stamps = []

        def prog():
            yield Run(500)
            value = yield Call(lambda: kernel.now)
            stamps.append(value)

        kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert stamps and stamps[0] >= 500

    def test_two_tasks_two_cpus_run_in_parallel(self):
        kernel, _ = make_kernel(nr_cpus=2)

        def prog():
            yield Run(1_000_000)

        t1 = kernel.spawn(prog, policy=1)
        t2 = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        # Parallel execution: both done well before 2x the single time.
        assert kernel.now < 1_300_000
        assert t1.cpu != t2.cpu

    def test_sleep_blocks_and_wakes(self):
        kernel, _ = make_kernel()

        def prog():
            yield Run(1_000)
            yield Sleep(50_000)
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert kernel.now >= 52_000
        assert task.stats.blocked_count == 1


class TestPipes:
    def test_ping_pong(self):
        kernel, _ = make_kernel()
        ping, pong = Pipe("ping"), Pipe("pong")
        rounds = 10

        def writer():
            for _ in range(rounds):
                yield PipeWrite(ping, b"x")
                yield PipeRead(pong)

        def reader():
            for _ in range(rounds):
                yield PipeRead(ping)
                yield PipeWrite(pong, b"y")

        w = kernel.spawn(writer, policy=1)
        r = kernel.spawn(reader, policy=1)
        kernel.run_until_idle()
        assert w.state is TaskState.DEAD
        assert r.state is TaskState.DEAD

    def test_read_returns_written_item(self):
        kernel, _ = make_kernel()
        pipe = Pipe()
        got = []

        def writer():
            yield PipeWrite(pipe, {"payload": 7})

        def reader():
            item = yield PipeRead(pipe)
            got.append(item)

        kernel.spawn(reader, policy=1)
        kernel.spawn(writer, policy=1)
        kernel.run_until_idle()
        assert got == [{"payload": 7}]

    def test_buffered_write_does_not_block_reader_later(self):
        kernel, _ = make_kernel()
        pipe = Pipe()
        got = []

        def writer():
            yield PipeWrite(pipe, 1)
            yield PipeWrite(pipe, 2)

        def reader():
            yield Sleep(10_000)
            got.append((yield PipeRead(pipe)))
            got.append((yield PipeRead(pipe)))

        kernel.spawn(writer, policy=1)
        kernel.spawn(reader, policy=1)
        kernel.run_until_idle()
        assert got == [1, 2]


class TestFutex:
    def test_wait_and_wake(self):
        kernel, _ = make_kernel()
        futex = Futex()
        order = []

        def waiter():
            order.append("wait")
            yield FutexWait(futex)
            order.append("woken")

        def waker():
            yield Sleep(5_000)
            order.append("wake")
            yield FutexWake(futex, 1)

        kernel.spawn(waiter, policy=1)
        kernel.spawn(waker, policy=1)
        kernel.run_until_idle()
        assert order == ["wait", "wake", "woken"]

    def test_expected_value_race_check(self):
        kernel, _ = make_kernel()
        futex = Futex(value=1)

        def waiter():
            # Value already changed from 0: must not block.
            result = yield FutexWait(futex, expected=0)
            assert result is False

        task = kernel.spawn(waiter, policy=1)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD

    def test_wake_count_limits_woken_tasks(self):
        kernel, _ = make_kernel(nr_cpus=4)
        futex = Futex()
        woken = []

        def waiter(i):
            def prog():
                yield FutexWait(futex)
                woken.append(i)
            return prog

        for i in range(3):
            kernel.spawn(waiter(i), policy=1)
        kernel.run_for(10_000)

        def waker():
            count = yield FutexWake(futex, 2)
            assert count == 2

        kernel.spawn(waker, policy=1)
        kernel.run_for(100_000)
        assert sorted(woken) == [0, 1]
        assert len(futex.waiters) == 1


class TestSchedulingMechanics:
    def test_yield_lets_other_task_run(self):
        kernel, _ = make_kernel(nr_cpus=1)
        order = []

        def a():
            order.append("a1")
            yield Run(1_000)
            yield YieldCpu()
            order.append("a2")
            yield Run(1_000)

        def b():
            order.append("b1")
            yield Run(1_000)

        kernel.spawn(a, policy=1)
        kernel.spawn(b, policy=1)
        kernel.run_until_idle()
        assert order == ["a1", "b1", "a2"]

    def test_timeslice_preemption_round_robins(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        fifo = NativeFifoClass(policy=1, timeslice_ns=2_000_000)
        kernel.register_sched_class(fifo, priority=10)

        def prog():
            yield Run(10_000_000)

        t1 = kernel.spawn(prog, policy=1)
        t2 = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert t1.state is TaskState.DEAD
        assert t2.state is TaskState.DEAD
        # Both made progress by interleaving, so both saw preemptions.
        assert t1.stats.preemptions + t2.stats.preemptions >= 4

    def test_spawn_op_creates_child(self):
        kernel, _ = make_kernel()
        children = []

        def child():
            yield Run(1_000)

        def parent():
            pid = yield Spawn(child, name="kid")
            children.append(pid)
            yield Run(100)

        kernel.spawn(parent, policy=1)
        kernel.run_until_idle()
        assert len(children) == 1
        assert kernel.tasks[children[0]].name == "kid"
        assert kernel.tasks[children[0]].state is TaskState.DEAD

    def test_set_nice(self):
        kernel, _ = make_kernel()

        def prog():
            yield SetNice(10)
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.nice == 10

    def test_set_affinity_migrates_off_disallowed_cpu(self):
        kernel, _ = make_kernel(nr_cpus=2)

        def prog():
            yield Run(1_000)
            yield SetAffinity(frozenset({1}))
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1, origin_cpu=0)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert task.cpu == 1

    def test_wakeup_latency_recorded(self):
        kernel, _ = make_kernel()

        def prog():
            yield Sleep(10_000)
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        # One wakeup from the fork, one from the sleep.
        assert task.stats.wakeups == 2
        assert all(lat > 0 for lat in task.stats.wakeup_latencies)

    def test_bad_pick_is_a_kernel_crash(self):
        """A native class returning an unqueued pid crashes the kernel —
        the exact failure Enoki's Schedulable token is designed to stop."""

        class EvilFifo(NativeFifoClass):
            def pick_next_task(self, cpu):
                return 9999  # not a real task

        kernel = Kernel(Topology.smp(1), SimConfig())
        kernel.register_sched_class(EvilFifo(policy=1), priority=10)

        def prog():
            yield Run(1_000)

        kernel.spawn(prog, policy=1)
        with pytest.raises(SchedulingError):
            kernel.run_until_idle()


class TestClassStacking:
    def test_higher_priority_class_wins(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        high = NativeFifoClass(policy=2)
        low = NativeFifoClass(policy=1)
        kernel.register_sched_class(high, priority=20)
        kernel.register_sched_class(low, priority=10)
        order = []

        def hi_prog():
            order.append("high")
            yield Run(1_000)

        def lo_prog():
            order.append("low")
            yield Run(1_000)

        kernel.spawn(lo_prog, policy=1)
        kernel.spawn(hi_prog, policy=2)
        kernel.run_until_idle()
        assert order == ["high", "low"]

    def test_idle_falls_through_to_lower_class(self):
        """When the high class has nothing, the low class's tasks run —
        the 'seamlessly cedes cycles to CFS' behaviour of section 5.4."""
        kernel = Kernel(Topology.smp(1), SimConfig())
        high = NativeFifoClass(policy=2)
        low = NativeFifoClass(policy=1)
        kernel.register_sched_class(high, priority=20)
        kernel.register_sched_class(low, priority=10)

        def bursty():
            for _ in range(3):
                yield Run(1_000)
                yield Sleep(100_000)

        def background():
            yield Run(200_000)

        hi_task = kernel.spawn(bursty, policy=2)
        lo_task = kernel.spawn(background, policy=1)
        kernel.run_until_idle()
        assert hi_task.state is TaskState.DEAD
        assert lo_task.state is TaskState.DEAD
        # The background task filled the gaps: total time is far below
        # the serialized sum.
        assert kernel.now < 400_000

    def test_unregister_requires_no_tasks(self):
        kernel, _ = make_kernel()

        def prog():
            yield Run(1_000_000)

        kernel.spawn(prog, policy=1)
        with pytest.raises(SchedulingError):
            kernel.unregister_sched_class(1)
        kernel.run_until_idle()
        kernel.unregister_sched_class(1)

    def test_unregister_drops_the_hint_handler(self):
        """A hint for a policy whose class is gone is the sender's
        program error, not a crash inside the detached shim."""
        kernel, _ = make_kernel()
        EnokiSchedClass.register(kernel, EnokiWfq(2, 7), 7)
        kernel.unregister_sched_class(7)

        def prog():
            yield SendHint({"deadline": 1}, policy=7)

        kernel.spawn(prog, policy=1)
        with pytest.raises(ProgramError, match="no hint handler for policy 7"):
            kernel.run_until_idle()

    def test_unregister_drops_redirects_onto_the_policy(self):
        kernel, fifo = make_kernel()
        kernel.register_sched_class(NativeFifoClass(policy=2), priority=5)
        kernel.redirect_policy(1, 2)
        kernel.unregister_sched_class(2)

        def prog():
            yield Run(1_000)

        # Policy 1 is served by its own class again, not routed to a
        # class that is no longer there.
        task = kernel.spawn(prog, policy=1)
        assert kernel.class_of(task) is fifo
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD

    def test_unregister_drops_the_policys_own_redirect(self):
        kernel, fifo = make_kernel()
        kernel.register_sched_class(NativeFifoClass(policy=2), priority=5)
        kernel.redirect_policy(2, 1)           # failover: 2 served by 1
        kernel.unregister_sched_class(2)
        fresh = kernel.register_sched_class(NativeFifoClass(policy=2))

        def prog():
            yield Run(1_000)

        # A class registered under the number later is not hijacked by
        # the old failover route.
        assert kernel.class_of(kernel.spawn(prog, policy=2)) is fresh
        kernel.run_until_idle()

    def test_duplicate_policy_rejected(self):
        kernel, _ = make_kernel()
        with pytest.raises(SchedulingError):
            kernel.register_sched_class(NativeFifoClass(policy=1))

    def test_class_priority_is_the_registered_one(self):
        kernel, fifo = make_kernel()
        assert kernel.class_priority(fifo) == 10
        with pytest.raises(SchedulingError):
            kernel.class_priority(NativeFifoClass(policy=9))
        kernel.unregister_sched_class(1)
        with pytest.raises(SchedulingError):
            kernel.class_priority(fifo)


class TestAccounting:
    def test_cpu_busy_time_charged(self):
        kernel, _ = make_kernel(nr_cpus=1)

        def prog():
            yield Run(100_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        busy = kernel.stats.cpus[0].busy_ns_by_pid[task.pid]
        assert busy >= 100_000

    def test_tgid_aggregation(self):
        kernel, _ = make_kernel(nr_cpus=2)

        def child():
            yield Run(50_000)

        def parent():
            yield Spawn(child)
            yield Run(50_000)

        task = kernel.spawn(parent, policy=1)
        kernel.run_until_idle()
        total = kernel.stats.busy_ns_for_tgid(task.tgid)
        assert total >= 100_000

    def test_idle_time_accumulates(self):
        kernel, _ = make_kernel(nr_cpus=2)

        def prog():
            yield Run(10_000)

        kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        kernel.run_until(1_000_000)
        # cpu 1 never ran anything; the sim ends with idle not yet flushed,
        # but cpu 0 accumulated pre-spawn idle at dispatch time.
        assert kernel.stats.cpus[0].idle_ns >= 0
