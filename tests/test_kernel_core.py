"""Integration tests for the kernel core using the trusted native FIFO.

These pin down the substrate's call-ordering contract — the exact sequence
of scheduler-class invocations the paper describes in section 3.1 — before
any Enoki machinery is layered on top.
"""

import re

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
    SetAffinity,
    SetNice,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.exp import KernelBuilder
from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel.futex import Futex
from repro.simkernel.task import TaskState
from repro.workloads.batch import BatchApp


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


@pytest.mark.parametrize("mask", (frozenset(), frozenset({2, 5})))
@pytest.mark.parametrize("enoki", (False, True))
class TestForeignMask:
    """A mask holding no CPU of the machine is the caller's error,
    refused where it is given (spawn, ``SetAffinity``): it never reaches
    placement, where it would read as the scheduler class placing the
    task on a disallowed CPU."""

    @staticmethod
    def kernel(enoki):
        builder = KernelBuilder(topology="smp:2")
        builder = (builder.with_enoki("wfq", policy=1) if enoki
                   else builder.with_native("fifo_native", policy=1))
        return builder.build().kernel

    def test_kernel_spawn(self, mask, enoki):
        kernel = self.kernel(enoki)
        with pytest.raises(ProgramError, match=re.escape(
                f"pid 1: affinity mask {sorted(mask)} holds no cpu")):
            kernel.spawn(spin_prog, policy=1, allowed_cpus=mask)
        # Refused before anything changed: the pid is still free.
        assert not kernel.tasks
        assert kernel.spawn(spin_prog, policy=1).pid == 1

    def test_spawn_op(self, mask, enoki):
        kernel = self.kernel(enoki)

        def parent():
            yield Spawn(spin_prog, allowed_cpus=mask)

        kernel.spawn(parent, policy=1)
        with pytest.raises(ProgramError, match=re.escape(
                f"pid 2: affinity mask {sorted(mask)} holds no cpu")):
            kernel.run_until_idle()
        assert list(kernel.tasks) == [1]

    def test_set_affinity_op(self, mask, enoki):
        kernel = self.kernel(enoki)

        def prog():
            yield Run(1_000)
            yield SetAffinity(mask)
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1)
        with pytest.raises(ProgramError, match=re.escape(
                f"pid 1: affinity mask {sorted(mask)} holds no cpu")):
            kernel.run_until_idle()
        assert task.allowed_cpus is None


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

    @pytest.mark.parametrize("cpus, cpu, moves",
                             (({0}, 0, 1), ({0, 1}, 1, 0)))
    def test_a_forced_affinity_move_counts_as_a_migration(self, cpus, cpu,
                                                          moves):
        """Leaving a CPU the mask disallows is the migration thread's
        move; a mask that keeps the CPU moves nothing."""
        kernel, _ = make_kernel(nr_cpus=2)

        def prog():
            yield Run(1_000)
            yield SetAffinity(frozenset(cpus))
            yield Run(1_000)

        task = kernel.spawn(prog, policy=1, allowed_cpus=frozenset({1}))
        kernel.run_until_idle()
        assert task.cpu == cpu
        assert task.stats.migrations == moves
        assert kernel.stats.total_migrations == moves

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

    def test_duplicate_policy_rejected(self):
        kernel, _ = make_kernel()
        with pytest.raises(SchedulingError):
            kernel.register_sched_class(NativeFifoClass(policy=1))


class TestClassMap:
    """``Kernel._class_cache``: every lookup subscripts it, and a miss
    resolves the policy's redirect, or its own registered class."""

    def test_miss_after_redirect_resolves_to_the_fallback(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        first = kernel.register_sched_class(NativeFifoClass(policy=1))
        fallback = kernel.register_sched_class(NativeFifoClass(policy=2))
        task = kernel.spawn(spin_prog, policy=1)
        assert kernel._class_cache[1] is first     # memoised hit
        kernel.redirect_policy(1, 2)
        assert 1 not in kernel._class_cache         # the redirect cleared it
        assert kernel._class_cache[task.policy] is fallback

    def test_miss_after_registration_resolves_to_the_new_class(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        kernel.register_sched_class(NativeFifoClass(policy=1))
        assert kernel._class_cache[1].policy == 1
        late = kernel.register_sched_class(NativeFifoClass(policy=3))
        assert dict(kernel._class_cache) == {}     # registration cleared it
        assert kernel._class_cache[3] is late

    def test_unregistered_policy_raises_naming_it(self):
        kernel = Kernel(Topology.smp(1), SimConfig())
        kernel.register_sched_class(NativeFifoClass(policy=1))
        with pytest.raises(SchedulingError, match="unregistered policy 9"):
            kernel._class_cache[9]
        task = kernel.spawn(spin_prog, policy=1)
        task.policy = 9
        with pytest.raises(SchedulingError, match="unregistered policy 9"):
            kernel._class_cache[task.policy]
        assert 9 not in kernel._class_cache         # a failure is not memoised


def spin_prog():
    yield Run(1_000)


class TestAccounting:
    def test_cpu_busy_time_charged(self):
        kernel, _ = make_kernel(nr_cpus=1)

        def prog():
            yield Run(100_000)

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        assert task.sum_exec_runtime_ns >= 100_000
        assert kernel.stats.cpus[0].busy_ns == task.sum_exec_runtime_ns

    def test_tgid_aggregation(self):
        kernel, _ = make_kernel(nr_cpus=2)

        def child():
            yield Run(50_000)

        def parent():
            yield Spawn(child)
            yield Run(50_000)

        task = kernel.spawn(parent, policy=1)
        kernel.run_until_idle()
        total = BatchApp(kernel, task.tgid, started_ns=0).busy_ns()
        assert total >= 100_000
        assert total == kernel.stats.busy_ns_total()

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
