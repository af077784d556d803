"""Tests for timers, pipes/futexes edge cases, and kernel services."""

import pytest

from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import Clock
from repro.simkernel.errors import ProgramError, SimError
from repro.simkernel.events import EventQueue
from repro.simkernel.futex import Futex
from repro.simkernel.pipe import Pipe
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.timers import TimerService
from repro.schedulers.fifo_native import NativeFifoClass


def make_timer_service():
    events = EventQueue(Clock())
    return TimerService(events, SimConfig()), events


class TestTimers:
    def test_one_shot_fires_once(self):
        service, events = make_timer_service()
        fired = []
        service.arm(1_000, lambda t: fired.append(events.clock.now))
        events.run_until_idle()
        assert len(fired) == 1
        assert fired[0] >= 1_000

    def test_min_delay_floor(self):
        service, events = make_timer_service()
        fired = []
        service.arm(0, lambda t: fired.append(events.clock.now))
        events.run_until_idle()
        assert fired[0] >= SimConfig().timer_min_delay_ns

    def test_cancel_prevents_firing(self):
        service, events = make_timer_service()
        fired = []
        timer = service.arm(1_000, lambda t: fired.append(1))
        timer.cancel()
        events.run_until_idle()
        assert fired == []
        assert not timer.active

    def test_periodic_repeats_until_cancelled(self):
        service, events = make_timer_service()
        count = {"n": 0}

        def tick(chain):
            count["n"] += 1
            if count["n"] == 5:
                chain.cancel()

        service.arm_periodic(1_000, tick)
        events.run_until_idle()
        assert count["n"] == 5

    def test_negative_delay_rejected(self):
        service, _ = make_timer_service()
        with pytest.raises(SimError):
            service.arm(-5, lambda t: None)
        with pytest.raises(SimError):
            service.arm_periodic(0, lambda t: None)


class TestPipeEdgeCases:
    def test_multiple_waiting_readers_fifo(self):
        pipe = Pipe()

        class FakeTask:
            pass

        a, b = FakeTask(), FakeTask()
        pipe.add_reader(a)
        pipe.add_reader(b)
        reader, item = pipe.write("x")
        assert reader is a
        reader, item = pipe.write("y")
        assert reader is b

    def test_double_add_reader_rejected(self):
        pipe = Pipe()

        class FakeTask:
            pass

        task = FakeTask()
        pipe.add_reader(task)
        with pytest.raises(SimError):
            pipe.add_reader(task)

    def test_buffered_then_waiting(self):
        pipe = Pipe()
        pipe.write(1)
        ok, item = pipe.try_read()
        assert ok and item == 1
        ok, item = pipe.try_read()
        assert not ok


class TestFutexEdgeCases:
    def test_take_waiters_fifo_order(self):
        futex = Futex()

        class FakeTask:
            def __init__(self, n):
                self.n = n

        tasks = [FakeTask(i) for i in range(3)]
        for task in tasks:
            futex.add_waiter(task)
        woken = futex.take_waiters(2)
        assert [t.n for t in woken] == [0, 1]
        assert len(futex.waiters) == 1

    def test_should_block_respects_expected(self):
        futex = Futex(value=5)
        assert futex.should_block(5)
        assert not futex.should_block(4)
        assert futex.should_block(None)


class TestKernelMisc:
    def make(self):
        kernel = Kernel(Topology.smp(2), SimConfig())
        kernel.register_sched_class(NativeFifoClass(policy=1), priority=10)
        return kernel

    def test_hint_without_handler_raises(self):
        kernel = self.make()

        def prog():
            yield SendHint({"x": 1})

        kernel.spawn(prog, policy=1)
        with pytest.raises(ProgramError):
            kernel.run_until_idle()

    def test_negative_run_rejected(self):
        kernel = self.make()

        def prog():
            yield Run(-5)

        kernel.spawn(prog, policy=1)
        with pytest.raises(ProgramError):
            kernel.run_until_idle()

    def test_run_for_and_now(self):
        kernel = self.make()
        kernel.run_for(5_000)
        assert kernel.now == 5_000

    def test_deep_idle_exit_costs_more(self):
        """The C-state model: a long-idle CPU wakes slower."""
        config = SimConfig()
        results = {}
        for idle_ns, label in ((500_000, "shallow"),
                               (5_000_000, "deep")):
            kernel = Kernel(Topology.smp(1), config)
            kernel.register_sched_class(NativeFifoClass(policy=1),
                                        priority=10)

            def prog(idle=idle_ns):
                def inner():
                    yield Run(1_000)
                    yield Sleep(idle)
                    yield Run(1_000)
                return inner

            task = kernel.spawn(prog(), policy=1)
            kernel.run_until_idle()
            results[label] = task.stats.wakeup_latencies[-1]
        assert results["deep"] > results["shallow"] + \
            config.idle_exit_deep_ns / 2

    def test_wakeup_of_runnable_task_is_noop(self):
        kernel = self.make()

        def prog():
            yield Run(100_000)

        task = kernel.spawn(prog, policy=1)
        assert kernel.wake_task(task) == 0
        kernel.run_until_idle()
