"""Tests for timers, pipes/futexes edge cases, and kernel services."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp import KernelBuilder
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import Clock
from repro.simkernel.dispatch import DispatchEngine
from repro.simkernel.errors import ProgramError, SimError
from repro.simkernel.events import EventQueue
from repro.simkernel.futex import Futex
from repro.simkernel.pipe import Pipe
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.timers import TimerService
from repro.schedulers.fifo_native import NativeFifoClass
from repro.workloads.pipe_bench import run_pipe_benchmark


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

    def test_rearm_in_place_reuses_the_timer(self):
        service, events = make_timer_service()
        fired = []
        timer = service.arm(1_000, fired.append, tag="t")
        assert service.arm(5_000, fired.append, timer=timer) is timer
        events.run_until_idle()
        assert fired == [timer] and events.clock.now > 5_000
        service.arm(1_000, fired.append, timer=timer)
        assert timer.active
        events.run_until_idle()
        assert fired == [timer, timer] and not timer.active

    def test_negative_delay_rejected(self):
        service, _ = make_timer_service()
        with pytest.raises(SimError):
            service.arm(-5, lambda t: None)
        with pytest.raises(SimError):
            service.arm_periodic(0, lambda t: None)


#: one operation on timer slot ``slot``: ``("arm", slot, delay_ns)`` arms
#: or re-arms it, ``("cancel", slot, 0)`` cancels it, ``("fire", 0, 0)``
#: runs the next event.  Delays straddle the 200 ns floor, so re-arms
#: land earlier, later and on the same expiry as the pending one.
TIMER_OPS = st.lists(st.one_of(
    st.tuples(st.just("arm"), st.integers(0, 3),
              st.sampled_from((0, 150, 200, 300, 1_000, 2_500))),
    st.tuples(st.just("cancel"), st.integers(0, 3), st.just(0)),
    st.tuples(st.just("fire"), st.just(0), st.just(0)),
), max_size=60)


def drive_timers(ops, in_place):
    """Run ``ops`` on a fresh service.  Every other fire (over all slots)
    re-arms the fired timer from its own callback, as a resched timer
    does when the pick it causes arms the next slice.  Returns the heap's
    ``(time, seq)`` pairs, stale entries included, the live ones, and
    the fire order."""
    service, events = make_timer_service()
    timers, fires = {}, []

    def arm(slot, delay_ns):
        if in_place and slot in timers:
            service.arm(delay_ns, on_fire, timer=timers[slot])
            return
        if slot in timers:
            timers[slot].cancel()
        timers[slot] = service.arm(delay_ns, on_fire, tag=slot)

    def on_fire(timer):
        fires.append((events.clock.now, timer.tag))
        if len(fires) % 2:
            arm(timer.tag, 300)

    for op, slot, delay_ns in ops:
        if op == "arm":
            arm(slot, delay_ns)
        elif op == "cancel" and slot in timers:
            timers[slot].cancel()
        elif op == "fire":
            events.step()
    heap = sorted(entry[:2] for entry in events._heap)
    live = [entry[:2] for entry in events.pending()]
    return heap, live, events._stale, fires


class TestRearmInPlace:
    @settings(max_examples=200, deadline=None)
    @given(TIMER_OPS)
    def test_in_place_rearm_leaves_the_heap_of_cancel_and_arm(self, ops):
        """Re-arming one Timer in place cancels its pending entry and
        queues a new one: the heap (stale entries and ``seq`` numbers
        included) and the fire order equal a cancel plus a fresh arm's."""
        assert drive_timers(ops, True) == drive_timers(ops, False)


class TestPeriodicRestart:
    def test_restart_keeps_tag_callback_and_period(self):
        service, events = make_timer_service()
        fired = []
        chain = service.arm_periodic(1_000, fired.append, tag=("tick", 0))
        events.run_until(2_500)
        chain.cancel()
        assert fired == [chain, chain]
        # A restart keeps the chain's own tag and callback.
        again = service.arm_periodic(1_000, None, tag="other", timer=chain)
        assert again is chain and chain.active
        assert (chain.tag, chain.callback, chain.period_ns) == (
            ("tick", 0), fired.append, 1_000)
        assert events.pending() == [chain.handle]
        assert chain.handle[0] == 3_500
        events.run_until(5_000)
        assert fired == [chain] * 4

    def test_restart_cancels_a_live_chain_first(self):
        service, events = make_timer_service()
        fired = []
        chain = service.arm_periodic(1_000, lambda t: fired.append(
            events.clock.now))
        events.run_until(1_500)
        service.arm_periodic(1_000, None, timer=chain)
        assert len(events) == 1
        events.run_until(4_000)
        assert fired == [1_000, 2_500, 3_500]

    @pytest.mark.parametrize("live", [False, True],
                             ids=["cancelled", "live"])
    def test_restart_leaves_the_heap_of_cancel_and_arm(self, live):
        """The queue's live entries, stale count and ``seq`` counter
        end as ``cancel()`` plus a fresh ``arm_periodic`` leave them."""
        def drive(in_place):
            service, events = make_timer_service()
            other = service.arm_periodic(700, lambda t: None)
            chain = service.arm_periodic(1_000, lambda t: None, tag="c")
            events.run_until(2_200)
            if not live:
                chain.cancel()
            events.run_until(2_600)
            if in_place:
                service.arm_periodic(1_000, None, timer=chain)
            else:
                chain.cancel()
                chain = service.arm_periodic(1_000, lambda t: None,
                                             tag="c")
            events.run_until(4_000)
            other.cancel()
            return ([entry[:2] for entry in events.pending()],
                    sorted(entry[:2] for entry in events._heap),
                    events._stale, events._seq, chain.handle[0])

        assert drive(True) == drive(False)

    def test_a_chain_restarted_by_its_own_callback_is_armed_once(self):
        service, events = make_timer_service()
        fired = []

        def restart(chain):
            fired.append(events.clock.now)
            if len(fired) == 1:
                service.arm_periodic(300, None, timer=chain)

        chain = service.arm_periodic(1_000, restart)
        events.run_until(2_000)
        chain.cancel()
        assert fired == [1_000, 1_300, 1_600, 1_900]
        assert len(events) == 0


class TestNohzTick:
    def test_each_cpu_restarts_one_tick_timer(self, monkeypatch):
        """Over a two-CPU pipe ping-pong every CPU idles and leaves idle
        hundreds of times: each restart reuses the CPU's one tick Timer
        and re-arms it a tick period after the dispatch.  A task that
        then runs for longer than a tick is ticked at those instants."""
        restarts, ticks = [], []
        arm_periodic, tick = TimerService.arm_periodic, DispatchEngine.tick

        def record_restart(service, period_ns, callback, tag=None,
                           timer=None):
            chain = arm_periodic(service, period_ns, callback, tag, timer)
            restarts.append((service.events.clock.now, chain,
                             chain.handle[0]))
            return chain

        def record_tick(dispatcher, timer):
            ticks.append((dispatcher.clock.now, timer))
            tick(dispatcher, timer)

        monkeypatch.setattr(TimerService, "arm_periodic", record_restart)
        monkeypatch.setattr(DispatchEngine, "tick", record_tick)
        kernel = (KernelBuilder("smp:2").with_native("cfs")
                  .with_enoki("wfq", policy=7).build()).kernel
        timers = list(kernel.dispatcher._tick_timers)
        period = kernel.config.tick_period_ns
        run_pipe_benchmark(kernel, 7, rounds=200)
        assert len(restarts) >= 400
        assert kernel.dispatcher._tick_timers == timers
        assert {id(chain) for _, chain, _ in restarts} == set(map(id, timers))
        assert all(chain.tag == ("tick", timers.index(chain))
                   and expiry == now + period
                   for now, chain, expiry in restarts)

        def spin():
            yield Run(3 * period)

        restarts.clear()
        kernel.spawn(spin, policy=7, allowed_cpus=frozenset({1}))
        kernel.run_until_idle()
        dispatched = restarts[0][0]
        assert [chain for _, chain, _ in restarts] == [timers[1]]
        assert [now for now, timer in ticks if timer is timers[1]][-3:] == [
            dispatched + period, dispatched + 2 * period,
            dispatched + 3 * period]


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
