"""Tests for the native RT class and the Nest-inspired Enoki scheduler."""

import pytest

from repro.core import EnokiSchedClass
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.nest import EnokiNest
from repro.schedulers.rt import RtSchedClass
from repro.simkernel import Kernel, SchedTracer, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState


def rt_kernel(nr_cpus=4):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    rt = RtSchedClass(policy=2)
    kernel.register_sched_class(rt, priority=50)
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
    return kernel, rt


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestRtClass:
    def test_higher_priority_runs_first(self):
        kernel, rt = rt_kernel(nr_cpus=1)
        order = []

        def tagged(tag, ns):
            def prog():
                yield Run(ns)
                from repro.simkernel.program import Call
                yield Call(lambda: order.append(tag))
            return prog

        low = rt.spawn_rt(tagged("low", usecs(100)), 10)
        high = rt.spawn_rt(tagged("high", usecs(100)), 50)
        kernel.run_until_idle()
        assert order == ["high", "low"]

    def test_rt_preempts_lower_rt_on_wakeup(self):
        kernel, rt = rt_kernel(nr_cpus=1)
        low = rt.spawn_rt(spinner(msecs(5)), 10)
        kernel.run_for(usecs(100))

        def urgent():
            yield Run(usecs(50))

        high = rt.spawn_rt(urgent, 90)
        kernel.run_until_idle()
        assert high.stats.finished_ns < low.stats.finished_ns
        assert low.stats.preemptions >= 1

    def test_fifo_within_priority(self):
        kernel, rt = rt_kernel(nr_cpus=1)
        order = []

        def tagged(tag):
            def prog():
                from repro.simkernel.program import Call
                yield Call(lambda: order.append(tag))
                yield Run(usecs(50))
            return prog

        for tag in ("a", "b", "c"):
            rt.spawn_rt(tagged(tag), 20, allowed_cpus=frozenset({0}))
        kernel.run_until_idle()
        assert order == ["a", "b", "c"]

    def test_rt_class_starves_cfs_until_idle(self):
        kernel, rt = rt_kernel(nr_cpus=1)
        rt_task = rt.spawn_rt(spinner(msecs(2)), 10)
        cfs_task = kernel.spawn(spinner(msecs(1)), policy=0)
        kernel.run_until_idle()
        assert rt_task.stats.finished_ns < cfs_task.stats.finished_ns

    def test_round_robin_rotates(self):
        kernel, rt = rt_kernel(nr_cpus=1)
        tasks = []
        for _ in range(2):
            tasks.append(rt.spawn_rt(spinner(msecs(250)), 30,
                                     round_robin=True,
                                     allowed_cpus=frozenset({0})))
        kernel.run_until_idle()
        # 100ms RR slices over 2x250ms: both got preempted.
        assert all(t.stats.preemptions >= 1 for t in tasks)
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_idle_pull_balances_rt_work(self):
        kernel, rt = rt_kernel(nr_cpus=2)
        tasks = []
        for _ in range(3):
            tasks.append(rt.spawn_rt(spinner(msecs(10)), 10,
                                     origin_cpu=0))
        kernel.run_until_idle()
        assert kernel.now < msecs(25)

    def test_priority_validation(self):
        kernel, rt = rt_kernel()
        with pytest.raises(ValueError):
            rt.spawn_rt(spinner(1000), 0)
        with pytest.raises(ValueError):
            rt.spawn_rt(spinner(1000), 100)
        rt.spawn_rt(spinner(1000), 50)
        kernel.run_until_idle()


class TestNest:
    def make(self, nr_cpus=8):
        kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        sched = EnokiNest(nr_cpus, policy=12)
        EnokiSchedClass.register(kernel, sched, 12, priority=10)
        return kernel, sched

    def test_few_tasks_stay_in_small_nest(self):
        kernel, nest = self.make()

        def bursty():
            for _ in range(20):
                yield Run(usecs(200))
                yield Sleep(usecs(300))

        tracer = SchedTracer.attach(kernel, kinds={"dispatch"})
        pids = {kernel.spawn(bursty, policy=12).pid for _ in range(2)}
        kernel.run_until_idle()
        used_cpus = {event.cpu for event in tracer.events
                     if event.pid in pids}
        # Two tasks stayed on at most a few warm cores, not all eight.
        assert len(used_cpus) <= 3

    def test_nest_grows_under_load(self):
        kernel, nest = self.make()
        tasks = [kernel.spawn(spinner(msecs(5)), policy=12)
                 for _ in range(6)]
        kernel.run_until_idle()
        assert nest.expansions >= 5
        assert all(t.state is TaskState.DEAD for t in tasks)
        # Parallel completion: the nest really did grow.
        assert kernel.now < msecs(11)

    def test_warm_reuse_avoids_deep_idle_wakeups(self):
        """The Nest energy/latency claim, measured: warm-core placement
        pays far fewer deep idle exits than spreading placement."""
        from repro.schedulers.wfq import EnokiWfq

        def run(sched_factory, policy):
            kernel = Kernel(Topology.small8(), SimConfig())
            kernel.register_sched_class(CfsSchedClass(policy=0),
                                        priority=5)
            EnokiSchedClass.register(kernel, sched_factory(), policy,
                                     priority=10)

            def periodic():
                for _ in range(30):
                    yield Run(usecs(150))
                    yield Sleep(msecs(3))   # beyond the deep threshold

            tasks = [kernel.spawn(periodic, policy=policy)
                     for _ in range(2)]
            kernel.run_until_idle()
            lat = []
            for task in tasks:
                lat.extend(task.stats.wakeup_latencies)
            lat.sort()
            return lat[len(lat) // 2]

        nest_p50 = run(lambda: EnokiNest(8, 12), 12)
        # Under WFQ-with-spread the sleeping pair lands on cold cores.
        wfq_p50 = run(lambda: EnokiWfq(8, 12), 12)
        assert nest_p50 <= wfq_p50
