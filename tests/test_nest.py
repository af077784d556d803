"""Tests for the Nest-inspired Enoki scheduler."""

from repro.core import EnokiSchedClass
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.nest import EnokiNest
from repro.simkernel import Kernel, SchedTracer, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


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
