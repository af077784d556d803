"""Tests for the Nest-inspired Enoki scheduler."""

from repro.exp import KernelBuilder
from repro.simkernel import SchedTracer
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState


def nest_session(topology, sched="nest"):
    """``sched`` over CFS as policy 12."""
    session = (KernelBuilder(topology).with_native("cfs")
               .with_enoki(sched, policy=12).build())
    return session.kernel, session.shim.scheduler


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestNest:
    def test_few_tasks_stay_in_small_nest(self):
        kernel, nest = nest_session("smp:8")

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
        kernel, nest = nest_session("smp:8")
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
        def run(sched):
            kernel, _ = nest_session("small8", sched)

            def periodic():
                for _ in range(30):
                    yield Run(usecs(150))
                    yield Sleep(msecs(3))   # beyond the deep threshold

            tasks = [kernel.spawn(periodic, policy=12)
                     for _ in range(2)]
            kernel.run_until_idle()
            lat = []
            for task in tasks:
                lat.extend(task.stats.wakeup_latencies)
            lat.sort()
            return lat[len(lat) // 2]

        nest_p50 = run("nest")
        # Under WFQ-with-spread the sleeping pair lands on cold cores.
        wfq_p50 = run("wfq")
        assert nest_p50 <= wfq_p50
