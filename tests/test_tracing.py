"""Tests for the scheduling tracer."""

import re

import pytest

from repro.exp import KernelBuilder, ScenarioSpec
from repro.obs import Observer
from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel import Kernel, SimConfig, SimError, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.tracing import SchedTracer, TraceEvent


def make_kernel(nr_cpus=2):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(NativeFifoClass(policy=1), priority=10)
    return kernel


class TestTracer:
    def test_records_dispatches_and_idles(self):
        kernel = make_kernel()
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(100))
            yield Sleep(usecs(50))
            yield Run(usecs(100))

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        summary = tracer.summary()
        assert summary.get("dispatch", 0) >= 2
        assert summary.get("idle", 0) >= 1
        assert tracer.events_for_pid(task.pid)

    def test_timeline_reconstruction(self):
        kernel = make_kernel(nr_cpus=1)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(200))

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        spans = tracer.timeline(cpu=0)
        busy = [s for s in spans if s[2] == task.pid]
        assert busy
        total = sum(end - start for start, end, _pid in busy)
        assert total >= usecs(150)

    def test_busy_ns_matches_kernel_accounting(self):
        kernel = make_kernel(nr_cpus=1)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(500))

        kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        traced = tracer.busy_ns(0)
        accounted = kernel.stats.cpus[0].busy_ns
        # The tracer sees dispatch boundaries; accounting sees runtimes.
        assert abs(traced - accounted) < usecs(50)

    def test_capacity_bound_and_drop_count(self):
        tracer = SchedTracer(capacity=10)
        for i in range(25):
            tracer._hook("dispatch", cpu=0, pid=1, t=i)
        assert len(tracer.events) == 10
        assert tracer.dropped == 15

    def test_capacity_zero_counts_and_retains_nothing(self):
        tracer = SchedTracer(capacity=0)
        for i in range(5):
            tracer._hook("dispatch", cpu=0, pid=1, t=i)
        assert len(tracer.events) == 0
        assert tracer.retained == tracer.dropped == 5

    @pytest.mark.parametrize("capacity", [True, False, -1, 2.5, "8", None])
    def test_bad_capacity_raises_sim_error(self, capacity):
        with pytest.raises(SimError, match=re.escape(repr(capacity))):
            SchedTracer(capacity=capacity)

    def test_string_kinds_raises_sim_error(self):
        """A bare string would be a set of its characters and silently
        filter out every event."""
        with pytest.raises(SimError, match="'dispatch'"):
            SchedTracer(kinds="dispatch")
        kernel = make_kernel()
        with pytest.raises(SimError, match="'dispatch'"):
            Observer.attach(kernel, kinds="dispatch")
        assert kernel.trace is None
        session = KernelBuilder.session_from_spec(
            ScenarioSpec(sched="wfq", topology="smp:2"))
        with pytest.raises(SimError, match="'idle'"):
            session.attach_observer(kinds="idle")

    def test_detach_restores_hook(self):
        kernel = make_kernel()
        tracer = SchedTracer.attach(kernel)
        tracer.detach()
        assert kernel.trace is None

    def test_switch_count_filterable(self):
        kernel = make_kernel(nr_cpus=2)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(50))

        kernel.spawn(prog, policy=1, origin_cpu=0)
        kernel.spawn(prog, policy=1, origin_cpu=1)
        kernel.run_until_idle()
        assert tracer.switch_count() == (tracer.switch_count(0)
                                         + tracer.switch_count(1))

    def test_event_str(self):
        event = TraceEvent(t_ns=1_500_000, kind="dispatch", cpu=3, pid=9)
        text = str(event)
        assert "cpu3" in text and "pid=9" in text
