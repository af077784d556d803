"""Tests for the Arachne stack: runtime, Enoki core arbiter, native
arbiter (paper section 4.2.4)."""

from repro.arachne_rt import ArachneRuntime, UCond, UNotify, URun, UWait
from repro.arachne_rt.clients import EnokiArbiterClient
from repro.arachne_rt.native_arbiter import NativeCoreArbiter
from repro.arachne_rt.user_thread import UserThread, UtState
from repro.exp import KernelBuilder
from repro.schedulers.cfs import CfsSchedClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs


def cfs_kernel():
    kernel = Kernel(Topology.small8(), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    return kernel


class TestUserThreads:
    def test_run_and_finish(self):
        kernel = cfs_kernel()
        runtime = ArachneRuntime(kernel, cores=[0], policy=0).start(1)
        done = []

        def prog():
            yield URun(usecs(10))

        runtime.submit(prog, on_done=lambda t: done.append(kernel.now))
        kernel.run_until(msecs(5))
        assert done and done[0] < msecs(1)

    def test_wait_notify_roundtrip(self):
        kernel = cfs_kernel()
        runtime = ArachneRuntime(kernel, cores=[0], policy=0).start(1)
        cond = UCond()
        log = []

        def waiter():
            yield UWait(cond)
            log.append("woken")

        def notifier():
            yield URun(usecs(5))
            count = yield UNotify(cond, 1)
            log.append(("notified", count))

        runtime.submit(waiter)
        runtime.submit(notifier)
        kernel.run_until(msecs(5))
        assert "woken" in log
        assert ("notified", 1) in log

    def test_user_level_latency_is_submicrosecond(self):
        """Tables 3/4: Arachne's user-level wakeups cost ~0.1-1us, not the
        several microseconds of a kernel scheduler."""
        kernel = cfs_kernel()
        runtime = ArachneRuntime(kernel, cores=[0], policy=0).start(1)
        ping, pong = UCond(), UCond()
        rounds = 500
        marks = {}

        def a():
            marks["start"] = kernel.now
            for _ in range(rounds):
                yield UNotify(ping, 1)
                yield UWait(pong)
            marks["end"] = kernel.now

        def b():
            for _ in range(rounds):
                yield UWait(ping)
                yield UNotify(pong, 1)

        runtime.submit(b)
        runtime.submit(a)
        kernel.run_until(int(1e9))
        per_message_us = (marks["end"] - marks["start"]) / (2 * rounds) / 1e3
        assert per_message_us < 0.5

    def test_exit_value(self):
        def empty():
            return
            yield  # pragma: no cover - makes this a generator fn

        thread = UserThread(empty)
        assert thread.next_op() is None
        assert thread.state is UtState.DONE


class TestRuntimeScaling:
    def test_parks_idle_dispatchers(self):
        kernel = cfs_kernel()
        runtime = ArachneRuntime(kernel, cores=[0, 1], policy=0,
                                 min_cores=1).start(2)

        def prog():
            yield URun(usecs(50))

        runtime.submit(prog)
        kernel.run_until(msecs(10))
        # With no work, exactly min_cores dispatcher stays active.
        assert len(runtime.active_slots()) == 1
        assert runtime.stats_parks >= 1

    def test_scale_up_on_load(self):
        kernel = cfs_kernel()
        runtime = ArachneRuntime(kernel, cores=[0, 1, 2, 3], policy=0,
                                 min_cores=1).start(1)

        def burst():
            yield URun(msecs(3))

        for _ in range(8):
            runtime.submit(burst)
        kernel.run_until(msecs(2))
        assert len(runtime.active_slots()) >= 3


def arbiter_session():
    """CFS under the Enoki core arbiter (policy 11) managing cores 1-7."""
    session = (KernelBuilder("small8").with_native("cfs")
               .with_enoki("arachne", policy=11, priority=20,
                           managed_cores=range(1, 8)).build())
    return session.kernel, session.shim, session.shim.scheduler


class TestEnokiCoreArbiter:
    def make(self):
        kernel, shim, arbiter = arbiter_session()
        client = EnokiArbiterClient(shim)
        runtime = ArachneRuntime(kernel, cores=list(range(1, 5)), policy=11,
                                 arbiter=client, name="rt", min_cores=1,
                                 max_cores=4)
        runtime.start(initial_cores=1)
        return kernel, arbiter, runtime

    def test_registration_via_hints(self):
        kernel, arbiter, runtime = self.make()
        kernel.run_for(msecs(2))
        assert "rt" in arbiter.processes
        proc = arbiter.processes["rt"]
        assert len(proc.kthreads) == 4
        assert proc.rev_queue >= 0

    def test_grant_unparks_kthread_through_scheduler(self):
        kernel, arbiter, runtime = self.make()
        kernel.run_for(msecs(2))
        assert len(runtime.active_slots()) == 1

        def work():
            yield URun(msecs(4))

        for _ in range(6):
            runtime.submit(work)
        kernel.run_for(msecs(3))
        assert len(runtime.active_slots()) >= 2

    def test_work_completes_under_arbiter(self):
        kernel, arbiter, runtime = self.make()
        kernel.run_for(msecs(2))
        done = []

        def work():
            yield URun(usecs(200))

        for i in range(20):
            runtime.submit(work, on_done=lambda t: done.append(1))
        kernel.run_for(msecs(20))
        assert len(done) == 20

    def test_reclaim_between_processes(self):
        """Two runtimes: when the second asks for cores held idle by the
        first, the arbiter reclaims through the reverse queue."""
        kernel, shim, arbiter = arbiter_session()
        rt_a = ArachneRuntime(kernel, cores=[1, 2, 3], policy=11,
                              arbiter=EnokiArbiterClient(shim), name="a",
                              min_cores=1, max_cores=3).start(3)
        kernel.run_for(msecs(2))
        rt_b = ArachneRuntime(kernel, cores=[4, 5], policy=11,
                              arbiter=EnokiArbiterClient(shim), name="b",
                              min_cores=1, max_cores=2).start(1)
        kernel.run_for(msecs(2))
        assert "a" in arbiter.processes and "b" in arbiter.processes
        # Idle dispatchers of A park on their own, releasing cores.
        kernel.run_for(msecs(10))
        assert len(rt_a.active_slots()) == 1


class TestNativeArbiter:
    def test_grant_roundtrip_over_socket(self):
        kernel = cfs_kernel()
        arbiter = NativeCoreArbiter(kernel, managed_cores=range(1, 8))
        client = arbiter.client()
        runtime = ArachneRuntime(kernel, cores=[1, 2, 3], policy=0,
                                 arbiter=client, name="rt",
                                 min_cores=1, max_cores=3)
        runtime.start(initial_cores=1)
        kernel.run_for(msecs(2))

        def work():
            yield URun(msecs(3))

        for _ in range(6):
            runtime.submit(work)
        kernel.run_for(msecs(4))
        assert len(runtime.active_slots()) >= 2

    def test_work_completes(self):
        kernel = cfs_kernel()
        arbiter = NativeCoreArbiter(kernel, managed_cores=range(1, 8))
        runtime = ArachneRuntime(kernel, cores=[1, 2], policy=0,
                                 arbiter=arbiter.client(), name="rt",
                                 min_cores=1, max_cores=2)
        runtime.start(initial_cores=1)
        done = []

        def work():
            yield URun(usecs(100))

        for _ in range(10):
            runtime.submit(work, on_done=lambda t: done.append(1))
        kernel.run_for(msecs(10))
        assert len(done) == 10
