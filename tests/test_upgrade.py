"""Tests for live upgrade (paper section 3.2)."""

import pytest

from repro.core import UpgradeManager
from repro.core.errors import UpgradeError
from repro.exp import KernelBuilder, ScenarioSpec
from repro.exp.builder import enoki_scheduler_names
from repro.schedulers.eevdf import EnokiEevdf
from repro.schedulers.fifo import EnokiFifo
from repro.schedulers.nest import EnokiNest
from repro.simkernel import SimConfig
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState

POLICY = 7


def make(topology="smp:2", sched="fifo", config=None, recorder=None):
    session = (KernelBuilder(topology, config)
               .with_enoki(sched, policy=POLICY, recorder=recorder).build())
    return session.kernel, session.shim, session.shim.scheduler


def long_prog(phases=20, work=50_000, sleep=20_000):
    def prog():
        for _ in range(phases):
            yield Run(work)
            yield Sleep(sleep)
    return prog


@pytest.mark.parametrize("sched", enoki_scheduler_names())
def test_queued_tasks_survive_upgrade_of_every_nameable_policy(sched):
    """The zero-loss claim, per policy: tasks waiting in the outgoing
    module's queues at the swap are the incoming module's to run."""
    session = KernelBuilder.session_from_spec(ScenarioSpec(
        name=f"upgrade-{sched}", sched=sched, topology="smp:2", seed=3,
        upgrade_at_ns=300_000))
    tasks = [session.spawn(long_prog(phases=5, work=100_000))
             for _ in range(8)]
    session.run_until_idle()
    assert [t.state for t in tasks] == [TaskState.DEAD] * 8
    report, = session.upgrades.reports
    assert report.transferred_state and report.transferred_tasks


class TestUpgrade:
    def test_tasks_survive_upgrade(self):
        kernel, shim, _ = make()
        tasks = [kernel.spawn(long_prog(), policy=POLICY) for _ in range(6)]
        manager = UpgradeManager(kernel, shim)
        manager.schedule_upgrade(lambda: EnokiFifo(2, POLICY),
                                 at_ns=300_000)
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        assert len(manager.reports) == 1

    def test_state_transfers_to_new_version(self):
        kernel, shim, old_sched = make()
        kernel.spawn(long_prog(), policy=POLICY)
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)
        new_sched = EnokiFifo(2, POLICY)
        report = manager.upgrade_now(new_sched)
        assert report.transferred_state
        assert new_sched.generation == old_sched.generation + 1
        assert shim.lib.scheduler is new_sched
        kernel.run_until_idle()

    def test_pause_scales_with_core_count(self):
        """Section 5.7: 1.5us on the 8-core box, ~10us on the 80-core."""
        pauses = {}
        for topo_name, topo in (("small", "small8"), ("big", "big80")):
            kernel, shim, _ = make(topo)
            kernel.spawn(long_prog(), policy=POLICY)
            kernel.run_until(100_000)
            manager = UpgradeManager(kernel, shim)
            report = manager.upgrade_now(
                EnokiFifo(kernel.topology.nr_cpus, POLICY))
            pauses[topo_name] = report.pause_us
            kernel.run_until_idle()
        assert 0.5 < pauses["small"] < 3.0
        assert 7.0 < pauses["big"] < 13.0
        assert pauses["big"] > pauses["small"] * 4

    def test_transfer_type_mismatch_rejected(self):
        kernel, shim, _ = make()
        manager = UpgradeManager(kernel, shim)

        class OtherState:
            pass

        class IncompatibleFifo(EnokiFifo):
            TRANSFER_TYPE = OtherState

        with pytest.raises(UpgradeError):
            manager.upgrade_now(IncompatibleFifo(2, POLICY))
        # The old scheduler still runs.
        task = kernel.spawn(long_prog(phases=1), policy=POLICY)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD

    def test_wfq_hot_swaps_to_eevdf_but_not_to_nest(self):
        """EEVDF carries exactly WFQ's state, so the two replace each
        other; Nest's state is WFQ's plus its nest, so the swap is
        refused before anything moves, naming both sides."""
        kernel, shim, _ = make(sched="wfq")
        tasks = [kernel.spawn(long_prog(), policy=POLICY)
                 for _ in range(4)]
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)
        with pytest.raises(UpgradeError) as refused:
            manager.upgrade_now(EnokiNest(2, POLICY))
        for name in ("EnokiWfq", "WfqTransferState", "EnokiNest",
                     "NestTransferState"):
            assert name in str(refused.value), name
        report = manager.upgrade_now(EnokiEevdf(2, POLICY))
        assert report.transferred_state
        assert isinstance(shim.lib.scheduler, EnokiEevdf)
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_wrong_state_instance_rejected(self):
        kernel, shim, _ = make()

        class LyingFifo(EnokiFifo):
            def reregister_prepare(self):
                return {"not": "the declared type"}

        shim.lib.scheduler.__class__ = LyingFifo
        manager = UpgradeManager(kernel, shim)
        with pytest.raises(UpgradeError):
            manager.upgrade_now(EnokiFifo(2, POLICY))

    def test_tokens_stay_valid_across_upgrade(self):
        """Schedulables inside the transferred queues keep working: the
        token registry lives in Enoki-C, not in the module."""
        kernel, shim, _ = make("smp:1")
        tasks = [kernel.spawn(long_prog(phases=3), policy=POLICY)
                 for _ in range(4)]
        # Let tasks queue up, then upgrade while several are runnable.
        kernel.run_until(30_000)
        manager = UpgradeManager(kernel, shim)
        report = manager.upgrade_now(EnokiFifo(1, POLICY))
        assert report.transferred_tasks >= 1
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_blackout_delays_next_dispatch(self):
        kernel, shim, _ = make()
        kernel.spawn(long_prog(), policy=POLICY)
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)
        report = manager.upgrade_now(EnokiFifo(2, POLICY))
        assert shim.owes
        assert shim.settle_ns(1) >= report.pause_ns
        # The blackout is charged exactly once.
        assert shim.settle_ns(1) < report.pause_ns

    def test_repeated_upgrades(self):
        kernel, shim, _ = make()
        tasks = [kernel.spawn(long_prog(phases=40), policy=POLICY)
                 for _ in range(4)]
        manager = UpgradeManager(kernel, shim)
        for i in range(5):
            manager.schedule_upgrade(
                lambda: EnokiFifo(2, POLICY), at_ns=(i + 1) * 400_000
            )
        kernel.run_until_idle()
        assert len(manager.reports) == 5
        assert all(t.state is TaskState.DEAD for t in tasks)
        assert shim.lib.scheduler.generation == 6

    def test_upgrade_blocked_while_recording(self):
        """Paper section 3.4: no live upgrade during record/replay."""
        from repro.core import Recorder

        recorder = Recorder()
        kernel, shim, _ = make(recorder=recorder)
        manager = UpgradeManager(kernel, shim)
        with pytest.raises(UpgradeError):
            manager.upgrade_now(EnokiFifo(2, POLICY))
        # Stopping the recorder unblocks upgrades.
        recorder.stop()
        report = manager.upgrade_now(EnokiFifo(2, POLICY))
        assert report.pause_ns > 0

    def test_failed_init_rolls_back_to_old_module(self):
        """If the incoming module's reregister_init crashes, the upgrade
        aborts: old module re-initialised, dispatch pointer unswapped."""
        kernel, shim, old_sched = make()
        tasks = [kernel.spawn(long_prog(), policy=POLICY) for _ in range(4)]
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)

        class ExplodingFifo(EnokiFifo):
            def reregister_init(self, state):
                raise RuntimeError("init bug in the new version")

        report = manager.upgrade_now(ExplodingFifo(2, POLICY))
        assert report.aborted
        assert "RuntimeError" in report.error
        assert not report.transferred_state
        assert shim.lib.scheduler is old_sched
        # The write lock was released and the old module still schedules.
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_aborted_upgrade_still_reported_and_charged(self):
        kernel, shim, _ = make()
        kernel.spawn(long_prog(), policy=POLICY)
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)

        class ExplodingFifo(EnokiFifo):
            def reregister_init(self, state):
                raise RuntimeError("boom")

        report = manager.upgrade_now(ExplodingFifo(2, POLICY))
        assert manager.reports == [report]
        assert report.pause_ns > 0
        # The quiesce window was real: the blackout is still charged.
        assert shim.settle_ns(2, True) >= report.pause_ns
        kernel.run_until_idle()

    def test_upgrade_after_aborted_upgrade_succeeds(self):
        kernel, shim, old_sched = make()
        kernel.spawn(long_prog(), policy=POLICY)
        kernel.run_until(100_000)
        manager = UpgradeManager(kernel, shim)

        class ExplodingFifo(EnokiFifo):
            def reregister_init(self, state):
                raise RuntimeError("boom")

        assert manager.upgrade_now(ExplodingFifo(2, POLICY)).aborted
        good = EnokiFifo(2, POLICY)
        report = manager.upgrade_now(good)
        assert not report.aborted
        assert shim.lib.scheduler is good
        kernel.run_until_idle()

    def test_cross_socket_wakeups_cost_more(self):
        """NUMA model: a wake across sockets pays the interconnect hop."""
        config = SimConfig().scaled(wakeup_jitter_ns=0)
        results = {}
        for label, waker, wakee in (("local", 1, 0),
                                    ("cross", 4, 0)):
            kernel, _, _ = make("smp:8:2", config=config)
            from repro.simkernel.futex import Futex
            from repro.simkernel.program import (FutexWait, FutexWake,
                                                 Run, Sleep)
            futex = Futex()

            def waiter():
                yield FutexWait(futex)
                yield Run(1_000)

            def waker_prog():
                yield Sleep(50_000)
                yield FutexWake(futex, 1)

            wt = kernel.spawn(waiter, policy=POLICY,
                              allowed_cpus=frozenset({wakee}))
            kernel.spawn(waker_prog, policy=POLICY,
                         allowed_cpus=frozenset({waker}))
            kernel.run_until_idle()
            results[label] = wt.stats.wakeup_latencies[-1]
        assert results["cross"] > results["local"]
