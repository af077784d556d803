"""Tests for the EEVDF extension scheduler."""

from repro.exp import KernelBuilder
from repro.schedulers.eevdf import EnokiEevdf
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState

POLICY = 13
PIN0 = frozenset({0})


def make(nr_cpus=2, sched="eevdf"):
    """-> (kernel, shim): ``sched`` over CFS on ``nr_cpus`` CPUs."""
    session = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
               .with_enoki(sched, policy=POLICY).build())
    return session.kernel, session.shim


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestFairness:
    def test_long_run_shares_stay_fair(self):
        kernel, _ = make(nr_cpus=1)
        tasks = [kernel.spawn(spinner(msecs(30)), policy=POLICY,
                              allowed_cpus=PIN0)
                 for _ in range(3)]
        kernel.run_until(msecs(20))
        runtimes = [t.sum_exec_runtime_ns for t in tasks]
        assert max(runtimes) - min(runtimes) < msecs(8)

    def test_weighting_respected(self):
        kernel, _ = make(nr_cpus=1)
        heavy = kernel.spawn(spinner(msecs(40)), policy=POLICY, nice=0,
                             allowed_cpus=PIN0)
        light = kernel.spawn(spinner(msecs(40)), policy=POLICY, nice=10,
                             allowed_cpus=PIN0)
        kernel.run_until(msecs(25))
        assert heavy.sum_exec_runtime_ns > 4 * light.sum_exec_runtime_ns

    def test_all_tasks_complete(self):
        kernel, _ = make(nr_cpus=2)
        tasks = [kernel.spawn(spinner(msecs(3)), policy=POLICY)
                 for _ in range(8)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)


class TestDeadlineOrdering:
    def test_pick_is_the_eligible_entry_with_the_earliest_deadline(self):
        """The queue head (least vruntime, WFQ's pick) loses to a heavier
        eligible task behind it: its slice scales to an earlier virtual
        deadline.  The last entry is past the weighted average, so not
        eligible."""
        sched = EnokiEevdf(1, POLICY)
        for pid, vruntime, weight in ((1, 1_000_000, 1024),
                                      (2, 1_050_000, 9548),
                                      (3, 1_200_000, 1024)):
            sched.vruntime[pid] = vruntime
            sched.weights[pid] = weight
            sched._assign_deadline(pid)
            sched.queues.push(0, vruntime, pid, None)
        assert sched._take(sched.queues, 0)[1] == 2
        assert [entry[1] for entry in sched.queues.cpus[0]] == [1, 3]

    def test_ineligible_task_waits(self):
        """A task far ahead of its fair share is not eligible while a
        behind task exists."""
        kernel, _ = make(nr_cpus=1)

        def sleeper_then_burst():
            yield Run(msecs(4))
            yield Sleep(usecs(100))
            yield Run(msecs(4))

        ahead = kernel.spawn(sleeper_then_burst, policy=POLICY,
                             allowed_cpus=PIN0)
        kernel.run_for(msecs(2))
        behind = kernel.spawn(spinner(msecs(4)), policy=POLICY,
                              allowed_cpus=PIN0)
        kernel.run_until_idle()
        # The late arrival was not starved by the head start: both done,
        # and the late task finished no more than one slice-ish after.
        assert behind.state is TaskState.DEAD
        assert ahead.state is TaskState.DEAD

    def test_upgrade_from_wfq_to_eevdf(self):
        """The velocity story end-to-end: hot-swap WFQ for EEVDF — same
        transfer type, policy changes in place."""
        from repro.core import UpgradeManager

        kernel, shim = make(nr_cpus=1, sched="wfq")
        tasks = [kernel.spawn(spinner(msecs(10)), policy=POLICY)
                 for _ in range(3)]
        kernel.run_for(msecs(5))
        manager = UpgradeManager(kernel, shim)
        report = manager.upgrade_now(EnokiEevdf(1, POLICY))
        assert report.transferred_tasks >= 1
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        assert isinstance(shim.lib.scheduler, EnokiEevdf)
