"""Tests for the semantic-bug watchdog (paper section 3.1's runtime
catches: deadlock/lost tasks/work conservation)."""

import pytest

from repro.core.watchdog import SchedulerWatchdog
from repro.exp import KernelBuilder
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel.clock import msecs
from repro.simkernel.errors import SchedulingError
from repro.simkernel.program import Run, Sleep

POLICY = 7


def make(scheduler="fifo", nr_cpus=2):
    session = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
               .with_enoki(scheduler, policy=POLICY).build())
    return session.kernel, session.shim.scheduler


class LossyFifo(EnokiFifo):
    """Drops every third wakeup on the floor — a real lost-task bug."""

    def __init__(self, nr_cpus, policy):
        super().__init__(nr_cpus, policy)
        self._count = 0

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        self._count += 1
        if self._count % 3 == 0:
            return   # BUG: token (and task) forgotten
        super().task_wakeup(pid, agent_data, deferrable, last_run_cpu,
                            wake_up_cpu, waker_cpu, sched)


class LazyFifo(EnokiFifo):
    """Refuses to answer picks on CPU 1 — violates work conservation."""

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        if cpu == 1:
            return None
        return super().pick_next_task(cpu, curr_pid, curr_runtime,
                                      runtimes)

    def balance(self, cpu):
        return None


class TestCleanScheduler:
    def test_no_findings_on_correct_scheduler(self):
        kernel, _ = make()
        watchdog = SchedulerWatchdog(kernel, POLICY)

        def prog():
            for _ in range(5):
                yield Run(msecs(2))
                yield Sleep(msecs(1))

        tasks = [kernel.spawn(prog, policy=POLICY) for _ in range(6)]
        kernel.run_until_idle()
        report = watchdog.stop()
        assert report.clean, report.findings[:3]


class TestLostTasks:
    def test_dropped_wakeup_detected(self):
        kernel, _ = make(LossyFifo)
        watchdog = SchedulerWatchdog(kernel, POLICY,
                                     lost_task_ns=msecs(20))

        def prog():
            for _ in range(4):
                yield Run(msecs(1))
                yield Sleep(msecs(1))

        for _ in range(6):
            kernel.spawn(prog, policy=POLICY)
        kernel.run_until(msecs(200))
        report = watchdog.stop()
        assert report.by_kind("lost_task")

    def test_strict_mode_raises(self):
        kernel, _ = make(LossyFifo)
        SchedulerWatchdog(kernel, POLICY, lost_task_ns=msecs(20),
                          strict=True)

        def prog():
            for _ in range(4):
                yield Run(msecs(1))
                yield Sleep(msecs(1))

        for _ in range(6):
            kernel.spawn(prog, policy=POLICY)
        with pytest.raises(SchedulingError):
            kernel.run_until(msecs(200))


class TestWorkConservation:
    def test_idle_cpu_with_queued_work_detected(self):
        kernel, _ = make(LazyFifo)
        watchdog = SchedulerWatchdog(kernel, POLICY)

        def prog():
            yield Run(msecs(50))

        # Pin work to the lazy CPU so its queue fills while it idles.
        for _ in range(3):
            kernel.spawn(prog, policy=POLICY,
                         allowed_cpus=frozenset({1}))
        kernel.run_until(msecs(100))
        report = watchdog.stop()
        violations = report.by_kind("work_conservation")
        assert violations
        assert violations[0].cpu == 1

    def test_in_flight_wakeups_not_flagged(self):
        """Deep-idle wakeup windows (60us) must not count as violations."""
        kernel, _ = make()
        watchdog = SchedulerWatchdog(kernel, POLICY, period_ns=20_000,
                                     idle_grace_ns=10_000)

        def prog():
            for _ in range(10):
                yield Run(msecs(1))
                yield Sleep(msecs(5))   # deep idle between bursts

        tasks = [kernel.spawn(prog, policy=POLICY) for _ in range(2)]
        kernel.run_until_idle()
        report = watchdog.stop()
        assert not report.by_kind("work_conservation"), \
            report.findings[:3]


class TestStarvation:
    def test_long_wait_behind_runner_detected(self):
        class FavouritistFifo(EnokiFifo):
            """Always re-picks the most recent arrival (LIFO) — older
            queued tasks starve behind a favourite."""

            def pick_next_task(self, cpu, curr_pid, curr_runtime,
                               runtimes):
                with self.lock:
                    queue = self.queues.cpus[cpu]
                    if queue:
                        return self.queues.remove(queue[-1][1])   # LIFO
                return None

        kernel, _ = make(FavouritistFifo, nr_cpus=1)
        watchdog = SchedulerWatchdog(kernel, POLICY,
                                     starvation_ns=msecs(10))

        def hog():
            yield Run(msecs(100))

        def victim():
            yield Run(msecs(1))

        kernel.spawn(hog, policy=POLICY)
        kernel.run_for(msecs(1))
        kernel.spawn(victim, policy=POLICY)
        kernel.run_until(msecs(60))
        report = watchdog.stop()
        assert report.by_kind("starvation")
