"""Behavioural tests for the Enoki Shinjuku and locality-aware schedulers."""

import pytest

from repro.exp import KernelBuilder
from repro.schedulers.locality import EnokiLocality
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.task import TaskState


def make_kernel_with(scheduler, policy, **options):
    return (KernelBuilder("small8").with_native("cfs")
            .with_enoki(scheduler, policy=policy, **options).build().kernel)


class TestShinjuku:
    def test_microsecond_preemption_bounds_short_task_latency(self):
        """A 4us task arriving behind a 10ms task must not wait 10ms —
        the 10us preemption slice gives it the CPU quickly."""
        kernel = make_kernel_with("shinjuku", 8, worker_cpus=[0])
        pinned = frozenset({0})

        def long_task():
            yield Run(msecs(10))

        marks = {}

        def short_task():
            yield Run(usecs(4))
            from repro.simkernel.program import Call
            yield Call(lambda: marks.setdefault("done", kernel.now))

        kernel.spawn(long_task, policy=8, allowed_cpus=pinned)
        kernel.run_for(usecs(100))
        start = kernel.now
        kernel.spawn(short_task, policy=8, allowed_cpus=pinned)
        kernel.run_until_idle()
        # The short task finished within a few preemption slices, far
        # under the 10ms it would wait with no preemption.
        assert marks["done"] - start < usecs(100)

    def test_preempted_task_goes_to_queue_back(self):
        kernel = make_kernel_with("shinjuku", 8, worker_cpus=[0])
        pinned = frozenset({0})
        tasks = [
            kernel.spawn(lambda: iter([Run(usecs(100))]) and None or
                         _spin(usecs(100)), policy=8, allowed_cpus=pinned)
            for _ in range(0)
        ]

        def spinner():
            yield Run(usecs(200))

        t1 = kernel.spawn(spinner, policy=8, allowed_cpus=pinned)
        t2 = kernel.spawn(spinner, policy=8, allowed_cpus=pinned)
        kernel.run_until_idle()
        # Interleaving: both saw multiple preemptions (10us slices over
        # 200us each).
        assert t1.stats.preemptions >= 3
        assert t2.stats.preemptions >= 3

    def test_fcfs_approximation_across_cores(self):
        """An idle worker core pulls the globally-oldest waiting task."""
        kernel = make_kernel_with("shinjuku", 8, worker_cpus=[0, 1])
        order = []

        def job(tag, ns):
            def prog():
                yield Run(ns)
                from repro.simkernel.program import Call
                yield Call(lambda: order.append(tag))
            return prog

        # Saturate both cores, then queue two more: they must start in
        # arrival order even if their home queues differ.
        kernel.spawn(job("a", usecs(300)), policy=8)
        kernel.spawn(job("b", usecs(300)), policy=8)
        kernel.run_for(usecs(5))
        kernel.spawn(job("c", usecs(50)), policy=8)
        kernel.spawn(job("d", usecs(50)), policy=8)
        kernel.run_until_idle()
        assert order.index("c") < order.index("d")

    def test_falls_through_to_cfs_when_idle(self):
        """Section 5.4: 'the Enoki scheduler seamlessly cedes cycles to
        CFS' when it has no runnable tasks."""
        kernel = make_kernel_with("shinjuku", 8, worker_cpus=[0])

        def batch():
            yield Run(usecs(500))

        batch_task = kernel.spawn(batch, policy=0,
                                  allowed_cpus=frozenset({0}))

        def bursty():
            for _ in range(5):
                yield Run(usecs(10))
                yield Sleep(usecs(50))

        shinjuku_task = kernel.spawn(bursty, policy=8,
                                     allowed_cpus=frozenset({0}))
        kernel.run_until_idle()
        assert batch_task.state is TaskState.DEAD
        assert shinjuku_task.state is TaskState.DEAD
        # The batch task filled the burst gaps: total << serialized time.
        assert kernel.now < usecs(900)


def _spin(ns):
    yield Run(ns)


class TestLocality:
    def test_hinted_tasks_colocate(self):
        kernel = make_kernel_with("locality", 9)
        tasks = []

        def thread():
            yield Sleep(usecs(100))
            yield Run(usecs(50))

        def parent():
            from repro.simkernel.program import Spawn
            for i in range(3):
                pid = yield Spawn(thread, name=f"member-{i}")
                yield SendHint({"tid": pid, "locality": 42})
                tasks.append(pid)
            yield Run(usecs(10))

        kernel.spawn(parent, policy=9)
        kernel.run_until_idle()
        cpus = {kernel.tasks[pid].cpu for pid in tasks}
        assert len(cpus) == 1

    def test_groups_get_distinct_cores(self):
        kernel = make_kernel_with("locality", 9)
        group_cpus = {}

        def thread(group):
            def prog():
                yield Sleep(usecs(100))
                yield Run(usecs(50))
            return prog

        def parent():
            from repro.simkernel.program import Spawn
            for group in (1, 2, 3):
                for i in range(2):
                    pid = yield Spawn(thread(group))
                    yield SendHint({"tid": pid, "locality": group})
                    group_cpus.setdefault(group, []).append(pid)
            yield Run(usecs(10))

        kernel.spawn(parent, policy=9)
        kernel.run_until_idle()
        cores = {
            group: {kernel.tasks[p].cpu for p in pids}
            for group, pids in group_cpus.items()
        }
        assert all(len(cpus) == 1 for cpus in cores.values())
        distinct = {next(iter(cpus)) for cpus in cores.values()}
        assert len(distinct) == 3

    def test_overload_threshold_breaks_colocation(self):
        class Crowded(EnokiLocality):
            OVERLOAD_THRESHOLD = 2

        kernel = make_kernel_with(Crowded, 9)
        pids = []

        def thread():
            yield Run(msecs(2))

        def parent():
            from repro.simkernel.program import Spawn
            for i in range(6):
                pid = yield Spawn(thread)
                yield SendHint({"tid": pid, "locality": 7})
                pids.append(pid)
            yield Run(usecs(10))

        kernel.spawn(parent, policy=9)
        kernel.run_until_idle()
        cpus = {kernel.tasks[pid].cpu for pid in pids}
        # Co-location was advisory: the overloaded group spilled over.
        assert len(cpus) > 1

    def test_random_mode_ignores_hints(self):
        kernel = make_kernel_with("locality", 9, mode="random", seed=3)
        pids = []

        def thread():
            yield Sleep(usecs(100))
            yield Run(usecs(20))

        def parent():
            from repro.simkernel.program import Spawn
            for i in range(8):
                pid = yield Spawn(thread)
                yield SendHint({"tid": pid, "locality": 1})
                pids.append(pid)
            yield Run(usecs(10))

        kernel.spawn(parent, policy=9)
        kernel.run_until_idle()
        cpus = {kernel.tasks[pid].cpu for pid in pids}
        assert len(cpus) > 2

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            EnokiLocality(8, 9, mode="bogus")
