"""Tests for CFS task-group fairness (cgroup cpu.shares semantics), over
the kernel's group hierarchy: ``kernel.groups.create(name, weight=...)``
and ``kernel.spawn(..., group=name)``."""

import pytest

from repro.schedulers.cfs import CfsSchedClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs
from repro.simkernel.errors import SimError
from repro.simkernel.program import Run
from repro.simkernel.task import TaskState


def make(nr_cpus=1):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    return kernel


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


PIN0 = frozenset({0})


class TestGroupFairness:
    def test_groups_split_cpu_evenly_despite_imbalance(self):
        """One group with 1 task vs one with 4 tasks, equal shares:
        the lone task gets ~half the CPU (the paper's 'between groups,
        then within each group')."""
        kernel = make()
        kernel.groups.create("solo", weight=1024)
        kernel.groups.create("crowd", weight=1024)
        solo = kernel.spawn(spinner(msecs(60)), group="solo",
                            allowed_cpus=PIN0)
        crowd = [kernel.spawn(spinner(msecs(60)), group="crowd",
                              allowed_cpus=PIN0)
                 for _ in range(4)]
        kernel.run_until(msecs(40))
        solo_time = solo.sum_exec_runtime_ns
        crowd_time = sum(t.sum_exec_runtime_ns for t in crowd)
        ratio = solo_time / max(1, crowd_time)
        assert 0.7 < ratio < 1.4

    def test_within_group_sharing_is_fair(self):
        kernel = make()
        kernel.groups.create("g", weight=1024)
        tasks = [kernel.spawn(spinner(msecs(30)), group="g",
                              allowed_cpus=PIN0)
                 for _ in range(3)]
        kernel.run_until(msecs(20))
        runtimes = [t.sum_exec_runtime_ns for t in tasks]
        assert max(runtimes) - min(runtimes) < msecs(8)

    def test_shares_weight_the_split(self):
        """A 3072-share group gets ~3x a 1024-share group."""
        kernel = make()
        kernel.groups.create("big", weight=3072)
        kernel.groups.create("small", weight=1024)
        big = kernel.spawn(spinner(msecs(80)), group="big",
                           allowed_cpus=PIN0)
        small = kernel.spawn(spinner(msecs(80)), group="small",
                             allowed_cpus=PIN0)
        kernel.run_until(msecs(40))
        ratio = big.sum_exec_runtime_ns / max(1,
                                              small.sum_exec_runtime_ns)
        assert 2.2 < ratio < 4.0

    def test_root_only_behaviour_unchanged(self):
        """With no extra groups the effective weight is the task weight;
        plain nice-based sharing is untouched."""
        kernel = make()
        heavy = kernel.spawn(spinner(msecs(40)), nice=0,
                             allowed_cpus=PIN0)
        light = kernel.spawn(spinner(msecs(40)), nice=10,
                             allowed_cpus=PIN0)
        kernel.run_until(msecs(25))
        assert heavy.sum_exec_runtime_ns > 5 * light.sum_exec_runtime_ns

    def test_group_validation(self):
        kernel = make()
        with pytest.raises(SimError, match="weight must be > 0"):
            kernel.groups.create("bad", weight=0)
        with pytest.raises(SimError, match="unknown task group"):
            kernel.spawn(spinner(1), group="missing")

    def test_group_weight_bookkeeping_settles(self):
        kernel = make(nr_cpus=2)
        group = kernel.groups.create("g", weight=2048)
        tasks = [kernel.spawn(spinner(msecs(5)), group="g")
                 for _ in range(4)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        # All runnable weight drained with the tasks.
        assert not any(group.task_weight)
