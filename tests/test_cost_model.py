"""The cost-model contract (``repro.simkernel.sched_class`` docstring).

The kernel core charges a class from two attributes — ``walk_cost_ns``
per class visit of the pick walk and ``hook_cost_ns`` per hook of a
wake / fork / deschedule — both sums of ``SimConfig`` constants resolved
at ``attach_kernel``, which is sound only because the config is frozen.
What is not constant is paid through ``settle_ns``, read only while the
class's ``owes`` flag is set.
"""

import dataclasses

import pytest

from repro.core import Recorder
from repro.exp import KernelBuilder
from repro.schedulers.fifo import EnokiFifo
from repro.schedulers.fifo_native import NativeFifoClass
from repro.schedulers.ghost import (
    GhostSchedClass,
    install_ghost_percpu_fifo,
)
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.program import Run, Sleep, Spawn

#: no two constants equal, none at its default: a sum built from the
#: wrong field (or from the defaults) cannot come out right
CONFIG = SimConfig().scaled(
    sched_balance_ns=101, sched_pick_ns=203, sched_queue_ns=307,
    enoki_call_ns=11, ghost_msg_enqueue_ns=13, record_overhead_ns=1_009,
    timer_arm_cost_ns=17)


def attached(kind, recorder=None):
    """-> (class of ``kind`` registered on a fresh kernel, its flat
    per-hook fee on top of the native constants)"""
    kernel = Kernel(Topology.smp(2), CONFIG)
    if kind == "native":
        cls = kernel.register_sched_class(NativeFifoClass(policy=1))
        return cls, 0
    if kind == "ghost":
        cls = kernel.register_sched_class(GhostSchedClass())
        return cls, CONFIG.ghost_msg_enqueue_ns
    session = (KernelBuilder("smp:2", CONFIG)
               .with_enoki("fifo", recorder=recorder).build())
    return session.shim, CONFIG.enoki_call_ns


class TestFrozenConfig:
    def test_a_write_after_construction_raises(self):
        config = SimConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.sched_pick_ns = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            Kernel(Topology.smp(1), config).config.enoki_call_ns += 1

    def test_scaled_copies(self):
        base = SimConfig()
        assert base.scaled(sched_pick_ns=7).sched_pick_ns == 7
        assert base.sched_pick_ns == SimConfig().sched_pick_ns


@pytest.mark.parametrize("kind", ("native", "shim", "ghost"))
class TestEveryClassKind:
    def test_pick_walk_is_balance_plus_pick(self, kind):
        cls, fee = attached(kind)
        expected = CONFIG.sched_balance_ns + CONFIG.sched_pick_ns + 2 * fee
        assert cls.walk_cost_ns == expected
        assert cls.owes is False

    def test_n_hooks_cost_n_queue_operations(self, kind):
        cls, fee = attached(kind)
        assert cls.hook_cost_ns == CONFIG.sched_queue_ns + fee


@pytest.mark.parametrize("kind", ("native", "ghost"))
def test_native_and_ghost_classes_never_owe(kind):
    """Only the shim settles: a class without ``settle_ns`` never sets
    ``owes``, through a whole run of its own tasks."""
    kernel = Kernel(Topology.smp(1), CONFIG)
    if kind == "native":
        cls = kernel.register_sched_class(NativeFifoClass(policy=1))
    else:
        cls, _ = install_ghost_percpu_fifo(kernel, managed_cpus=[0])

    def prog():
        for _ in range(20):
            yield Run(20_000)
            yield Sleep(10_000)

    for _ in range(3):
        kernel.spawn(prog, policy=cls.policy)
    kernel.run_until_idle()
    assert kernel.stats.total_wakeups > 0
    assert cls.owes is False and not hasattr(cls, "settle_ns")


class TestShimSurcharges:
    def test_recorder_overhead_only_while_active(self):
        recorder = Recorder()
        shim, _ = attached("shim", recorder=recorder)
        assert shim.owes
        assert shim.settle_ns(3) == 3 * CONFIG.record_overhead_ns
        assert shim.settle_ns(2, True) == 2 * CONFIG.record_overhead_ns
        # ``stop`` tells the shim nothing: it keeps settling, for nothing.
        recorder.stop()
        assert shim.owes
        assert shim.settle_ns(3) == 0
        assert shim.settle_ns(2, True) == 0

    @pytest.mark.parametrize("first", ("hooks", "walk"))
    def test_blackout_is_paid_by_the_first_read_only(self, first):
        shim, _ = attached("shim")
        shim.note_upgrade_blackout(50_000)
        assert shim.owes
        assert shim.settle_ns(2, first == "walk") == 50_000
        assert shim.owes is False
        assert shim.settle_ns(2) == 0
        assert shim.settle_ns(2, True) == 0

    def test_timer_arms_are_collected_by_the_pick_walk_once(self):
        shim, _ = attached("shim")
        shim.arm_resched_timer(0, 10_000)
        shim.arm_resched_timer(1, 10_000)
        assert shim.owes
        assert shim.settle_ns(1) == 0
        assert shim.owes
        assert shim.settle_ns(2, True) == 2 * CONFIG.timer_arm_cost_ns
        assert shim.owes is False


def test_the_walk_reads_the_cost_once_per_visit_after_the_pick():
    """Each visit charges the class's walk cost once and settles it
    *after* the pick: a timer the upper class arms from a pick that
    finds nothing is paid by the dispatch of the lower class's task, not
    by a later one."""

    class Arming(EnokiFifo):
        def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
            self.env.start_resched_timer(cpu, 10_000)
            return super().pick_next_task(cpu, curr_pid, curr_runtime,
                                          runtimes)

    session = (KernelBuilder("smp:1", CONFIG).with_enoki(Arming, priority=20)
               .with_native("fifo_native", policy=1, priority=10).build())
    kernel, shim, native = session.kernel, session.shim, session.sched_class(1)
    costs = []

    def trace(kind, t, cpu, keys, *values, pid=None, cost=0):
        if kind == "dispatch":
            costs.append(cost)

    kernel.set_trace(trace)
    kernel.spawn(lambda: (yield Run(1_000)), policy=1)
    kernel.run_until(500_000)
    assert costs[0] == (shim.walk_cost_ns + CONFIG.timer_arm_cost_ns
                        + native.walk_cost_ns + CONFIG.context_switch_ns)


@pytest.mark.parametrize("blackout_ns", (0, 50_000))
def test_a_fork_pays_a_pending_blackout_in_the_forking_task(blackout_ns):
    """The forking op is the one place a fork is charged, so a blackout
    noted while the parent runs delays the parent past its ``Spawn``
    instead of being settled by placement and lost."""
    session = KernelBuilder("smp:2").with_enoki("fifo").build()
    kernel, shim = session.kernel, session.shim

    def parent():
        yield Run(100_000)
        yield Spawn(lambda: (yield Run(1_000)), policy=7)

    task = kernel.spawn(parent, policy=7)
    kernel.events.at(50_000, shim.note_upgrade_blackout, blackout_ns)
    kernel.run_until_idle()
    assert task.stats.finished_ns == 109_856 + blackout_ns
