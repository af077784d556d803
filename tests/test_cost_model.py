"""The cost-model contract (``repro.simkernel.sched_class`` docstring).

The kernel core charges a class through two reads —
``pick_walk_cost_ns()`` per class visit of the pick walk and
``hooks_cost_ns(n)`` per wake / fork / deschedule — both sums of
``SimConfig`` constants resolved at ``attach_kernel``, which is sound
only because the config is frozen.
"""

import dataclasses

import pytest

from repro.core import EnokiSchedClass, Recorder
from repro.schedulers.fifo import EnokiFifo
from repro.schedulers.fifo_native import NativeFifoClass
from repro.schedulers.ghost import GhostSchedClass
from repro.simkernel import Kernel, SimConfig, Topology

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
    cls = EnokiSchedClass.register(kernel, EnokiFifo(2, 7), 7,
                                   recorder=recorder)
    return cls, CONFIG.enoki_call_ns


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
        assert cls.pick_walk_cost_ns() == expected
        assert cls.pick_walk_cost_ns() == expected

    def test_n_hooks_cost_n_queue_operations(self, kind):
        cls, fee = attached(kind)
        for n in (1, 2, 5):
            assert cls.hooks_cost_ns(n) == n * (CONFIG.sched_queue_ns + fee)


class TestShimSurcharges:
    WALK = (CONFIG.sched_balance_ns + CONFIG.sched_pick_ns
            + 2 * CONFIG.enoki_call_ns)
    HOOK = CONFIG.sched_queue_ns + CONFIG.enoki_call_ns

    def test_recorder_overhead_only_while_active(self):
        recorder = Recorder()
        shim, _ = attached("shim", recorder=recorder)
        assert shim.hooks_cost_ns(3) == 3 * (
            self.HOOK + CONFIG.record_overhead_ns)
        assert shim.pick_walk_cost_ns() == (
            self.WALK + 2 * CONFIG.record_overhead_ns)
        recorder.stop()
        assert shim.hooks_cost_ns(3) == 3 * self.HOOK
        assert shim.pick_walk_cost_ns() == self.WALK

    @pytest.mark.parametrize("first", ("hooks", "walk"))
    def test_blackout_is_paid_by_the_first_read_only(self, first):
        shim, _ = attached("shim")
        shim.note_upgrade_blackout(50_000)
        if first == "hooks":
            assert shim.hooks_cost_ns(2) == 2 * self.HOOK + 50_000
        else:
            assert shim.pick_walk_cost_ns() == self.WALK + 50_000
        assert shim.hooks_cost_ns(2) == 2 * self.HOOK
        assert shim.pick_walk_cost_ns() == self.WALK

    def test_timer_arms_are_collected_by_the_pick_walk_once(self):
        shim, _ = attached("shim")
        shim.arm_resched_timer(0, 10_000)
        shim.arm_resched_timer(1, 10_000)
        assert shim.hooks_cost_ns(1) == self.HOOK
        assert shim.pick_walk_cost_ns() == (
            self.WALK + 2 * CONFIG.timer_arm_cost_ns)
        assert shim.pick_walk_cost_ns() == self.WALK


def test_the_walk_reads_the_cost_once_per_visit_after_the_pick():
    log = []

    class Logging(NativeFifoClass):
        def balance(self, cpu):
            log.append(f"{self.name}.balance")
            return super().balance(cpu)

        def pick_next_task(self, cpu):
            log.append(f"{self.name}.pick")
            return super().pick_next_task(cpu)

        def pick_walk_cost_ns(self):
            log.append(f"{self.name}.cost")
            return super().pick_walk_cost_ns()

    kernel = Kernel(Topology.smp(1), CONFIG)
    for name, policy, priority in (("hi", 2, 20), ("lo", 1, 10)):
        cls = Logging(policy=policy)
        cls.name = name
        kernel.register_sched_class(cls, priority=priority)
    kernel.dispatcher.pick_and_switch(0, prev=None)
    assert log == ["hi.balance", "hi.pick", "hi.cost",
                   "lo.balance", "lo.pick", "lo.cost"]
