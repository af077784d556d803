"""Behavioural tests for the native CFS model."""

import pytest

from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.dispatch import DispatchEngine
from repro.simkernel.futex import Futex
from repro.simkernel.program import (
    FutexWait,
    FutexWake,
    Run,
    SetAffinity,
    Sleep,
)
from repro.simkernel.groups import GroupManager
from repro.simkernel.interp import OpInterpreter
from repro.simkernel.task import TaskState
from repro.workloads.multitenant import run_multitenant
from tests.call_census import CallCensus
from tests.test_golden_digests import (
    GOLDEN,
    flat_cfs_digest,
    group_forest_digest,
)
from tests.test_groups_memo import walk


def make_kernel(nr_cpus=8):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    return kernel


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestFairness:
    def test_equal_tasks_share_one_cpu_equally(self):
        kernel = make_kernel(nr_cpus=1)
        tasks = [kernel.spawn(spinner(msecs(40))) for _ in range(4)]
        kernel.run_until_idle()
        finish_times = [t.stats.finished_ns for t in tasks]
        # Fair sharing: all four finish within one period of each other at
        # the very end (not serially: first finish >> 40 ms).
        assert min(finish_times) > msecs(120)
        assert max(finish_times) - min(finish_times) < msecs(30)

    def test_nice_weighting_shares_cpu_proportionally(self):
        kernel = make_kernel(nr_cpus=1)
        heavy = kernel.spawn(spinner(msecs(50)), nice=0)
        light = kernel.spawn(spinner(msecs(50)), nice=10)
        kernel.run_until(msecs(40))
        # nice 10 -> weight ratio 1024/110 ~ 9.3: the nice-0 task should
        # have consumed the lion's share so far.
        assert heavy.sum_exec_runtime_ns > 5 * light.sum_exec_runtime_ns

    def test_sleeper_does_not_bank_unbounded_credit(self):
        kernel = make_kernel(nr_cpus=1)
        cpu_hog = kernel.spawn(spinner(msecs(100)), name="hog")

        def sleeper_prog():
            yield Sleep(msecs(50))
            yield Run(msecs(10))

        sleeper = kernel.spawn(sleeper_prog, name="sleeper")
        kernel.run_until_idle()
        # The sleeper wakes with bounded credit: it finishes its 10ms of
        # work well before the hog's remaining 50ms would allow if it had
        # unbounded credit, but the hog is not starved for the full 10ms
        # (it keeps making progress between sleeper slices).
        assert sleeper.state is TaskState.DEAD
        assert cpu_hog.state is TaskState.DEAD


class TestPlacement:
    def test_forked_tasks_spread_across_cpus(self):
        kernel = make_kernel(nr_cpus=8)
        tasks = [kernel.spawn(spinner(msecs(5))) for _ in range(8)]
        kernel.run_for(msecs(1))
        cpus = {t.cpu for t in tasks}
        assert len(cpus) == 8

    def test_oversubscription_balances_queue_lengths(self):
        kernel = make_kernel(nr_cpus=2)
        tasks = [kernel.spawn(spinner(msecs(10))) for _ in range(6)]
        kernel.run_for(msecs(2))
        per_cpu = [kernel.rqs[c].nr_running for c in (0, 1)]
        assert abs(per_cpu[0] - per_cpu[1]) <= 1

    def test_sync_wakeup_prefers_waker_cpu(self):
        kernel = make_kernel(nr_cpus=4)
        futex = Futex()

        def waiter():
            yield FutexWait(futex)
            yield Run(1_000)

        def waker():
            yield Run(5_000)
            yield FutexWake(futex, 1, sync=True)
            yield Sleep(100_000)

        wt = kernel.spawn(waiter, origin_cpu=0)
        kernel.run_for(2_000)
        wk = kernel.spawn(waker, origin_cpu=1)
        kernel.run_until_idle()
        # A sync wakeup from an otherwise-idle waker pulls the wakee in.
        assert wt.cpu == wk.cpu

    def test_newidle_balance_pulls_waiting_work(self):
        kernel = make_kernel(nr_cpus=2)
        # Three long tasks on two CPUs: when any CPU idles, it must pull
        # the waiting third task rather than stay idle.
        tasks = [kernel.spawn(spinner(msecs(30))) for _ in range(3)]
        kernel.run_until_idle()
        # Work conserving: total wall time ~ 45ms, not 60ms-serial.
        assert kernel.now < msecs(55)
        assert sum(t.stats.migrations for t in tasks) >= 1


class TestPreemption:
    def test_timeslice_rotation(self):
        kernel = make_kernel(nr_cpus=1)
        t1 = kernel.spawn(spinner(msecs(20)))
        t2 = kernel.spawn(spinner(msecs(20)))
        kernel.run_until_idle()
        assert t1.stats.preemptions + t2.stats.preemptions >= 3

    def test_min_granularity_limits_thrashing(self):
        kernel = make_kernel(nr_cpus=1)
        tasks = [kernel.spawn(spinner(msecs(10))) for _ in range(2)]
        kernel.run_until_idle()
        total_preemptions = sum(t.stats.preemptions for t in tasks)
        # 20ms of work with a >=750us floor on slices bounds switches.
        assert total_preemptions < 30

    def test_woken_task_preempts_at_tick(self):
        kernel = make_kernel(nr_cpus=1)
        hog = kernel.spawn(spinner(msecs(30)), name="hog")

        def sleepy():
            yield Sleep(msecs(5))
            yield Run(msecs(1))

        sleeper = kernel.spawn(sleepy, name="sleeper")
        kernel.run_until_idle()
        # The sleeper got the CPU shortly after waking (within a few
        # ticks), long before the hog finished.
        assert sleeper.stats.finished_ns < msecs(15)
        assert hog.stats.finished_ns > msecs(25)


def resum_slice(cfs, task, cpu):
    """The reference time slice: the queue re-summed, every hierarchical
    weight walked afresh, nothing remembered."""
    kernel = cfs.kernel
    cfg = kernel.config
    nr_running = len(kernel.rqs[cpu].queued) + 1
    period = cfg.sched_latency_ns
    if nr_running > cfg.sched_latency_ns // cfg.sched_min_granularity_ns:
        period = nr_running * cfg.sched_min_granularity_ns
    weights = [walk(entity, entity.cpu) for entity in [task] + [
        kernel.tasks[pid] for _key, pid, _ in cfs.queues.cpus[cpu]]]
    share = period * weights[0] // max(1, sum(weights))
    return max(cfg.sched_min_granularity_ns, share)


#: the CFS hooks that change which tasks CFS holds on a CPU, or a weight
HOOKS = ("task_new", "task_wakeup", "task_blocked", "task_yield",
         "task_preempt", "task_dead", "task_prio_changed", "migrate_task_rq",
         "pick_next_task")


def cfs_members(cfs, cpu):
    """The CFS tasks on ``cpu``, queued or current, with their weights."""
    rq = cfs._rqs[cpu]
    pids = [pid for _key, pid, _ in rq.queued]
    if rq.curr_pid is not None:
        pids.append(rq.curr_pid)
    return {pid: cfs.kernel.tasks[pid].weight for pid in pids}


@pytest.fixture
def slice_oracle(monkeypatch):
    """While a scenario runs, check after every CFS hook that a CPU whose
    generation did not move holds the same CFS tasks at the same weights,
    and at every tick that each queued task's ``cpu`` is its queue's and
    the memoised slice equals the re-sum.  Returns the tick counts."""
    seen = {"hits": 0, "misses": 0, "others_queued": 0}
    last = {}       # cpu -> (generation, CFS tasks and weights)

    def wrap(name):
        hook = getattr(CfsSchedClass, name)

        def checked(cfs, *args):
            result = hook(cfs, *args)
            for cpu, rq in enumerate(cfs._rqs):
                members = cfs_members(cfs, cpu)
                if cpu in last and last[cpu][0] == rq.gen:
                    assert last[cpu][1] == members, (name, args, cpu)
                last[cpu] = rq.gen, members
            return result
        monkeypatch.setattr(CfsSchedClass, name, checked)

    for name in HOOKS:
        wrap(name)
    memoised = CfsSchedClass._slice_for

    def checked_slice(cfs, task, cpu):
        rq = cfs._rqs[cpu]
        tasks = cfs.kernel.tasks
        # The re-sum reads a queued task's weight on that task's ``cpu``;
        # the key names only this CPU's runnable index.
        assert all(tasks[pid].cpu == cpu for _key, pid, _ in rq.queued)
        krq = cfs.kernel.rqs[cpu]
        assert krq.nr_queued == len(krq.queued)
        key = rq.slice_key
        got = memoised(cfs, task, cpu)
        assert got == resum_slice(cfs, task, cpu)
        seen["hits" if rq.slice_key is key else "misses"] += 1
        seen["others_queued"] += (
            len(cfs.kernel.rqs[cpu].queued) > len(rq.queued))
        return got

    monkeypatch.setattr(CfsSchedClass, "_slice_for", checked_slice)
    return seen


class PullingFifo(NativeFifoClass):
    """Native FIFO with an idle pull, as Linux's RT class has: a CPU with
    nothing to run takes the head of another CPU's queue.  A task waiting
    below CFS never runs, so only a pull can move it off its CPU."""

    def balance(self, cpu):
        if self.kernel.rqs[cpu].nr_running:
            return None
        for other, queued in self.queues.cpus.items():
            if (other != cpu and queued
                    and self.kernel.tasks[queued[0][1]].can_run_on(cpu)):
                return queued[0][1]
        return None


class TestSliceMemo:
    """``_slice_for`` answers from a per-queue memo keyed on the CPU's
    runnable-index generation, CFS's generation for the CPU, the number
    of tasks queued there and the ticking task."""

    @pytest.mark.parametrize("name, scenario", [
        ("flat-cfs", flat_cfs_digest), ("group-forest", group_forest_digest)])
    def test_memoised_slice_equals_the_resum_at_every_tick(
            self, slice_oracle, name, scenario):
        assert scenario() == GOLDEN[name]
        assert slice_oracle["hits"] > 10 and slice_oracle["misses"] > 10
        if name == "flat-cfs":
            assert slice_oracle["others_queued"] > 0

    def test_lower_classes_on_the_cpu_move_the_slice(self, slice_oracle):
        """CFS above two native FIFO classes on three CPUs: their tasks
        wait on CPU 0 behind nine pinned CFS tasks, and CFS hears of
        none of them.  One arrives, so the CPU holds more tasks and the
        period stretches.  Later one in the heavy CFS task's group is
        pulled away while another arrives: the CPU holds as many tasks as
        before, but the heavy task's hierarchical weight has changed."""
        kernel = Kernel(Topology.smp(3), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
        kernel.register_sched_class(PullingFifo(policy=2), priority=5)
        kernel.register_sched_class(NativeFifoClass(policy=1), priority=3)
        kernel.groups.create("g")
        pin0 = frozenset({0})

        def arrive_on_cpu0(after_ns):
            def prog():
                yield Run(after_ns)
                yield SetAffinity(pin0)
                yield Run(msecs(1))
            return prog

        # The grouped task lands on CPU 0 and is pulled when CPU 1 idles
        # at 2.5 ms; the FIFO tasks run on CPU 2, then move to CPU 0 at
        # 1.5 and 2.6 ms.  Nothing lower than CFS preempts it.
        pulled = kernel.spawn(spinner(msecs(1)), policy=2, group="g",
                              allowed_cpus=frozenset({0, 1}))
        for ns in (usecs(1500), usecs(1100)):
            kernel.spawn(arrive_on_cpu0(ns), policy=1,
                         allowed_cpus=frozenset({2}))
        kernel.spawn(spinner(usecs(2500)), policy=1,
                     allowed_cpus=frozenset({1}))
        kernel.spawn(spinner(msecs(8)), nice=-10, group="g",
                     allowed_cpus=pin0)
        for _ in range(8):
            kernel.spawn(spinner(msecs(1)), nice=19, allowed_cpus=pin0)
        kernel.run_until_idle()
        assert pulled.stats.migrations == 1
        assert slice_oracle["hits"] > 0

    @pytest.mark.parametrize("hook", ["task_preempt", "task_yield"])
    def test_a_task_cfs_never_picked_counts_from_its_first_push(self, hook):
        """Failover hands CFS the tasks running under the failed class
        without telling it; the first CFS hears of one is that task's
        preemption or yield.  The slice of the task CFS did pick must
        count the newcomer from then on, although the CPU holds as many
        tasks as before."""
        kernel = Kernel(Topology.smp(1), SimConfig())
        cfs = kernel.register_sched_class(CfsSchedClass(policy=0),
                                          priority=10)
        kernel.register_sched_class(NativeFifoClass(policy=1), priority=5)
        for _ in range(2):
            kernel.spawn(spinner(msecs(20)))
        newcomer = kernel.spawn(spinner(msecs(20)), policy=1)
        kernel.run_for(msecs(5))
        current = kernel.rqs[0].current
        alone = cfs._slice_for(current, 0)
        kernel.redirect_policy(1, 0)
        getattr(cfs, hook)(newcomer, 0)
        assert cfs._slice_for(current, 0) == resum_slice(cfs, current, 0)
        assert cfs._slice_for(current, 0) < alone


class TestQuietPath:
    def test_a_multitenant_millisecond_calls_no_builtin(self, monkeypatch):
        """One capped and one uncapped group spin on four CPUs.  The
        hooks every simulated millisecond passes through test, compare
        and subscript: they make no builtin call of their own.  The
        charge walks the group chain inline and enters ``groups.py`` for
        a capped node only."""
        hooks = (CfsSchedClass.update_curr, CfsSchedClass.task_tick,
                 CfsSchedClass._slice_for, CfsSchedClass.pick_next_task,
                 DispatchEngine.update_curr, DispatchEngine.tick,
                 OpInterpreter.run_complete, OpInterpreter.pause_run_segment)
        charged = []
        charge = GroupManager.charge

        def capped_charge(groups, group, delta):
            charged.append(group.name)
            charge(groups, group, delta)

        monkeypatch.setattr(GroupManager, "charge", capped_charge)
        kernel = make_kernel(nr_cpus=4)
        tenants = ({"name": "open", "weight": 2048, "tasks": 8},
                   {"name": "capped", "weight": 1024, "tasks": 3,
                    "quota_ns": msecs(2), "period_ns": msecs(10)})
        with CallCensus(*hooks) as census:
            result = run_multitenant(kernel, 0, duration_ns=msecs(150),
                                     tenants=tenants)
        assert result.completed
        assert result.tenants["capped"]["throttle_count"] > 0
        assert census.builtins == []
        entered = [census.entered[hook.__qualname__] for hook in hooks]
        assert min(entered) > 100, census.entered
        assert set(charged) == {"capped"}
        charging = "DispatchEngine.update_curr: "
        assert {call for call in census.calls
                if call.startswith(charging)} == {
            charging + "CfsSchedClass.update_curr",
            charging + capped_charge.__qualname__}
