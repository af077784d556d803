"""Behavioural tests for the Enoki WFQ scheduler (paper section 4.2.1)."""

from repro.core.enoki_c import EnokiSchedClass
from repro.core.schedulable import TokenRegistry
from repro.exp import KernelBuilder
from repro.obs.accounting import KernelAccounting
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.wfq import EnokiWfq, WfqTransferState
from repro.simkernel.clock import msecs
from repro.simkernel.dispatch import DispatchEngine
from repro.simkernel.interp import OpInterpreter
from repro.simkernel.migration import MigrationService
from repro.simkernel.program import Run, SetNice, Sleep
from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.task import TaskState, TaskStats
from repro.workloads.hackbench import run_hackbench
from repro.workloads.pipe_bench import run_pipe_benchmark
from tests.call_census import CallCensus

POLICY = 7


def make(nr_cpus=8):
    session = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
               .with_enoki("wfq", policy=POLICY).build())
    return session.kernel, session.shim.scheduler


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestVruntimeFairness:
    def test_equal_weight_equal_share(self):
        kernel, _ = make(nr_cpus=1)
        tasks = [kernel.spawn(spinner(msecs(30)), policy=POLICY)
                 for _ in range(3)]
        kernel.run_until(msecs(45))
        runtimes = [t.sum_exec_runtime_ns for t in tasks]
        assert max(runtimes) - min(runtimes) < msecs(10)

    def test_weighted_share_follows_nice(self):
        kernel, _ = make(nr_cpus=1)
        heavy = kernel.spawn(spinner(msecs(40)), policy=POLICY, nice=0)
        light = kernel.spawn(spinner(msecs(40)), policy=POLICY, nice=10)
        kernel.run_until(msecs(30))
        assert heavy.sum_exec_runtime_ns > 4 * light.sum_exec_runtime_ns

    def test_prio_change_applies(self):
        kernel, sched = make(nr_cpus=1)

        def prog():
            yield SetNice(5)
            yield Run(msecs(1))

        task = kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD

    def test_sleeper_gets_bounded_bonus(self):
        kernel, _ = make(nr_cpus=1)
        hog = kernel.spawn(spinner(msecs(60)), policy=POLICY)

        def napper():
            yield Sleep(msecs(20))
            yield Run(msecs(5))

        nap = kernel.spawn(napper, policy=POLICY)
        kernel.run_until_idle()
        # Woken with bounded credit: it finishes promptly but the hog is
        # not starved for the whole 5ms.
        assert nap.stats.finished_ns < msecs(40)
        assert hog.state is TaskState.DEAD


class TestWorkStealing:
    def test_idle_core_steals_from_longest_queue(self):
        kernel, _ = make(nr_cpus=2)
        # Overload: 6 tasks, 2 cores; any idling core must steal.
        tasks = [kernel.spawn(spinner(msecs(10)), policy=POLICY)
                 for _ in range(6)]
        kernel.run_until_idle()
        total = msecs(60)
        # Work conserving: close to perfect 2-way parallelism.
        assert kernel.now < total // 2 + msecs(8)
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_no_rebalance_without_idle(self):
        """Paper: 'Otherwise, our scheduler does not rebalance tasks.'"""
        kernel, _ = make(nr_cpus=2)
        t1 = kernel.spawn(spinner(msecs(10)), policy=POLICY)
        t2 = kernel.spawn(spinner(msecs(10)), policy=POLICY)
        kernel.run_until_idle()
        # Perfectly balanced load: nobody should have migrated.
        assert t1.stats.migrations == 0
        assert t2.stats.migrations == 0


class TestTransferState:
    def test_reregister_roundtrip(self):
        sched = EnokiWfq(4, POLICY)
        sched.vruntime[5] = 123
        sched.weights[5] = 1024
        state = sched.reregister_prepare()
        assert isinstance(state, WfqTransferState)

        new = EnokiWfq(4, POLICY)
        new.reregister_init(state)
        assert new.vruntime[5] == 123
        assert new.generation == 2

    def test_upgrade_preserves_fairness_state(self):
        from repro.core import UpgradeManager

        kernel, sched = make(nr_cpus=1)
        shim = next(c for _p, c in kernel._classes
                    if c.policy == POLICY)
        tasks = [kernel.spawn(spinner(msecs(20)), policy=POLICY)
                 for _ in range(3)]
        kernel.run_until(msecs(10))
        manager = UpgradeManager(kernel, shim)
        manager.upgrade_now(EnokiWfq(1, POLICY))
        kernel.run_until_idle()
        finish = [t.stats.finished_ns for t in tasks]
        # Fair sharing survived the upgrade: everyone finishes together.
        assert max(finish) - min(finish) < msecs(12)


class TestQuietPath:
    def test_a_clean_hackbench_crossing_calls_no_builtin(self):
        """The engine's hooks that every hackbench message crosses, Enoki-C's
        pick, the token registry's spend and revoke and the pick walk
        test, subscript and ``del``: they make no builtin call of their
        own, and the wakeup-latency window only appends.  Every
        ``update_curr`` frame entered charges time (it reaches the
        accounting's ``note_run``): no caller enters it with nothing to
        charge."""
        hooks = (EnokiWfq._observe_runtime, EnokiWfq.pick_next_task,
                 EnokiWfq.task_wakeup, EnokiWfq.task_blocked,
                 EnokiWfq.task_preempt, EnokiSchedClass.pick_next_task,
                 TokenRegistry.spend, TokenRegistry.revoke,
                 DispatchEngine.pick_and_switch, DispatchEngine.update_curr,
                 TaskStats.note_wakeup_latency)
        kernel, _ = make(nr_cpus=4)
        KernelAccounting.attach(kernel)
        with CallCensus(*hooks) as census:
            result = run_hackbench(kernel, POLICY, groups=2, fds=4,
                                   loops=10)
        assert result.total_messages == 320
        assert set(census.builtins) == {
            "TaskStats.note_wakeup_latency: deque.append"}
        entered = [census.entered[hook.__qualname__] for hook in hooks]
        assert min(entered) > 100, census.entered
        charges = census.calls.count(
            "DispatchEngine.update_curr: KernelAccounting.note_run")
        assert charges == census.entered["DispatchEngine.update_curr"]

    def test_a_pipe_message_cycle_calls_no_builtin(self):
        """Each pipe message on two CPUs wakes the reader on the other
        CPU, blocks the sender, fails to steal the reader back
        (``kick-in-flight``), idles the sender's CPU and restarts the
        reader's tick.  The hooks on that cycle test, compare and
        subscript: the only builtins they call are the wakeup jitter's
        draw and the depth ``longest_other`` compares, and they enter no
        helper that only forwards or looks up."""
        hooks = (MigrationService.try_migrate, EnokiSchedClass.balance,
                 CfsSchedClass.balance, TokenQueue.longest_other,
                 MigrationService.kick_cpu_for_wakeup,
                 OpInterpreter.op_epilogue, DispatchEngine.pick_and_switch)
        kernel, _ = make(nr_cpus=2)
        with CallCensus(*hooks) as census:
            run_pipe_benchmark(kernel, POLICY, rounds=200)
        assert kernel.stats.failed_migrations >= 400
        assert kernel.stats.total_migrations == 0
        assert set(census.builtins) == {
            "MigrationService.kick_cpu_for_wakeup: Random.getrandbits",
            "TokenQueue.longest_other: len"}
        entered = [census.entered[hook.__qualname__] for hook in hooks]
        assert min(entered) > 100, census.entered
        walk = "DispatchEngine.pick_and_switch: "
        assert {call for call in census.calls
                if not call.startswith(walk)} == {
            "EnokiSchedClass.balance: EnokiSchedClass._call",
            "MigrationService.try_migrate: MigrationService.migrate_failed",
            "MigrationService.kick_cpu_for_wakeup: EventQueue.after",
            "OpInterpreter.op_epilogue: DispatchEngine.update_curr",
            "OpInterpreter.op_epilogue: OpInterpreter.advance_program"}
        # The tick restarts in place: one frame, no fresh Timer.
        assert census.calls.count(walk + "TimerService.arm_periodic") > 100
