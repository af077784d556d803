"""Tests for the ghOSt model: deferred placement, agents, staleness."""

from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.ghost import (
    GHOST_POLICY,
    install_ghost_percpu_fifo,
    install_ghost_shinjuku,
    install_ghost_sol,
)
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState


def sol_kernel(managed=None, agent_cpu=7):
    kernel = Kernel(Topology.small8(), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
    ghost, model = install_ghost_sol(
        kernel, managed_cpus=managed or [0, 1, 2, 3], agent_cpu=agent_cpu)
    return kernel, ghost, model


class TestSolAgent:
    def test_tasks_run_via_agent_commits(self):
        kernel, ghost, model = sol_kernel()

        def prog():
            yield Run(usecs(100))

        tasks = [kernel.spawn(prog, policy=GHOST_POLICY) for _ in range(6)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        assert model.commits >= 6
        assert model.messages_processed >= 6

    def test_placement_respects_affinity(self):
        kernel, ghost, model = sol_kernel()

        def prog():
            yield Run(usecs(50))
            yield Sleep(usecs(20))
            yield Run(usecs(50))

        task = kernel.spawn(prog, policy=GHOST_POLICY,
                            allowed_cpus=frozenset({2}))
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert task.cpu == 2

    def test_latency_includes_agent_round_trip(self):
        """ghOSt's defining cost: even an uncontended wakeup pays the
        message -> agent -> commit path."""
        kernel, ghost, model = sol_kernel()

        def prog():
            yield Sleep(usecs(100))
            yield Run(usecs(10))

        task = kernel.spawn(prog, policy=GHOST_POLICY)
        kernel.run_until_idle()
        cfg = kernel.config
        floor = (cfg.ghost_msg_enqueue_ns + cfg.ghost_agent_msg_ns
                 + cfg.ghost_txn_commit_ns)
        assert min(task.stats.wakeup_latencies) >= floor

    def test_low_priority_tasks_wait_for_high(self):
        kernel, ghost, model = sol_kernel(managed=[0])
        order = []

        def tagged(tag, ns):
            def prog():
                yield Run(ns)
                from repro.simkernel.program import Call
                yield Call(lambda: order.append(tag))
            return prog

        kernel.spawn(tagged("first", usecs(200)), policy=GHOST_POLICY)
        kernel.run_for(usecs(30))
        kernel.spawn(tagged("low", usecs(50)), policy=GHOST_POLICY,
                     nice=19)
        kernel.spawn(tagged("high", usecs(50)), policy=GHOST_POLICY)
        kernel.run_until_idle()
        assert order.index("high") < order.index("low")


class TestPerCpuFifo:
    def test_agent_shares_core_with_tasks(self):
        kernel = Kernel(Topology.small8(), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        ghost, router = install_ghost_percpu_fifo(kernel, managed_cpus=[0])

        def prog():
            for _ in range(5):
                yield Run(usecs(20))
                yield Sleep(usecs(20))

        task = kernel.spawn(prog, policy=GHOST_POLICY,
                            allowed_cpus=frozenset({0}))
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        # The agent consumed real CPU time on the shared core.
        agent = router.agents[0].agent_task
        assert agent.sum_exec_runtime_ns > 0
        assert agent.cpu == 0

    def test_tasks_homed_round_robin(self):
        kernel = Kernel(Topology.small8(), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        ghost, router = install_ghost_percpu_fifo(kernel,
                                                  managed_cpus=[0, 1])

        def prog():
            yield Run(usecs(100))

        tasks = [kernel.spawn(prog, policy=GHOST_POLICY) for _ in range(4)]
        kernel.run_until_idle()
        homes = {router.home.get(t.pid) for t in tasks if t.pid
                 in router.home} | {t.cpu for t in tasks}
        assert homes <= {0, 1}
        assert all(t.state is TaskState.DEAD for t in tasks)


class TestGhostShinjuku:
    def test_preemption_timer_slices_long_tasks(self):
        kernel = Kernel(Topology.small8(), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        install_ghost_shinjuku(kernel, managed_cpus=[0], agent_cpu=7)

        def long_prog():
            yield Run(msecs(1))

        def short_prog():
            yield Run(usecs(10))

        long_task = kernel.spawn(long_prog, policy=GHOST_POLICY)
        kernel.run_for(usecs(50))
        short_task = kernel.spawn(short_prog, policy=GHOST_POLICY)
        kernel.run_until_idle()
        # The long task was preempted repeatedly at the 10us slice, so the
        # short task finished long before it.
        assert long_task.stats.preemptions >= 3
        assert short_task.stats.finished_ns < long_task.stats.finished_ns

    def test_commit_failure_detected_for_dead_task(self):
        kernel, ghost, model = sol_kernel(managed=[0])

        # Race a commit against task death: deliver_commit for a dead pid
        # must report commit_failed, not crash.
        ghost.deliver_commit(9999, 0)
        failures = [m for m in model.msgs if m[0] == "commit_failed"]
        assert failures


class TestGhostYield:
    def test_yielding_task_gets_recommitted(self):
        kernel, ghost, model = sol_kernel(managed=[0])
        order = []

        def polite():
            from repro.simkernel.program import Call, YieldCpu
            yield Run(usecs(20))
            yield YieldCpu()
            yield Run(usecs(20))
            yield Call(lambda: order.append("polite"))

        def other():
            from repro.simkernel.program import Call
            yield Run(usecs(20))
            yield Call(lambda: order.append("other"))

        t1 = kernel.spawn(polite, policy=GHOST_POLICY)
        t2 = kernel.spawn(other, policy=GHOST_POLICY)
        kernel.run_until_idle()
        assert t1.state is TaskState.DEAD
        assert t2.state is TaskState.DEAD
        # The yield let the other task in first.
        assert order == ["other", "polite"]
