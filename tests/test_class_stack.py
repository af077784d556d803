"""Full class-stack integration: FIFO > Enoki > CFS > FIFO on one machine.

Linux stacks its scheduling classes in strict priority order; the
substrate must honour the same discipline when four classes are loaded
at once — a trusted native FIFO first, then the loadable Enoki policy,
then CFS, with a second native FIFO below CFS soaking up what is left.
"""

from repro.core import EnokiSchedClass
from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Call, Run, Sleep
from repro.simkernel.task import TaskState

PIN0 = frozenset({0})
FIFO, ENOKI, CFS, LOW = 1, 7, 0, 2


def full_stack(nr_cpus=2):
    return (KernelBuilder(f"smp:{nr_cpus}")
            .with_native("fifo_native", policy=FIFO, priority=80)
            .with_native("cfs", policy=CFS, priority=10)
            .with_native("fifo_native", policy=LOW, priority=5)
            .with_enoki("wfq", policy=ENOKI, priority=50).build())


def spinner(ns):
    def prog():
        yield Run(ns)
    return prog


class TestFourClassStack:
    def test_priority_order_on_one_core(self):
        kernel = full_stack(nr_cpus=1).kernel
        order = []

        def tagged(tag, ns):
            def prog():
                yield Run(ns)
                yield Call(lambda: order.append(tag))
            return prog

        for tag, policy in (("low", LOW), ("cfs", CFS), ("enoki", ENOKI),
                            ("fifo", FIFO)):
            kernel.spawn(tagged(tag, usecs(80)), policy=policy,
                         allowed_cpus=PIN0)
        kernel.run_until_idle()
        assert order == ["fifo", "enoki", "cfs", "low"]

    def test_everyone_finishes_under_mixed_load(self):
        kernel = full_stack(nr_cpus=2).kernel
        tasks = [kernel.spawn(spinner(msecs(1)), policy=policy)
                 for policy in (FIFO, LOW)]
        for _ in range(3):
            tasks.append(kernel.spawn(spinner(msecs(1)), policy=ENOKI))
        for _ in range(3):
            tasks.append(kernel.spawn(spinner(msecs(1)), policy=CFS))
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_enoki_upgrade_under_a_live_stack(self):
        """Live upgrade of the Enoki scheduler while native FIFO and CFS
        traffic flows above and below it."""
        session = full_stack(nr_cpus=2)
        kernel = session.kernel

        def mixed(policy_work):
            def prog():
                for _ in range(10):
                    yield Run(usecs(policy_work))
                    yield Sleep(usecs(200))
            return prog

        tasks = [kernel.spawn(mixed(300), policy=ENOKI) for _ in range(4)]
        tasks.append(kernel.spawn(mixed(100), policy=FIFO))
        tasks.append(kernel.spawn(mixed(200), policy=CFS))
        tasks.append(kernel.spawn(mixed(100), policy=LOW))
        manager = session.schedule_upgrade(msecs(2))
        kernel.run_until_idle()
        assert len(manager.reports) == 1
        assert all(t.state is TaskState.DEAD for t in tasks)


class TestRuntimeAccounting:
    def test_update_curr_reaches_only_the_class_that_keeps_runtimes(self):
        """CFS's ``update_curr`` receives every nanosecond its tasks run;
        the Enoki shim defines no hook, so the dispatcher makes no call
        for its tasks (their runtimes travel inside the messages)."""
        session = (KernelBuilder("smp:2")
                   .with_native("cfs", policy=CFS, priority=10)
                   .with_enoki("wfq", policy=ENOKI, priority=50).build())
        kernel, shim = session.kernel, session.shim
        cfs = session.sched_class(CFS)
        received = {}
        keep = cfs.update_curr

        def spy(task, delta_ns):
            received[task.pid] = received.get(task.pid, 0) + delta_ns
            keep(task, delta_ns)

        cfs.update_curr = spy

        def mixed(work):
            def prog():
                for _ in range(5):
                    yield Run(usecs(work))
                    yield Sleep(usecs(150))
            return prog

        cfs_tasks = [kernel.spawn(mixed(400), policy=CFS) for _ in range(3)]
        enoki_tasks = [kernel.spawn(mixed(300), policy=ENOKI)
                       for _ in range(3)]
        kernel.run_until(msecs(1))      # a tick or two lands mid-Run
        kernel.run_until_idle()
        assert received == {t.pid: t.sum_exec_runtime_ns for t in cfs_tasks}
        assert all(t.sum_exec_runtime_ns >= usecs(1500) for t in enoki_tasks)
        assert "update_curr" not in vars(EnokiSchedClass)
        assert shim.update_curr is None
