"""Integration tests: the Enoki framework end-to-end on the FIFO scheduler.

Covers message dispatch, Schedulable token discipline, pnt_err handling,
hint queues, and the kernel/framework interaction contract.
"""

import pytest

from repro.core.errors import TokenError
from repro.exp import KernelBuilder
from repro.core.schedulable import Schedulable, TokenRegistry
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel import Pipe
from repro.simkernel.program import (
    PipeRead,
    PipeWrite,
    Run,
    SendHint,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.simkernel.task import TaskState

POLICY = 7


def make_enoki_kernel(nr_cpus=2, scheduler="fifo", recorder=None):
    session = (KernelBuilder(f"smp:{nr_cpus}")
               .with_enoki(scheduler, policy=POLICY, recorder=recorder)
               .build())
    return session.kernel, session.shim, session.shim.scheduler


class TestBasicScheduling:
    def test_single_task(self):
        kernel, _, _ = make_enoki_kernel()

        def prog():
            yield Run(10_000)

        task = kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD

    def test_many_tasks_all_complete(self):
        kernel, _, _ = make_enoki_kernel(nr_cpus=4)

        def prog():
            yield Run(50_000)
            yield Sleep(10_000)
            yield Run(50_000)

        tasks = [kernel.spawn(prog, policy=POLICY) for _ in range(16)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)

    def test_fifo_order_on_one_cpu(self):
        kernel, _, _ = make_enoki_kernel(nr_cpus=1)
        order = []

        def prog(i):
            def inner():
                order.append(i)
                yield Run(10_000)
            return inner

        for i in range(4):
            kernel.spawn(prog(i), policy=POLICY)
        kernel.run_until_idle()
        assert order == [0, 1, 2, 3]

    def test_pipe_ping_pong_through_framework(self):
        kernel, _, _ = make_enoki_kernel()
        ping, pong = Pipe(), Pipe()

        def a():
            for _ in range(20):
                yield PipeWrite(ping, b"m")
                yield PipeRead(pong)

        def b():
            for _ in range(20):
                yield PipeRead(ping)
                yield PipeWrite(pong, b"m")

        ta = kernel.spawn(a, policy=POLICY)
        tb = kernel.spawn(b, policy=POLICY)
        kernel.run_until_idle()
        assert ta.state is TaskState.DEAD
        assert tb.state is TaskState.DEAD

    def test_framework_overhead_charged(self):
        """Same workload under native FIFO vs Enoki FIFO: the Enoki run
        must be slower by roughly the per-invocation dispatch cost."""
        def make_prog():
            def prog():
                for _ in range(50):
                    yield Run(1_000)
                    yield Sleep(5_000)
            return prog

        kernel_native = (KernelBuilder("smp:1")
                         .with_native("fifo_native", policy=1).build().kernel)
        kernel_native.spawn(make_prog(), policy=1)
        kernel_native.run_until_idle()

        kernel_enoki, _, _ = make_enoki_kernel(nr_cpus=1)
        kernel_enoki.spawn(make_prog(), policy=POLICY)
        kernel_enoki.run_until_idle()

        assert kernel_enoki.now > kernel_native.now


class TestSchedulableDiscipline:
    def test_tokens_cannot_be_copied(self):
        import copy
        registry = TokenRegistry()
        token = registry.issue(1, 0)
        with pytest.raises(TokenError):
            copy.copy(token)
        with pytest.raises(TokenError):
            copy.deepcopy(token)

    def test_tokens_cannot_be_pickled(self):
        import pickle
        registry = TokenRegistry()
        token = registry.issue(1, 0)
        with pytest.raises(TokenError):
            pickle.dumps(token)

    def test_new_issue_invalidates_old(self):
        registry = TokenRegistry()
        old = registry.issue(1, 0)
        new = registry.issue(1, 1)
        assert not registry.is_valid(old)
        assert registry.is_valid(new)

    def test_consume_is_single_use(self):
        registry = TokenRegistry()
        token = registry.issue(1, 0)
        assert registry.spend(token)
        assert not registry.spend(token)
        assert not registry.is_valid(token)

    def test_wrong_cpu_fails_validation(self):
        registry = TokenRegistry()
        token = registry.issue(1, 0)
        assert registry.is_valid(token, cpu=0)
        assert not registry.is_valid(token, cpu=1)

    def test_foreign_registry_rejected(self):
        registry_a = TokenRegistry()
        registry_b = TokenRegistry()
        token = registry_a.issue(1, 0)
        assert not registry_b.is_valid(token)

    def test_forged_token_rejected(self):
        registry = TokenRegistry()
        registry.issue(1, 0)
        fake = Schedulable(1, 0, generation=999, registry_id=registry._id)
        assert not registry.is_valid(fake)

    def test_subclass_with_live_fields_rejected(self):
        """Only the exact type is a token: a subclass instance carrying a
        live token's fields is refused (and not spent)."""

        class Forged(Schedulable):
            __slots__ = ()

        registry = TokenRegistry()
        registry.issue(1, 0)
        generation, cpu = registry.peek(1)
        fake = Forged(1, cpu, generation=generation,
                      registry_id=registry._id)
        assert not registry.is_valid(fake)
        assert not registry.spend(fake)
        assert registry.peek(1) == (generation, cpu)


class TestPntErrPath:
    def test_wrong_core_token_routes_to_pnt_err(self):
        """A scheduler returning the wrong core's token gets a pnt_err
        callback instead of crashing the kernel (section 3.1)."""

        class WrongCoreFifo(EnokiFifo):
            def __init__(self, nr_cpus, policy):
                super().__init__(nr_cpus, policy)
                self.pnt_errs = []

            def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
                with self.lock:
                    # Deliberately pull from the *other* CPU's queue.
                    other = (cpu + 1) % self.nr_cpus
                    if self.queues.cpus[other]:
                        return self.queues.pop_head(other)[2]
                    if self.queues.cpus[cpu]:
                        return self.queues.pop_head(cpu)[2]
                return None

            def pnt_err(self, cpu, pid, err, sched):
                self.pnt_errs.append((cpu, pid))
                super().pnt_err(cpu, pid, err, sched)

        kernel, _, sched = make_enoki_kernel(nr_cpus=2, scheduler=WrongCoreFifo)

        def prog():
            yield Run(5_000)
            yield Sleep(2_000)
            yield Run(5_000)

        tasks = [kernel.spawn(prog, policy=POLICY) for _ in range(4)]
        kernel.run_until_idle(max_events=200_000)
        # The kernel survived; errors were surfaced through pnt_err.
        assert sched.pnt_errs
        assert kernel.stats.pick_errors >= len(sched.pnt_errs)
        # Tasks may starve under a broken policy but nothing crashed, and
        # whoever ran, ran legally.
        assert all(t.state in (TaskState.DEAD, TaskState.RUNNABLE,
                               TaskState.BLOCKED, TaskState.RUNNING)
                   for t in tasks)

    def test_stale_token_rejected(self):
        """Holding a token across its reissue makes it useless."""

        class HoarderFifo(EnokiFifo):
            def __init__(self, nr_cpus, policy):
                super().__init__(nr_cpus, policy)
                self.hoard = {}
                self.pnt_errs = 0

            def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                            wake_up_cpu, waker_cpu, sched):
                # Keep the *previous* token and queue the new one... then
                # try to use the old one at pick time.
                if pid in self.hoard:
                    stale = self.hoard.pop(pid)
                    with self.lock:
                        self.queues.push_back(stale.cpu, pid, stale)
                    self.hoard[pid] = sched
                else:
                    self.hoard[pid] = sched
                    with self.lock:
                        self.queues.push_back(sched.cpu, pid, sched)

            def pnt_err(self, cpu, pid, err, sched):
                self.pnt_errs += 1

        kernel, _, sched = make_enoki_kernel(nr_cpus=1, scheduler=HoarderFifo)

        def prog():
            for _ in range(3):
                yield Run(1_000)
                yield Sleep(1_000)

        kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle(max_events=100_000)
        assert sched.pnt_errs >= 1


class TestHints:
    def test_hint_reaches_parse_hint(self):
        class HintFifo(EnokiFifo):
            def __init__(self, nr_cpus, policy):
                super().__init__(nr_cpus, policy)
                self.hints = []

            def parse_hint(self, hint):
                self.hints.append((hint.pid, hint.payload))

        kernel, _, sched = make_enoki_kernel(nr_cpus=2, scheduler=HintFifo)

        def prog():
            yield SendHint({"group": 3})
            yield Run(1_000)

        task = kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert sched.hints == [(task.pid, {"group": 3})]

    def test_reverse_queue_roundtrip(self):
        class RevFifo(EnokiFifo):
            def parse_hint(self, hint):
                # Echo every hint back through the reverse queue.
                queue_id = hint.payload["rev_queue"]
                self.env.send_rev_message(
                    queue_id, {"echo": hint.payload["value"]}
                )

        kernel, shim, _ = make_enoki_kernel(nr_cpus=2, scheduler=RevFifo)
        received = []

        def prog():
            from repro.simkernel.program import RecvHints
            queue_id = shim.ensure_rev_queue(1)  # tgid of first task
            yield SendHint({"rev_queue": queue_id, "value": 42})
            yield Run(1_000)
            messages = yield RecvHints()
            received.extend(messages)

        kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert received == [{"echo": 42}]


class TestYieldAndSpawn:
    def test_yield_requeues_at_back(self):
        kernel, _, _ = make_enoki_kernel(nr_cpus=1)
        order = []

        def a():
            order.append("a-start")
            yield Run(1_000)
            yield YieldCpu()
            order.append("a-resumed")
            yield Run(1_000)

        def b():
            order.append("b")
            yield Run(1_000)

        kernel.spawn(a, policy=POLICY)
        kernel.spawn(b, policy=POLICY)
        kernel.run_until_idle()
        assert order == ["a-start", "b", "a-resumed"]

    def test_spawned_children_inherit_policy(self):
        kernel, _, _ = make_enoki_kernel()
        pids = []

        def child():
            yield Run(1_000)

        def parent():
            pid = yield Spawn(child)
            pids.append(pid)

        kernel.spawn(parent, policy=POLICY)
        kernel.run_until_idle()
        assert kernel.tasks[pids[0]].policy == POLICY
        assert kernel.tasks[pids[0]].state is TaskState.DEAD
