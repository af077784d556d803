"""Focused tests on the Enoki-C adapter: token lifecycle, sanitisation,
hint plumbing, cost accounting."""

import pytest

from repro.core import Recorder, UpgradeManager
from repro.exp import KernelBuilder
from repro.obs import Observer
from repro.schedulers.fifo import EnokiFifo
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel import SimConfig
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.task import TaskState

POLICY = 7


def make(scheduler="fifo", nr_cpus=2, recorder=None):
    session = (KernelBuilder(f"smp:{nr_cpus}")
               .with_enoki(scheduler, policy=POLICY, recorder=recorder)
               .build())
    return session.kernel, session.shim, session.shim.scheduler


class TestTokenLifecycle:
    def test_pick_consumes_token(self):
        kernel, shim, sched = make(nr_cpus=1)

        def prog():
            yield Run(usecs(10))

        task = kernel.spawn(prog, policy=POLICY)
        assert shim.tokens.peek(task.pid) is not None
        kernel.run_until_idle()
        # After the task died, no live token remains.
        assert shim.tokens.peek(task.pid) is None

    def test_migration_reissues_token(self):
        kernel, shim, sched = make(nr_cpus=2)

        def busy(ns):
            def prog():
                yield Run(ns)
            return prog

        # Two long tasks on cpu0's queue force a steal via WFQ-style
        # balance... the FIFO has no balance, so drive migration directly.
        t1 = kernel.spawn(busy(msecs(1)), policy=POLICY,
                          allowed_cpus=frozenset({0}))
        kernel.run_for(usecs(5))
        t2 = kernel.spawn(busy(msecs(1)), policy=POLICY,
                          allowed_cpus=frozenset({0, 1}))
        kernel.run_for(usecs(5))
        if t2.state is TaskState.RUNNABLE and not t2.on_rq:
            pytest.skip("t2 not queued")
        gen_before = shim.tokens.peek(t2.pid)
        if t2.cpu == 0 and t2.state is TaskState.RUNNABLE \
                and kernel.rqs[0].has(t2.pid):
            moved = kernel.try_migrate(t2.pid, 1, shim)
            if moved:
                gen_after = shim.tokens.peek(t2.pid)
                assert gen_after != gen_before
                assert gen_after[1] == 1   # token cpu re-homed
        kernel.run_until_idle()

    def test_select_sanitised_against_garbage(self):
        class GarbagePlacer(EnokiFifo):
            def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                               allowed_cpus):
                return 9999   # nonsense CPU

        kernel, shim, sched = make(GarbagePlacer)

        def prog():
            yield Run(usecs(10))

        task = kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD   # clamped, not crashed

    def test_select_respects_affinity_on_bad_answer(self):
        class WrongSidePlacer(EnokiFifo):
            def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                               allowed_cpus):
                return 0   # ignores the (cpu 1 only) affinity

        kernel, shim, sched = make(WrongSidePlacer)

        def prog():
            yield Run(usecs(10))

        task = kernel.spawn(prog, policy=POLICY,
                            allowed_cpus=frozenset({1}))
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert task.cpu == 1


#: answers that are not a real int: unhashable, wrong type, and the two
#: that hash/compare equal to pid/cpu 1 without being it
BAD_ANSWERS = ([1], {"pid": 1}, "1", True, 1.0)


class TestAnswerTypes:
    """A non-int answer is a bad response, never a crash or a lookup."""

    def run(self, sched, observed):
        kernel, shim, _ = make(sched)
        if observed:
            Observer.attach(kernel)

        def prog():
            for _ in range(3):
                yield Run(usecs(50))
                yield Sleep(usecs(20))

        tasks = [kernel.spawn(prog, policy=POLICY) for _ in range(3)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        return shim

    @pytest.mark.parametrize("observed", (False, True),
                             ids=("quiet", "observed"))
    @pytest.mark.parametrize("answer", BAD_ANSWERS, ids=repr)
    def test_balance(self, answer, observed):
        class BadBalancer(EnokiWfq):
            errors = []

            def balance(self, cpu):
                return answer

            def balance_err(self, cpu, pid, err, sched):
                self.errors.append((pid, err))

        shim = self.run(BadBalancer, observed)
        assert shim.containment.bad_responses > 0
        assert set(BadBalancer.errors) == {(-1, 2)}
        assert not shim.containment.panics

    @pytest.mark.parametrize("observed", (False, True),
                             ids=("quiet", "observed"))
    @pytest.mark.parametrize("answer", BAD_ANSWERS, ids=repr)
    def test_select_task_rq(self, answer, observed):
        class BadPlacer(EnokiWfq):
            def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                               allowed_cpus):
                return answer

        shim = self.run(BadPlacer, observed)
        # every placement (3 spawns + their wakeups) was refused
        assert shim.containment.bad_responses >= 3
        assert not shim.containment.panics


class TestHintPlumbing:
    def test_ring_overflow_drops_and_reports(self):
        config = SimConfig().scaled(ring_buffer_capacity=4)

        class DeafFifo(EnokiFifo):
            def enter_queue(self, queue_id, entries):
                pass   # never drains

        session = (KernelBuilder("smp:1", config)
                   .with_enoki(DeafFifo, policy=POLICY).build())
        kernel, shim = session.kernel, session.shim
        results = []

        def prog():
            for i in range(8):
                ok = yield SendHint({"i": i})
                results.append(ok)

        kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        assert results.count(True) == 4
        assert results.count(False) == 4
        ring = shim.queues.user_queues[1]
        assert ring.dropped == 4

    def test_rev_queue_per_process(self):
        kernel, shim, sched = make()
        qid_a = shim.ensure_rev_queue(100)
        qid_b = shim.ensure_rev_queue(200)
        assert qid_a != qid_b
        assert shim.ensure_rev_queue(100) == qid_a
        shim.push_rev_message(qid_a, {"to": "a"})
        ring_a = shim.queues.rev_queue_for_tgid(100)
        ring_b = shim.queues.rev_queue_for_tgid(200)
        assert len(ring_a) == 1
        assert len(ring_b) == 0

    def test_user_queue_per_process_survives_upgrade(self):
        """A process keeps its ring across a live upgrade (same id: the
        trait hands ids out in announcement order), two processes never
        share one, and a removed queue leaves no index entry behind."""
        kernel, shim, sched = make()
        received = []
        sched.parse_hint = received.append

        def hinter(n):
            def prog():
                for i in range(n):
                    yield SendHint({"i": i})
                    yield Run(usecs(10))
            return prog

        a = kernel.spawn(hinter(2), policy=POLICY, tgid=100)
        b = kernel.spawn(hinter(2), policy=POLICY, tgid=200)
        kernel.run_until_idle()
        qid_a = shim.ensure_user_queue(a.tgid)
        qid_b = shim.ensure_user_queue(b.tgid)
        assert qid_a != qid_b
        assert len(shim.queues.user_queues) == 2
        ring_a = shim.queues.user_queues[qid_a]

        new = EnokiFifo(2, POLICY)
        new.parse_hint = received.append
        UpgradeManager(kernel, shim).upgrade_now(new)
        assert shim.ensure_user_queue(a.tgid) == qid_a
        assert shim.queues.user_queues[qid_a] is ring_a
        kernel.spawn(hinter(1), policy=POLICY, tgid=100)
        kernel.run_until_idle()
        assert len(shim.queues.user_queues) == 2      # no second ring
        assert ring_a.pushed == 3 and len(received) == 5

    def test_push_to_unknown_queue_fails_gracefully(self):
        kernel, shim, sched = make()
        assert shim.push_rev_message(999, {"x": 1}) is False


class TestCostAccounting:
    def test_record_mode_charges_extra(self):
        def elapsed(recorder):
            kernel, _, _ = make(nr_cpus=1, recorder=recorder)

            def prog():
                for _ in range(30):
                    yield Run(usecs(5))
                    yield Sleep(usecs(5))

            kernel.spawn(prog, policy=POLICY)
            kernel.run_until_idle()
            return kernel.now

        plain = elapsed(None)
        recorded = elapsed(Recorder())
        assert recorded > plain * 1.5

    def test_blackout_charged_once(self):
        kernel, shim, sched = make()
        shim.note_upgrade_blackout(50_000)
        first = shim.settle_ns(2, True)
        second = shim.settle_ns(2, True)
        assert first - second == 50_000
        assert shim.owes is False


class TestDispatchThreading:
    def test_thread_tags_follow_cpus(self):
        recorder = Recorder()
        kernel, shim, sched = make(nr_cpus=4, recorder=recorder)

        def prog():
            yield Run(usecs(50))
            yield Sleep(usecs(10))
            yield Run(usecs(50))

        for _ in range(4):
            kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        recorder.stop()
        threads = {e["thread"] for e in recorder.entries
                   if e["kind"] == "call"}
        assert len(threads) >= 2
        assert all(isinstance(t, int) for t in threads)
