"""Tests for the record-and-replay system (paper section 3.4)."""

import copy
import threading

import pytest

from repro.core import Recorder, ReplayEngine, load_trace
from repro.core import replay as replay_mod
from repro.core.errors import EnokiError, RecordError, ReplayMismatch
from repro.core.libenoki import EnokiSpinLock
from repro.core.replay import Divergence
from repro.exp import KernelBuilder
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel import Pipe
from repro.simkernel.program import (PipeRead, PipeWrite, Run, SendHint,
                                     Sleep, YieldCpu)

POLICY = 7


def run_recorded_workload(nr_cpus=2, rounds=15, sched="fifo", record=True):
    """Run a pipe ping-pong under a recorded (unless not ``record``)
    Enoki FIFO; returns the recorder and the kernel."""
    recorder = Recorder() if record else None
    kernel = (KernelBuilder(f"smp:{nr_cpus}")
              .with_enoki(sched, policy=POLICY, recorder=recorder)
              .build().kernel)
    ping, pong = Pipe(), Pipe()

    def a():
        for _ in range(rounds):
            yield PipeWrite(ping, b"x")
            yield PipeRead(pong)

    def b():
        for _ in range(rounds):
            yield PipeRead(ping)
            yield PipeWrite(pong, b"y")

    kernel.spawn(a, policy=POLICY)
    kernel.spawn(b, policy=POLICY)
    kernel.run_until_idle()
    if record:
        recorder.stop()
    return recorder, kernel


class TestRecorder:
    def test_records_calls_and_locks(self):
        recorder, _ = run_recorded_workload()
        kinds = {entry["kind"] for entry in recorder.entries}
        assert "call" in kinds
        assert "lock" in kinds
        assert "lock_created" in kinds

    def test_entries_are_sequenced(self):
        recorder, _ = run_recorded_workload()
        seqs = [entry["seq"] for entry in recorder.entries]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_calls_carry_thread_ids(self):
        recorder, _ = run_recorded_workload(nr_cpus=2)
        threads = {
            entry["thread"] for entry in recorder.entries
            if entry["kind"] == "call"
        }
        # Both CPUs drove scheduler calls.
        assert len(threads) >= 2

    def test_save_and_load_roundtrip(self, tmp_path):
        recorder, _ = run_recorded_workload()
        path = tmp_path / "trace.jsonl"
        count = recorder.save(str(path))
        loaded = load_trace(str(path))
        assert len(loaded) == count
        assert loaded[0]["seq"] == 1

    def test_ring_drains_in_batches_and_overruns_drop(self):
        recorder = Recorder(capacity=8, drain_batch=4)
        for i in range(10):
            recorder.note_lock_op("acquire", i, 0)
        assert [entry["seq"] for entry in recorder.log] == list(range(1, 9))
        assert recorder.dropped == 0
        assert len(recorder.entries) == 10
        # A drain batch the ring cannot hold: entries past capacity drop.
        recorder = Recorder(capacity=4, drain_batch=8)
        for i in range(10):
            recorder.note_lock_op("acquire", i, 0)
        assert recorder.log == [] and recorder.dropped == 6
        assert [entry["seq"] for entry in recorder.entries] == [1, 2, 3, 4]

    @pytest.mark.parametrize("capacity", [True, False, 2.5, "8", None, 0,
                                          -1])
    def test_bad_capacity_raises_record_error(self, capacity):
        with pytest.raises(RecordError, match=repr(capacity)):
            Recorder(capacity=capacity)

    def test_recording_slows_execution(self):
        """Section 5.8: record mode is measurably slower than normal."""
        _, kernel_recorded = run_recorded_workload(rounds=50)
        _, kernel_plain = run_recorded_workload(rounds=50, record=False)
        assert kernel_recorded.now > kernel_plain.now * 1.5


class TestReplay:
    def test_sequential_replay_matches(self):
        recorder, _ = run_recorded_workload()
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY),
                              recorder.entries)
        result = engine.run_sequential()
        assert result.matched, result.divergences[:3]
        assert result.calls_replayed > 20

    def test_threaded_replay_matches(self):
        recorder, _ = run_recorded_workload()
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY),
                              recorder.entries)
        result = engine.run_threaded()
        assert result.matched, result.divergences[:3]
        assert result.lock_ops_replayed > 0

    def test_replay_from_file(self, tmp_path):
        recorder, _ = run_recorded_workload()
        path = tmp_path / "trace.jsonl"
        recorder.save(str(path))
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY),
                              load_trace(str(path)))
        assert engine.verify(mode="sequential").matched

    def test_divergent_scheduler_is_detected(self):
        """Replaying against a *different* policy flags mismatches —
        the paper: 'we can alert the user if the scheduler returns a
        different result during replay'."""
        recorder, _ = run_recorded_workload()

        class LifoFifo(EnokiFifo):
            def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
                with self.lock:
                    queue = self.queues.cpus[cpu]
                    if queue:
                        return self.queues.remove(queue[-1][1])   # LIFO!
                return None

        engine = ReplayEngine(lambda: LifoFifo(2, POLICY), recorder.entries)
        result = engine.run_sequential()
        # With two ping-pong tasks a LIFO can still match; force a check
        # via select_task_rq divergence instead if picks matched.
        if result.matched:
            class FarPlacer(EnokiFifo):
                def select_task_rq(self, pid, prev_cpu, waker_cpu,
                                   wake_flags, allowed_cpus):
                    return self.nr_cpus - 1

            engine = ReplayEngine(lambda: FarPlacer(2, POLICY),
                                  recorder.entries)
            result = engine.run_sequential()
        assert not result.matched

    def test_verify_raises_on_mismatch(self):
        recorder, _ = run_recorded_workload()

        class AlwaysIdle(EnokiFifo):
            def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
                return None

        engine = ReplayEngine(lambda: AlwaysIdle(2, POLICY),
                              recorder.entries)
        with pytest.raises(ReplayMismatch):
            engine.verify()

    def test_verify_rejects_an_unknown_mode(self):
        recorder, _ = run_recorded_workload()
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY),
                              recorder.entries)
        with pytest.raises(ValueError, match="unknown replay mode 'thread'"):
            engine.verify(mode="thread")

    def test_divergence_reports_are_informative(self):
        divergence = Divergence(seq=9, function="pick_next_task",
                                expected={"pid": 1}, actual=None)
        assert divergence.seq == 9
        assert divergence.function == "pick_next_task"


class TestReplayWithHints:
    def test_hint_messages_replay(self, tmp_path):
        """Hints are part of the recorded sequence (a hint entry, then the
        enter_queue call whose default drain hands it to parse_hint); a
        replay rebuilds the same group->core bindings."""
        from repro.schedulers.locality import EnokiLocality
        from repro.simkernel.program import Run, SendHint, Sleep, Spawn

        recorder = Recorder()
        session = (KernelBuilder("smp:4").with_enoki(
            "locality", policy=POLICY, recorder=recorder).build())
        kernel, sched = session.kernel, session.shim.scheduler

        def member():
            yield Sleep(50_000)
            yield Run(20_000)

        def parent():
            for group in (1, 2):
                for _ in range(2):
                    pid = yield Spawn(member)
                    yield SendHint({"tid": pid, "locality": group})
            yield Run(10_000)

        kernel.spawn(parent, policy=POLICY)
        kernel.run_until_idle()
        recorder.stop()
        assert sched.hints_seen == 4

        path = tmp_path / "locality.jsonl"
        recorder.save(str(path))
        engine = ReplayEngine(lambda: EnokiLocality(4, POLICY),
                              load_trace(str(path)))
        result = engine.run_sequential()
        assert result.matched, result.divergences[:3]

    def test_recorded_timer_outputs_present(self):
        """Shinjuku's resched-timer arms land in the trace as outputs."""
        from repro.schedulers.shinjuku import EnokiShinjuku
        from repro.simkernel.program import Run

        recorder = Recorder()
        kernel = (KernelBuilder("smp:1").with_enoki(
            "shinjuku", policy=POLICY, recorder=recorder, worker_cpus=[0])
            .build().kernel)

        def prog():
            yield Run(100_000)

        kernel.spawn(prog, policy=POLICY)
        kernel.spawn(prog, policy=POLICY)
        kernel.run_until_idle()
        recorder.stop()
        outputs = [e for e in recorder.entries if e["kind"] == "output"
                   and e["channel"] == "timer"]
        assert outputs
        # And the Shinjuku policy replays cleanly.
        engine = ReplayEngine(
            lambda: EnokiShinjuku(1, POLICY, worker_cpus=[0]),
            recorder.entries)
        assert engine.run_sequential().matched


# ----------------------------------------------------------------------
# the three ways to replay one log agree
# ----------------------------------------------------------------------

#: case -> (scheduler, tasks send hints, stop recording for a live upgrade
#: at this virtual time): the fuzz pool's recordable schedulers
REPLAY_CASES = {
    "wfq": ("wfq", False, 0),
    "fifo": ("fifo", False, 0),
    "eevdf": ("eevdf", False, 0),
    "serverless": ("serverless", False, 0),
    "hints": ("serverless", True, 0),
    "upgrade": ("wfq", False, 700_000),
}


def record_episode(sched, hints=False, upgrade_at_ns=0, nr_cpus=2):
    """A fuzz-shaped episode (bursts, sleeps, yields, hints) on a recorded
    Enoki module; returns ``(session, recorder)`` with recording stopped.

    The recorder refuses a live upgrade while it is active (section 3.4),
    so the upgrade case records up to the upgrade, stops, and upgrades:
    the log is the outgoing module's whole life."""
    recorder = Recorder()
    session = (KernelBuilder(topology=f"smp:{nr_cpus}", seed=23)
               .with_native("cfs", policy=0, priority=5)
               .with_enoki(sched, policy=POLICY, priority=10,
                           recorder=recorder)
               .build())

    def program(index):
        def prog():
            for phase in range(4 + index):
                if hints:
                    yield SendHint({"expected_ns": 20_000 * (1 + index)},
                                   policy=POLICY)
                yield Run(30_000 + 17_000 * index)
                if hints:
                    yield SendHint({"tid": None, "seq": phase},
                                   policy=POLICY)
                if (phase + index) % 3 == 0:
                    yield YieldCpu()
                if index % 2:
                    yield Sleep(25_000 + 5_000 * phase)
        return prog

    for index in range(5):
        session.spawn(program(index), origin_cpu=index % nr_cpus)
    if upgrade_at_ns:
        session.kernel.run_until(upgrade_at_ns)
        recorder.stop()
        upgrades = session.schedule_upgrade(session.kernel.now + 1_000)
    session.run_until_idle(max_events=500_000)
    recorder.stop()
    if upgrade_at_ns:
        assert [r.aborted for r in upgrades.reports] == [False]
    return session, recorder


def summary(result):
    return (result.calls_replayed,
            [(d.seq, d.function) for d in result.divergences])


class TestReplayModesAgree:
    @pytest.mark.parametrize("case", sorted(REPLAY_CASES))
    def test_memory_file_and_threaded_agree(self, case, tmp_path):
        sched, hints, upgrade_at_ns = REPLAY_CASES[case]
        session, recorder = record_episode(sched, hints, upgrade_at_ns)
        entries = recorder.entries
        factory = session.scheduler_factory
        calls = sum(1 for e in entries if e["kind"] == "call")
        assert calls > 50
        if hints:
            assert any(e["kind"] == "hint" for e in entries)

        path = tmp_path / "episode.jsonl"
        recorder.save(str(path))
        in_memory = ReplayEngine(factory, entries).run_sequential()
        from_file = ReplayEngine(factory,
                                 load_trace(str(path))).run_sequential()
        threaded = ReplayEngine(factory, entries).run_threaded()
        assert summary(in_memory) == (calls, [])
        assert summary(from_file) == summary(in_memory)
        assert summary(threaded) == summary(in_memory)
        assert threaded.lock_ops_replayed == sum(
            1 for e in entries if e["kind"] == "lock")

    def test_planted_divergence_is_reported_at_the_same_seq(self, tmp_path):
        """Every mode reports the divergence where the log first asks the
        planted placement for a CPU it would not have chosen."""
        recorder, _ = run_recorded_workload()
        entries = recorder.entries

        class FarPlacer(EnokiFifo):
            def select_task_rq(self, pid, prev_cpu, waker_cpu,
                               wake_flags, allowed_cpus):
                return self.nr_cpus - 1

        wrong = [e["seq"] for e in entries if e["kind"] == "call"
                 and e["msg"]["type"] == "MsgSelectTaskRq"
                 and e["response"] != 1]
        assert wrong
        path = tmp_path / "trace.jsonl"
        recorder.save(str(path))
        for log in (entries, load_trace(str(path))):
            result = ReplayEngine(lambda: FarPlacer(2, POLICY),
                                  log).run_sequential()
            placed = [d.seq for d in result.divergences
                      if d.function == "select_task_rq"]
            assert placed == wrong
            assert result.divergences[0].seq == wrong[0]
            assert result.calls_replayed == sum(
                1 for e in entries if e["kind"] == "call")

    def test_sequential_replay_runs_on_the_frameworks_own_lock(self):
        """A policy that takes its state lock twice raises under sequential
        replay what it raises live: same lock class, same error."""
        recorder, _ = run_recorded_workload()
        seen = []

        class Reacquirer(EnokiFifo):
            def task_wakeup(self, *args):
                seen.append(type(self.lock))
                with self.lock:
                    with self.lock:
                        pass

        engine = ReplayEngine(lambda: Reacquirer(2, POLICY),
                              recorder.entries)
        with pytest.raises(EnokiError, match="self-deadlock") as replayed:
            engine.run_sequential()
        assert seen == [EnokiSpinLock]

        # Live, the same raise lands in the containment boundary.
        _, kernel = run_recorded_workload(sched=Reacquirer)
        panic = kernel._class_by_policy[POLICY].containment.panics[0]
        assert panic.hook == "task_wakeup"
        assert f"EnokiError: {replayed.value}" in panic.detail
        assert seen == [EnokiSpinLock] * (1 + kernel.stats.contained_panics)


# ----------------------------------------------------------------------
# logs that are wrong: bounded, named failures
# ----------------------------------------------------------------------

class TwoLockFifo(EnokiFifo):
    """FIFO with a second lock around its placement decision, so a log
    has two acquisition orders that can disagree with each other."""

    def module_init(self):
        super().module_init()
        self.placement_lock = self.env.create_lock("placement")

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        with self.placement_lock:
            return super().select_task_rq(pid, prev_cpu, waker_cpu,
                                          wake_flags, allowed_cpus)


def run_in_thread(fn, timeout=10.0):
    """``fn()`` on a daemon thread: its result or exception, or a test
    failure when it is still running after ``timeout`` (a hang)."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "threaded replay hung"
    if "error" in box:
        raise box["error"]
    return box["result"]


class TestThreadedReplayTerminates:
    def record_two_locks(self):
        recorder, _ = run_recorded_workload(sched=TwoLockFifo)
        return copy.deepcopy(recorder.entries)

    def test_faithful_two_lock_log_replays(self):
        entries = self.record_two_locks()
        result = run_in_thread(ReplayEngine(
            lambda: TwoLockFifo(2, POLICY), entries).run_threaded)
        assert result.matched and result.calls_replayed > 20

    def test_swapped_lock_order_raises_instead_of_hanging(self):
        """Two acquire entries trade places across the two locks' orders:
        each order now waits for a thread that makes one acquisition
        fewer than it lists, which the parent waited on forever."""
        entries = self.record_two_locks()
        acquires = [e for e in entries
                    if e["kind"] == "lock" and e["op"] == "acquire"]
        state_lock, placement_lock = sorted(
            {e["lock_id"] for e in acquires})
        first = next(e for e in acquires if e["lock_id"] == state_lock)
        second = next(e for e in acquires
                      if e["lock_id"] == placement_lock
                      and e["thread"] != first["thread"])
        first["thread"], second["thread"] = (second["thread"],
                                             first["thread"])
        engine = ReplayEngine(lambda: TwoLockFifo(2, POLICY), entries)
        with pytest.raises(ReplayMismatch) as caught:
            run_in_thread(engine.run_threaded)
        # Which thread gives up first, and over which of the two ways a
        # turn cannot come, depends on how far the other one got.
        message = str(caught.value)
        assert "replay lock" in message and "belongs to thread" in message
        assert "has finished; thread" in message or "deadlock" in message

    def test_divergent_scheduler_raises_instead_of_hanging(self):
        """A policy that stops taking its lock leaves the recorded order
        waiting for acquisitions that never come."""
        recorder, _ = run_recorded_workload()

        class LockFreeIdle(EnokiFifo):
            def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
                return None

        engine = ReplayEngine(lambda: LockFreeIdle(2, POLICY),
                              recorder.entries)
        with pytest.raises(ReplayMismatch, match="has finished"):
            run_in_thread(engine.run_threaded)

    def test_threads_all_waiting_for_each_other_is_a_deadlock(self):
        """The other way a turn cannot come: its thread is alive but
        waits, like every other, for a turn of its own."""
        env = replay_mod._ThreadedReplayEnv(
            {1: [1, 0], 2: [0, 1]}, [], threads=(0, 1))
        first, second = env.create_lock(), env.create_lock()
        errors = {}

        def thread_zero():
            replay_mod._replay_tls.thread = 0
            try:
                first.acquire()           # thread 1 goes first here
            except ReplayMismatch as exc:
                errors[0] = str(exc)

        other = threading.Thread(target=thread_zero, daemon=True)
        other.start()
        while env.waiting != 1:
            other.join(0.001)
        replay_mod._replay_tls.thread = 1
        try:
            with pytest.raises(ReplayMismatch) as caught:
                second.acquire()          # and thread 0 goes first here
        finally:
            del replay_mod._replay_tls.thread
        assert "replay lock 2: acquisition 1 of 2 belongs to thread 0" in (
            str(caught.value))
        assert "deadlock" in str(caught.value)
        env.thread_done(1)
        other.join(10.0)
        assert not other.is_alive()
        assert "belongs to thread 1, which has finished; thread 0" in (
            errors[0])

    def test_each_replay_thread_sees_its_own_thread_id(self):
        """Replay threads dispatch concurrently, so the env's thread id
        must be per thread: each pick sees the CPU it was recorded on."""

        class ThreadSeeingFifo(EnokiFifo):
            def module_init(self):
                super().module_init()
                self.seen = []

            def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
                # After the lock: while this thread waited for its turn,
                # the others dispatched.
                picked = super().pick_next_task(cpu, curr_pid, curr_runtime,
                                                runtimes)
                self.seen.append((cpu, self.env.current_thread))
                return picked

        recorder, _ = run_recorded_workload(nr_cpus=4, rounds=40)
        engine = ReplayEngine(lambda: ThreadSeeingFifo(4, POLICY),
                              recorder.entries)
        libs = []
        build = engine._build_lib

        def capture(env):
            libs.append(build(env))
            return libs[-1]

        engine._build_lib = capture
        result = run_in_thread(engine.run_threaded)
        assert result.matched, result.divergences[:3]
        lib, = libs
        seen = lib.scheduler.seen
        assert len({cpu for cpu, _ in seen}) > 1
        assert all(cpu == thread for cpu, thread in seen)
        assert lib.rwlock.readers == 0
        assert lib.rwlock.read_acquisitions == result.calls_replayed

    def test_scheduler_error_in_a_replay_thread_reaches_the_caller(self):
        recorder, _ = run_recorded_workload()

        class Crashes(EnokiFifo):
            def task_wakeup(self, *args):
                raise EnokiError("planted crash")

        engine = ReplayEngine(lambda: Crashes(2, POLICY), recorder.entries)
        with pytest.raises(EnokiError, match="planted crash"):
            run_in_thread(engine.run_threaded)


class TestMalformedLogs:
    def saved(self, tmp_path):
        recorder, _ = run_recorded_workload()
        path = tmp_path / "trace.jsonl"
        recorder.save(str(path))
        return path

    def test_truncated_file_names_the_line(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:40] + [lines[40][:25]]) + "\n")
        with pytest.raises(RecordError,
                           match=r"trace\.jsonl:41: not JSON"):
            load_trace(str(path))

    def test_garbled_and_non_object_lines(self, tmp_path):
        path = self.saved(tmp_path)
        lines = path.read_text().splitlines()
        for bad in ("{\"kind\": \"call\", ]", "[1, 2]", "42"):
            path.write_text("\n".join(lines[:3] + [bad] + lines[3:]))
            with pytest.raises(RecordError, match=r"trace\.jsonl:4: "):
                load_trace(str(path))

    @pytest.mark.parametrize("mode", ["sequential", "threaded"])
    @pytest.mark.parametrize("damage", [
        lambda e: e.pop("kind"),
        lambda e: e.update(kind="call_v2"),
        lambda e: e["msg"].update(type="MsgNoSuch"),
        lambda e: e["msg"].pop("type"),
        lambda e: e["msg"]["fields"].update(no_such_field=1),
        lambda e: e["msg"]["fields"].popitem(),
        lambda e: e.pop("msg"),
        lambda e: e.pop("thread"),
        lambda e: e.pop("response"),
    ])
    def test_damaged_entry_raises_replay_mismatch_with_seq(self, mode,
                                                           damage):
        recorder, _ = run_recorded_workload()
        entries = copy.deepcopy(recorder.entries)
        victim = [e for e in entries if e["kind"] == "call"][10]
        damage(victim)
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY), entries)
        with pytest.raises(ReplayMismatch,
                           match=f"seq {victim['seq']}") as caught:
            run_in_thread(engine.run_threaded if mode == "threaded"
                          else engine.run_sequential)
        assert "malformed record entry" in str(caught.value)

    def test_damaged_lock_entry_raises_from_threaded_analysis(self):
        recorder, _ = run_recorded_workload()
        entries = copy.deepcopy(recorder.entries)
        victim = next(e for e in entries if e["kind"] == "lock")
        del victim["op"]
        engine = ReplayEngine(lambda: EnokiFifo(2, POLICY), entries)
        with pytest.raises(ReplayMismatch, match=f"seq {victim['seq']}"):
            engine.run_threaded()
