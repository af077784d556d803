"""Tests for the record-and-replay system (paper section 3.4)."""

import pytest

from repro.core import EnokiSchedClass, Recorder, ReplayEngine, load_trace
from repro.core.errors import ReplayMismatch
from repro.core.replay import Divergence
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel import Kernel, Pipe, SimConfig, Topology
from repro.simkernel.program import PipeRead, PipeWrite, Run, Sleep

POLICY = 7


def run_recorded_workload(nr_cpus=2, rounds=15):
    """Run a pipe ping-pong under a recorded Enoki FIFO; returns the
    recorder and the kernel."""
    recorder = Recorder()
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    sched = EnokiFifo(nr_cpus, POLICY)
    EnokiSchedClass.register(kernel, sched, POLICY, recorder=recorder)
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
        assert len(recorder._ring) == 2 and recorder.dropped == 0
        assert len(recorder.entries) == 10
        # A drain batch the ring cannot hold: entries past capacity drop.
        recorder = Recorder(capacity=4, drain_batch=8)
        for i in range(10):
            recorder.note_lock_op("acquire", i, 0)
        assert recorder.log == [] and recorder.dropped == 6
        assert [entry["seq"] for entry in recorder.entries] == [1, 2, 3, 4]

    def test_recording_slows_execution(self):
        """Section 5.8: record mode is measurably slower than normal."""
        recorder, kernel_recorded = run_recorded_workload(rounds=50)

        kernel_plain = Kernel(Topology.smp(2), SimConfig())
        sched = EnokiFifo(2, POLICY)
        EnokiSchedClass.register(kernel_plain, sched, POLICY)
        ping, pong = Pipe(), Pipe()

        def a():
            for _ in range(50):
                yield PipeWrite(ping, b"x")
                yield PipeRead(pong)

        def b():
            for _ in range(50):
                yield PipeRead(ping)
                yield PipeWrite(pong, b"y")

        kernel_plain.spawn(a, policy=POLICY)
        kernel_plain.spawn(b, policy=POLICY)
        kernel_plain.run_until_idle()
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

    def test_divergence_reports_are_informative(self):
        divergence = Divergence(seq=9, function="pick_next_task",
                                expected={"pid": 1}, actual=None)
        assert divergence.seq == 9
        assert divergence.function == "pick_next_task"


class TestReplayWithHints:
    def test_hint_messages_replay(self, tmp_path):
        """parse_hint calls are part of the recorded sequence; a replay
        rebuilds the same group->core bindings."""
        from repro.schedulers.locality import EnokiLocality
        from repro.simkernel.program import Run, SendHint, Sleep, Spawn

        recorder = Recorder()
        kernel = Kernel(Topology.smp(4), SimConfig())
        sched = EnokiLocality(4, POLICY)
        EnokiSchedClass.register(kernel, sched, POLICY, recorder=recorder)

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
        kernel = Kernel(Topology.smp(1), SimConfig())
        sched = EnokiShinjuku(1, POLICY, worker_cpus=[0])
        EnokiSchedClass.register(kernel, sched, POLICY, recorder=recorder)

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
