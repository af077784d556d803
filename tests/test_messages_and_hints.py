"""Unit tests: message serialisation, hint queues, rwlock, analysis."""

import pytest

from repro.analysis.stats import geomean, percentile, summarize
from repro.analysis.tables import render_table
from repro.core import messages as msgs
from repro.core.errors import QueueError, UpgradeError
from repro.core.hints import QueueRegistry, RevMessage, RingBuffer, UserMessage
from repro.core.rwlock import SchedulerRwLock
from repro.core.schedulable import TokenRegistry


class TestMessageSerialisation:
    def test_roundtrip_plain_message(self):
        args = (4, 123, 9, 2, False)
        record = msgs.encode_call("task_blocked", args)
        assert record == {"type": "MsgTaskBlocked", "fields": {
            "pid": 4, "runtime": 123, "cpu_seqnum": 9, "cpu": 2,
            "from_switchto": False}}
        registry = TokenRegistry()
        rebuilt = msgs.decode_call(
            record, lambda d: registry.issue(d["pid"], d["cpu"]))
        assert rebuilt == ("task_blocked", args)

    def test_roundtrip_with_token(self):
        registry = TokenRegistry()
        token = registry.issue(7, 3)
        record = msgs.encode_call("task_wakeup", (7, 0, True, 1, 3, 0, token))
        assert record["fields"]["sched"]["__schedulable__"]["pid"] == 7

        replay_registry = TokenRegistry()
        func, args = msgs.decode_call(
            record,
            lambda d: replay_registry.issue(d["pid"], d["cpu"]))
        assert func == "task_wakeup"
        assert args[:6] == (7, 0, True, 1, 3, 0)
        assert args[6].pid == 7
        assert args[6].cpu == 3

    def test_function_names_match_trait(self):
        from repro.core.trait import EnokiScheduler
        for name, klass in msgs._MESSAGE_TYPES.items():
            assert hasattr(EnokiScheduler, klass.FUNCTION), klass.FUNCTION

    def test_response_serialisation(self):
        registry = TokenRegistry()
        token = registry.issue(1, 0)
        out = msgs.response_to_record(token)
        assert out == {"__schedulable__": {"pid": 1, "cpu": 0, "gen": 1}}
        assert msgs.response_to_record((1, 2)) == [1, 2]
        assert msgs.response_to_record(None) is None


class TestQueueRegistry:
    def test_register_and_route_by_tgid(self):
        registry = QueueRegistry()
        ring = RingBuffer(16)
        registry.add_rev_queue(5, ring, tgid=42)
        assert registry.rev_queue_for_tgid(42) is ring
        assert registry.rev_queue_for_tgid(43) is None

    def test_double_registration_rejected(self):
        registry = QueueRegistry()
        registry.add_user_queue(1, RingBuffer(4))
        with pytest.raises(QueueError):
            registry.add_user_queue(1, RingBuffer(4))

    def test_messages_are_frozen(self):
        message = UserMessage(1, {"a": 1})
        with pytest.raises(AttributeError):
            message.pid = 2
        rev = RevMessage("x")
        with pytest.raises(AttributeError):
            rev.payload = "y"


class TestRwLock:
    def test_read_shared(self):
        lock = SchedulerRwLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        assert lock.readers == 2
        lock.release_read()
        lock.release_read()
        assert lock.readers == 0

    def test_write_excludes_reads(self):
        lock = SchedulerRwLock()
        assert lock.try_acquire_write()
        assert not lock.acquire_read()
        lock.release_write()
        assert lock.acquire_read()

    def test_write_requires_no_readers(self):
        lock = SchedulerRwLock()
        lock.acquire_read()
        assert not lock.try_acquire_write()
        lock.release_read()
        assert lock.try_acquire_write()

    def test_release_underflow_raises(self):
        lock = SchedulerRwLock()
        with pytest.raises(UpgradeError):
            lock.release_read()
        with pytest.raises(UpgradeError):
            lock.release_write()


class TestAnalysis:
    def test_percentile_nearest_rank(self):
        assert percentile([1, 2, 3, 4], 50) == 2
        assert percentile([5], 99) == 5

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])

    def test_summarize(self):
        out = summarize([1, 2, 3, 100])
        assert out["max"] == 100
        assert out["count"] == 4

    def test_render_table(self):
        text = render_table("T", ["a", "bb"], [[1, 2.5], ["x", "y"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "bb" in lines[2]
        assert "2.50" in text
