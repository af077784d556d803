"""Property-based tests (hypothesis) on core data structures and
invariants."""

import dataclasses
import json
from typing import Any, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import geomean, percentile, stddev
from repro.core import messages as msgs
from repro.core.errors import RecordError
from repro.core.hints import RingBuffer
from repro.core.schedulable import Schedulable, TokenRegistry
from repro.simkernel.clock import Clock
from repro.simkernel.events import EventQueue
from repro.simkernel.semaphore import Semaphore
from repro.simkernel.task import NICE_TO_WEIGHT, weight_for_nice


class TestRingBufferProperties:
    @given(st.integers(1, 64), st.lists(st.integers(), max_size=200))
    def test_never_exceeds_capacity(self, capacity, items):
        ring = RingBuffer(capacity)
        for item in items:
            ring.push(item)
        assert len(ring) <= capacity
        assert ring.pushed + ring.dropped == len(items)

    @given(st.integers(1, 64), st.lists(st.integers(), max_size=200))
    def test_fifo_order_of_accepted(self, capacity, items):
        ring = RingBuffer(capacity)
        accepted = []
        for item in items:
            if ring.push(item):
                accepted.append(item)
        assert ring.drain() == accepted

    @given(st.lists(st.integers(), min_size=1, max_size=100),
           st.integers(1, 50))
    def test_drain_limit(self, items, limit):
        ring = RingBuffer(1024)
        for item in items:
            ring.push(item)
        out = ring.drain(limit)
        assert len(out) == min(limit, len(items))
        assert out == items[:len(out)]


class TestTokenRegistryProperties:
    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 7)),
                    min_size=1, max_size=100))
    def test_only_latest_token_is_valid(self, issues):
        registry = TokenRegistry()
        latest = {}
        tokens = []
        for pid, cpu in issues:
            token = registry.issue(pid, cpu)
            tokens.append(token)
            latest[pid] = token
        for token in tokens:
            expected = latest[token.pid] is token
            assert registry.is_valid(token) == expected

    @given(st.lists(st.tuples(st.integers(1, 10), st.integers(0, 3)),
                    min_size=1, max_size=60))
    def test_consume_then_invalid(self, issues):
        registry = TokenRegistry()
        for pid, cpu in issues:
            token = registry.issue(pid, cpu)
            registry.consume(token)
            assert not registry.is_valid(token)
            assert registry.peek(pid) is None


class TestEventQueueProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=200))
    def test_delivery_is_time_sorted(self, times):
        queue = EventQueue(Clock())
        fired = []
        for t in times:
            queue.at(t, lambda now=t: fired.append(now))
        queue.run_until_idle()
        assert fired == sorted(times)
        assert queue.clock.now == max(times)

    @given(st.lists(st.integers(0, 1_000), min_size=2, max_size=100),
           st.integers(0, 99))
    def test_cancellation_removes_exactly_one(self, times, cancel_index):
        queue = EventQueue(Clock())
        fired = []
        handles = [queue.at(t, lambda i=i: fired.append(i))
                   for i, t in enumerate(times)]
        victim = cancel_index % len(handles)
        queue.cancel(handles[victim])
        queue.run_until_idle()
        assert victim not in fired
        assert len(fired) == len(times) - 1


class TestSemaphoreProperties:
    @given(st.lists(st.booleans(), max_size=200))
    def test_value_never_negative(self, ops):
        sem = Semaphore(0)
        downs_granted = 0
        ups = 0
        for is_up in ops:
            if is_up:
                sem.up()
                ups += 1
            else:
                if sem.try_down():
                    downs_granted += 1
        assert sem.value >= 0
        assert sem.value == ups - downs_granted


class TestWeightTableProperties:
    @given(st.integers(-20, 19))
    def test_monotonic_in_priority(self, nice):
        if nice < 19:
            assert weight_for_nice(nice) > weight_for_nice(nice + 1)

    def test_table_is_strictly_decreasing(self):
        assert list(NICE_TO_WEIGHT) == sorted(NICE_TO_WEIGHT, reverse=True)


class TestStatsProperties:
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
    def test_percentile_bounds(self, samples):
        assert percentile(samples, 0) == min(samples)
        assert percentile(samples, 100) == max(samples)
        p50 = percentile(samples, 50)
        assert min(samples) <= p50 <= max(samples)

    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=300),
           st.integers(0, 100), st.integers(0, 100))
    def test_percentile_monotone(self, samples, a, b):
        lo, hi = min(a, b), max(a, b)
        assert percentile(samples, lo) <= percentile(samples, hi)

    @given(st.lists(st.floats(0.001, 1e6), min_size=1, max_size=50))
    def test_geomean_between_min_and_max(self, values):
        g = geomean(values)
        assert min(values) * 0.999 <= g <= max(values) * 1.001

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_stddev_nonnegative(self, values):
        assert stddev(values) >= 0


class TestSchedulingInvariantProperties:
    """End-to-end invariants over randomly generated workloads."""

    @settings(max_examples=20, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(1_000, 200_000),      # run ns
                  st.integers(0, 100_000),          # sleep ns
                  st.integers(2, 5)),               # phases
        min_size=1, max_size=10,
    ), st.integers(1, 4))
    def test_all_tasks_complete_and_runtime_accounted(self, specs, nr_cpus):
        from repro.core import EnokiSchedClass
        from repro.schedulers.cfs import CfsSchedClass
        from repro.schedulers.wfq import EnokiWfq
        from repro.simkernel import Kernel, SimConfig, Topology
        from repro.simkernel.program import Run, Sleep
        from repro.simkernel.task import TaskState

        kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        EnokiSchedClass.register(kernel, EnokiWfq(nr_cpus, 7), 7,
                                 priority=10)

        def make_prog(run_ns, sleep_ns, phases):
            def prog():
                for _ in range(phases):
                    yield Run(run_ns)
                    if sleep_ns:
                        yield Sleep(sleep_ns)
            return prog

        tasks = [
            kernel.spawn(make_prog(r, s, p), policy=7)
            for r, s, p in specs
        ]
        kernel.run_until_idle(max_events=2_000_000)
        for (run_ns, _s, phases), task in zip(specs, tasks):
            assert task.state is TaskState.DEAD
            # Work conservation of accounting: every task ran at least its
            # requested CPU time.
            assert task.sum_exec_runtime_ns >= run_ns * phases

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 12), st.integers(1, 4))
    def test_no_task_lost_under_wfq(self, n_tasks, nr_cpus):
        """The scheduler-state invariant the Schedulable token protects:
        every runnable task is eventually picked."""
        from repro.core import EnokiSchedClass
        from repro.schedulers.wfq import EnokiWfq
        from repro.simkernel import Kernel, SimConfig, Topology
        from repro.simkernel.program import Run, YieldCpu
        from repro.simkernel.task import TaskState

        kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
        EnokiSchedClass.register(kernel, EnokiWfq(nr_cpus, 7), 7)

        def prog():
            yield Run(10_000)
            yield YieldCpu()
            yield Run(10_000)

        tasks = [kernel.spawn(prog, policy=7) for _ in range(n_tasks)]
        kernel.run_until_idle(max_events=1_000_000)
        assert all(t.state is TaskState.DEAD for t in tasks)


class TestRecordReplayProperties:
    """Any recorded Enoki run replays cleanly against the same code."""

    @settings(max_examples=10, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(500, 50_000),     # run ns
                  st.integers(0, 30_000),       # sleep ns
                  st.integers(1, 4)),           # phases
        min_size=1, max_size=8,
    ), st.integers(1, 3), st.sampled_from(["fifo", "wfq"]))
    def test_roundtrip_matches(self, specs, nr_cpus, which):
        from repro.core import EnokiSchedClass, Recorder, ReplayEngine
        from repro.schedulers.fifo import EnokiFifo
        from repro.schedulers.wfq import EnokiWfq
        from repro.simkernel import Kernel, SimConfig, Topology
        from repro.simkernel.program import Run, Sleep

        def factory():
            if which == "fifo":
                return EnokiFifo(nr_cpus, 7)
            return EnokiWfq(nr_cpus, 7)

        recorder = Recorder()
        kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
        EnokiSchedClass.register(kernel, factory(), 7, recorder=recorder)

        def make_prog(run_ns, sleep_ns, phases):
            def prog():
                for _ in range(phases):
                    yield Run(run_ns)
                    if sleep_ns:
                        yield Sleep(sleep_ns)
            return prog

        for r, s, p in specs:
            kernel.spawn(make_prog(r, s, p), policy=7)
        kernel.run_until_idle(max_events=500_000)
        recorder.stop()

        engine = ReplayEngine(factory, recorder.entries)
        result = engine.run_sequential()
        assert result.matched, result.divergences[:2]


# ----------------------------------------------------------------------
# the record codec (core/messages.py)
# ----------------------------------------------------------------------

_ints = st.integers(-(1 << 40), 1 << 40)
_json = st.recursive(
    st.none() | st.booleans() | _ints | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)
_cpus = st.lists(st.integers(0, 255), max_size=6).map(tuple)
#: declared field type -> values a crossing can put there; a token field
#: draws the ``(pid, cpu)`` its token is minted for (or None)
_FIELD_VALUES = {
    int: _ints,
    bool: st.booleans(),
    Optional[int]: st.none() | _ints,
    dict: st.dictionaries(st.integers(1, 1 << 20), _ints, max_size=4),
    tuple: _cpus,
    Optional[tuple]: st.none() | _cpus,
    Any: _json,
    Optional[Schedulable]: (st.none()
                            | st.tuples(st.integers(1, 1 << 20),
                                        st.integers(0, 255))),
}


@st.composite
def _messages(draw):
    """Any registered message class with drawn field values (token fields
    still as ``(pid, cpu)`` or None: the test mints them)."""
    cls = draw(st.sampled_from(sorted(msgs._MESSAGE_TYPES.values(),
                                      key=lambda c: c.__name__)))
    return cls, {f.name: draw(_FIELD_VALUES[f.type])
                 for f in dataclasses.fields(cls)}


def _field_loop_record(message):
    """``Message.to_record`` as it was before the bulk getter: one
    ``getattr`` and one ``isinstance`` per field.  Kept as the oracle."""
    payload = {}
    for name in message._ARG_NAMES:
        value = getattr(message, name)
        if isinstance(value, Schedulable):
            payload[name] = {"__schedulable__": value.describe()}
        else:
            payload[name] = value
    return {"type": type(message).__name__, "fields": payload}


class TestRecordCodecProperties:
    def test_token_fields_are_the_sched_fields(self):
        holders = {cls.__name__: cls._TOKEN_FIELDS
                   for cls in msgs._MESSAGE_TYPES.values()
                   if cls._TOKEN_FIELDS}
        assert holders == {name: ("sched",) for name in (
            "MsgPntErr", "MsgTaskNew", "MsgTaskWakeup", "MsgTaskPreempt",
            "MsgTaskYield", "MsgMigrateTaskRq", "MsgBalanceErr")}

    @settings(max_examples=300, deadline=None)
    @given(_messages())
    def test_roundtrip_and_field_loop_oracle(self, drawn):
        cls, values = drawn
        live = TokenRegistry()
        for name in cls._TOKEN_FIELDS:
            if values[name] is not None:
                values[name] = live.issue(*values[name])
        message = cls(**values)

        record = message.to_record()
        oracle = _field_loop_record(message)
        assert record == oracle
        # the log is written with json.dumps: key order is part of it
        assert json.dumps(record) == json.dumps(oracle)

        wire = json.loads(json.dumps(record))
        replayed = TokenRegistry()
        rebuilt = msgs.Message.from_record(
            wire, lambda d: replayed.issue(d["pid"], d["cpu"]))
        assert type(rebuilt) is cls
        assert wire == json.loads(json.dumps(record)), "record mutated"
        for name in cls._ARG_NAMES:
            got = getattr(rebuilt, name)
            if name in cls._TOKEN_FIELDS and values[name] is not None:
                assert isinstance(got, Schedulable)
                assert (got.pid, got.cpu) == (values[name].pid,
                                              values[name].cpu)
                assert replayed.is_valid(got) and not live.is_valid(got)
            else:
                assert got == wire["fields"][name]

    @given(_messages(), st.data())
    def test_wrong_field_sets_raise_record_error(self, drawn, data):
        cls, values = drawn
        for name in cls._TOKEN_FIELDS:
            values[name] = None
        record = cls(**values).to_record()
        fields = dict(record["fields"])
        if fields and data.draw(st.booleans()):
            del fields[data.draw(st.sampled_from(sorted(fields)))]
        else:
            fields["no_such_field"] = 0
            if len(fields) > 1 and data.draw(st.booleans()):
                # same count, one name wrong
                del fields[data.draw(st.sampled_from(cls._ARG_NAMES))]
        with pytest.raises(RecordError):
            msgs.Message.from_record(
                {"type": record["type"], "fields": fields}, None)

    def test_unknown_type_and_shapeless_records_raise_record_error(self):
        for record in ({"type": "MsgNoSuch", "fields": {}},
                       {"fields": {}}, {"type": "MsgBalance"},
                       {"type": "MsgBalance", "fields": None}, None, 7,
                       {"type": "MsgPntErr",
                        "fields": {"cpu": 0, "pid": 1, "err": 0,
                                   "sched": {"pid": 1, "cpu": 0}}}):
            with pytest.raises(RecordError):
                msgs.Message.from_record(record, lambda d: d)
