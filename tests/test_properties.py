"""Property-based tests (hypothesis) on core data structures and
invariants."""

import contextlib
import dataclasses
import json
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import geomean, percentile, stddev
from repro.core import messages as msgs
from repro.core.errors import RecordError
from repro.core.hints import RingBuffer
from repro.core.schedulable import Schedulable, TokenRegistry
from repro.schedulers.serverless import LONG, EnokiServerless
from repro.schedulers.wfq import EnokiWfq
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
            assert registry.spend(token)
            assert not registry.is_valid(token)
            assert registry.peek(pid) is None

    @given(st.lists(st.tuples(st.integers(1, 20), st.integers(0, 7)),
                    min_size=1, max_size=100), st.data())
    def test_spend_is_true_exactly_when_is_valid_was(self, issues, data):
        registry = TokenRegistry()
        tokens = [registry.issue(pid, cpu) for pid, cpu in issues]
        tokens += [TokenRegistry().issue(1, 0), None, "token"]
        for token in data.draw(st.permutations(tokens)):
            cpu = data.draw(st.sampled_from((None, *range(8))))
            live = registry.is_valid(token)
            valid = registry.is_valid(token, cpu)
            assert registry.spend(token, cpu) == valid
            # spent when valid, untouched otherwise
            assert registry.is_valid(token) == (live and not valid)

    def test_pid_and_cpu_are_read_only(self):
        token = TokenRegistry().issue(3, 1)
        for name in ("pid", "cpu"):
            with pytest.raises(AttributeError):
                setattr(token, name, 0)
        assert (token.pid, token.cpu) == (3, 1)


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
        from repro.exp import KernelBuilder
        from repro.simkernel.program import Run, Sleep
        from repro.simkernel.task import TaskState

        kernel = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
                  .with_enoki("wfq").build().kernel)

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
        from repro.exp import KernelBuilder
        from repro.simkernel.program import Run, YieldCpu
        from repro.simkernel.task import TaskState

        kernel = (KernelBuilder(f"smp:{nr_cpus}").with_enoki("wfq")
                  .build().kernel)

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
        from repro.core import Recorder, ReplayEngine
        from repro.exp import KernelBuilder
        from repro.simkernel.program import Run, Sleep

        recorder = Recorder()
        session = (KernelBuilder(f"smp:{nr_cpus}")
                   .with_enoki(which, recorder=recorder).build())
        kernel = session.kernel

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

        engine = ReplayEngine(session.scheduler_factory, recorder.entries)
        result = engine.run_sequential()
        assert result.matched, result.divergences[:2]


# ----------------------------------------------------------------------
# the record codec (core/messages.py)
# ----------------------------------------------------------------------

_ints = st.integers(-(1 << 40), 1 << 40)
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
    """The record codec as it was before the bulk getter: one
    ``getattr`` and one ``isinstance`` per field of the message.  Kept as
    the oracle."""
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
        args = tuple(values[name] for name in cls._ARG_NAMES)

        record = msgs.encode_call(cls.FUNCTION, args)
        oracle = _field_loop_record(message)
        assert record == oracle
        # the log is written with json.dumps: key order is part of it
        assert json.dumps(record) == json.dumps(oracle)

        wire = json.loads(json.dumps(record))
        replayed = TokenRegistry()
        func, rebuilt = msgs.decode_call(
            wire, lambda d: replayed.issue(d["pid"], d["cpu"]))
        assert func == cls.FUNCTION
        assert len(rebuilt) == len(cls._ARG_NAMES)
        assert wire == json.loads(json.dumps(record)), "record mutated"
        for name, got in zip(cls._ARG_NAMES, rebuilt):
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
        record = msgs.encode_call(
            cls.FUNCTION, tuple(values[name] for name in cls._ARG_NAMES))
        fields = dict(record["fields"])
        if fields and data.draw(st.booleans()):
            del fields[data.draw(st.sampled_from(sorted(fields)))]
        else:
            fields["no_such_field"] = 0
            if len(fields) > 1 and data.draw(st.booleans()):
                # same count, one name wrong
                del fields[data.draw(st.sampled_from(cls._ARG_NAMES))]
        with pytest.raises(RecordError):
            msgs.decode_call(
                {"type": record["type"], "fields": fields}, None)

    def test_unknown_type_and_shapeless_records_raise_record_error(self):
        for record in ({"type": "MsgNoSuch", "fields": {}},
                       {"fields": {}}, {"type": "MsgBalance"},
                       {"type": "MsgBalance", "fields": None}, None, 7,
                       {"type": "MsgPntErr",
                        "fields": {"cpu": 0, "pid": 1, "err": 0,
                                   "sched": {"pid": 1, "cpu": 0}}}):
            with pytest.raises(RecordError):
                msgs.decode_call(record, lambda d: d)


@st.composite
def _placement(draw):
    """A machine state for ``select_task_rq``: per-CPU queue depths (two
    queues, for serverless), the CPUs running something, the answer's
    ``prev_cpu`` (in range or not) and an allowed mask, in any order."""
    nr = draw(st.integers(1, 6))
    depths = st.lists(st.integers(0, 2), min_size=nr, max_size=nr)
    allowed = draw(st.none() | st.lists(
        st.integers(0, nr - 1), min_size=1, max_size=nr, unique=True))
    return (nr, draw(depths), draw(depths),
            draw(st.sets(st.integers(0, nr - 1))),
            draw(st.integers(-1, nr)), allowed)


def _fill(queues, depths):
    for cpu, depth in enumerate(depths):
        for i in range(depth):
            queues.push(cpu, i, (cpu, i, id(queues)), None)


def _wfq_reference(policy, prev_cpu, allowed_cpus):
    """``EnokiWfq.select_task_rq`` as it was written with ``min``."""
    candidates = (list(allowed_cpus) if allowed_cpus is not None
                  else list(range(policy.nr_cpus)))
    queues = policy.queues.cpus

    def busy(cpu):
        return cpu in policy.current

    if (prev_cpu in candidates and not busy(prev_cpu)
            and not queues.get(prev_cpu)):
        return prev_cpu
    for cpu in candidates:
        if not busy(cpu) and not queues[cpu]:
            return cpu
    return min(candidates, key=lambda c: (len(queues[c]) + busy(c)))


def _serverless_reference(policy, prev_cpu, allowed_cpus):
    """``EnokiServerless.select_task_rq`` as it was written with ``min``."""
    candidates = (list(allowed_cpus) if allowed_cpus is not None
                  else list(range(policy.nr_cpus)))

    def load(cpu):
        return (len(policy.short_queues.cpus[cpu])
                + len(policy.long_queues.cpus[cpu])
                + (1 if cpu in policy.current else 0))

    if prev_cpu in candidates and load(prev_cpu) == 0:
        return prev_cpu
    return min(candidates, key=lambda c: (load(c), c))


class TestPlacementProperties:
    """The inlined placement loops choose exactly what the ``min(...,
    key=...)`` expressions they replaced chose, ties included."""

    @given(_placement())
    def test_wfq_matches_its_min_expression(self, drawn):
        nr, depths, _long, running, prev_cpu, allowed = drawn
        policy = EnokiWfq(nr)
        policy.lock = contextlib.nullcontext()
        _fill(policy.queues, depths)
        policy.current = {cpu: (100 + cpu, 0) for cpu in running}
        assert (policy.select_task_rq(1, prev_cpu, -1, 0, allowed)
                == _wfq_reference(policy, prev_cpu, allowed))

    @given(_placement())
    def test_serverless_matches_its_min_expression(self, drawn):
        nr, short, long_, running, prev_cpu, allowed = drawn
        policy = EnokiServerless(nr)
        policy.lock = contextlib.nullcontext()
        _fill(policy.short_queues, short)
        _fill(policy.long_queues, long_)
        policy.current = {cpu: (100 + cpu, 0) for cpu in running}
        assert (policy.select_task_rq(1, prev_cpu, -1, 0, allowed)
                == _serverless_reference(policy, prev_cpu, allowed))


@st.composite
def _fold_case(draw):
    """``(last_runtime, runtimes)``: each queued pid's runtime is the one
    last seen, a moved one, or the first one seen."""
    pids = draw(st.lists(st.integers(1, 12), unique=True, max_size=8))
    runtime = st.integers(0, 10_000)
    last = {pid: draw(runtime) for pid in pids if draw(st.booleans())}
    runtimes = {pid: (last[pid] if pid in last and draw(st.booleans())
                      else draw(runtime)) for pid in pids}
    return last, runtimes


class TestPickFoldProperties:
    """A pick folds the queued runtimes exactly as observing every one of
    them would: a moved runtime and a pid with no entry yet change the
    policy's view, an unchanged runtime is a no-op."""

    @staticmethod
    def _wfq(last):
        policy = EnokiWfq(1)
        policy.lock = contextlib.nullcontext()
        policy.last_runtime = dict(last)
        policy.vruntime = {pid: 100 for pid in last}
        policy.weights = {pid: weight_for_nice(pid % 5) for pid in last}
        return policy

    @staticmethod
    def _serverless(last):
        policy = EnokiServerless(1)
        policy.lock = contextlib.nullcontext()
        policy.last_runtime = dict(last)
        policy.classes = {pid: LONG for pid in last if pid % 2}
        return policy

    def test_a_moved_runtime_and_a_new_pid_are_folded(self):
        runtimes = {1: 1_000, 2: 700, 3: 50}
        wfq = self._wfq({1: 400, 2: 700})
        assert wfq.pick_next_task(0, None, None, runtimes) is None
        assert wfq.last_runtime == runtimes
        assert wfq.vruntime[1] == 100 + 600 * 1024 // weight_for_nice(1)
        serverless = self._serverless({1: 400, 2: 700})
        assert serverless.pick_next_task(0, None, None, runtimes) is None
        assert serverless.last_runtime == runtimes
        assert serverless.vruntime == {1: 600}

    @given(_fold_case())
    def test_wfq_pick_folds_as_observing_each(self, case):
        last, runtimes = case
        policy, reference = self._wfq(last), self._wfq(last)
        for pid, runtime in runtimes.items():
            reference._observe_runtime(pid, runtime)
        assert policy.pick_next_task(0, None, None, runtimes) is None
        assert policy.last_runtime == reference.last_runtime
        assert policy.vruntime == reference.vruntime

    @given(_fold_case())
    def test_serverless_pick_folds_as_observing_each(self, case):
        last, runtimes = case
        policy, reference = self._serverless(last), self._serverless(last)
        for pid, runtime in runtimes.items():
            reference._observe(pid, runtime)
        assert policy.pick_next_task(0, None, None, runtimes) is None
        assert policy.last_runtime == reference.last_runtime
        assert policy.vruntime == reference.vruntime
