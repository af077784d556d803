"""The record log against the encoder it replaced.

The recorder used to build a message object per call, serialise it with
``Message.to_record``, and push each entry through a ``RingBuffer``.  It
now encodes ``(func, args)`` in one call (``messages.encode_call``) and
models the ring with counters.  The reference below is the old code, kept
verbatim apart from one adaptation: the two class attributes the old
``to_record`` read (``_ARG_GETTER``, ``_ARG_MULTI``) are derived here, as
the old ``_register`` derived them, because the message classes no
longer carry them.

Two things are pinned:

* **same log** — over every recordable fuzz episode shape, a hinted
  locality run and a policy that raises under the recorder, the new log
  is ``==`` the reference's, fed the same calls in the same run; each call
  entry decodes to the reference's function and arguments; panic reprs
  are unchanged;
* **same ring model** — random ``note_*`` sequences, including drain
  batches larger than the ring, leave ``log``, ``dropped``, the seq
  numbers and ``entries`` equal to the reference's after every call.
"""

import copy
import json
from operator import attrgetter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import FaultPlan, Recorder
from repro.core import messages as msgs
from repro.core.errors import RecordError
from repro.core.hints import RingBuffer
from repro.core.schedulable import Schedulable, TokenRegistry
from repro.exp import KernelBuilder
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel.program import Run, SendHint, Sleep, Spawn
from repro.verify.fuzz import _run_episode_session, generate_episode
from tests.test_faults import run_plan

POLICY = 7


# ----------------------------------------------------------------------
# the reference: the previous encoder and recorder
# ----------------------------------------------------------------------

def _old_attrs(cls):
    """``(_ARG_GETTER, _ARG_MULTI)`` as the old ``_register`` set them."""
    names = cls._ARG_NAMES
    return attrgetter(*names) if names else None, len(names) > 1


def reference_to_record(self):
    """Serialise to plain data for the record log."""
    _ARG_GETTER, _ARG_MULTI = _old_attrs(type(self))
    getter = _ARG_GETTER
    if getter is None:
        payload = {}
    elif _ARG_MULTI:
        payload = dict(zip(self._ARG_NAMES, getter(self)))
    else:
        payload = {self._ARG_NAMES[0]: getter(self)}
    for name in self._TOKEN_FIELDS:
        token = payload[name]
        if isinstance(token, Schedulable):
            payload[name] = {"__schedulable__": token.describe()}
    return {"type": type(self).__name__, "fields": payload}


def reference_from_record(record, token_minter):
    """Rebuild a message from a record entry."""
    try:
        klass = msgs._MESSAGE_TYPES[record["type"]]
        values = record["fields"]
        if len(values) != len(klass._ARG_NAMES):
            raise TypeError(
                f"{klass.__name__} takes fields {klass._ARG_NAMES}")
        if klass._TOKEN_FIELDS:
            values = dict(values)     # the entry may be replayed again
            for name in klass._TOKEN_FIELDS:
                described = values[name]
                if described is not None:
                    values[name] = token_minter(
                        described["__schedulable__"])
        return klass(**values)
    except (KeyError, TypeError) as exc:
        raise RecordError(
            f"malformed message record {record!r}: {exc!r}") from exc


def reference_response_to_record(value):
    """Serialise a dispatch response for the record log."""
    if isinstance(value, Schedulable):
        return {"__schedulable__": value.describe()}
    if isinstance(value, tuple):
        return list(value)
    return value


class ReferenceRecorder:
    """Collects the record log for one scheduler module."""

    def __init__(self, capacity=1 << 20, drain_batch=4096):
        self._ring = RingBuffer(capacity, name="record-ring")
        self._drain_batch = drain_batch
        self.log = []
        self._seq = 0
        self.active = True

    def _push(self, entry):
        if not self.active:
            return
        self._seq += 1
        entry["seq"] = self._seq
        ring = self._ring
        if ring.push(entry):
            if ring.pushed - ring.popped >= self._drain_batch:
                self.log.extend(ring.drain())

    def note_call(self, message, response, thread):
        self._push({
            "kind": "call",
            "thread": thread,
            "msg": reference_to_record(message),
            "response": reference_response_to_record(response),
        })

    def note_lock_created(self, lock_id, name):
        self._push({
            "kind": "lock_created",
            "lock_id": lock_id,
            "name": name,
        })

    def note_lock_op(self, op, lock_id, thread):
        self._push({
            "kind": "lock",
            "op": op,
            "lock_id": lock_id,
            "thread": thread,
        })

    def note_output(self, channel, payload, thread):
        self._push({
            "kind": "output",
            "channel": channel,
            "payload": payload,
            "thread": thread,
        })

    def note_hint(self, queue_id, pid, payload, thread):
        self._push({
            "kind": "hint",
            "queue_id": queue_id,
            "pid": pid,
            "payload": payload,
            "thread": thread,
        })

    def stop(self):
        self.active = False
        self.log.extend(self._ring.drain())

    @property
    def dropped(self):
        return self._ring.dropped

    @property
    def entries(self):
        self.log.extend(self._ring.drain())
        return self.log


class TeeRecorder(Recorder):
    """The recorder under test, handing every note to a reference too."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.reference = ReferenceRecorder(**kwargs)

    def note_call(self, func, args, response, thread):
        super().note_call(func, args, response, thread)
        self.reference.note_call(msgs.message_for(func)(*args), response,
                                 thread)

    def note_lock_created(self, lock_id, name):
        super().note_lock_created(lock_id, name)
        self.reference.note_lock_created(lock_id, name)

    def note_lock_op(self, op, lock_id, thread):
        super().note_lock_op(op, lock_id, thread)
        self.reference.note_lock_op(op, lock_id, thread)

    def note_output(self, channel, payload, thread):
        super().note_output(channel, payload, thread)
        self.reference.note_output(channel, payload, thread)

    def note_hint(self, queue_id, pid, payload, thread):
        super().note_hint(queue_id, pid, payload, thread)
        self.reference.note_hint(queue_id, pid, payload, thread)

    def stop(self):
        super().stop()
        self.reference.stop()


def assert_same_log(tee):
    entries = tee.entries
    assert entries, "nothing was recorded"
    assert entries == tee.reference.entries
    # the log is written with json.dumps: key order is part of it
    assert json.dumps(entries) == json.dumps(tee.reference.entries)
    assert tee.dropped == tee.reference.dropped == 0
    calls = 0
    for entry in entries:
        if entry["kind"] != "call":
            continue
        calls += 1
        # Minting a description as itself keeps tokens comparable.
        message = reference_from_record(entry["msg"], lambda d: d)
        args = tuple(getattr(message, name) for name in message._ARG_NAMES)
        assert msgs.decode_call(entry["msg"], lambda d: d) == (
            message.FUNCTION, args)
    assert calls
    return entries


# ----------------------------------------------------------------------
# (a) same log
# ----------------------------------------------------------------------

RECORDABLE = [seed for seed in range(40)
              if generate_episode(seed).recordable]


class TestSameLog:
    def test_most_episode_shapes_are_recordable(self):
        assert len(RECORDABLE) >= 20

    def test_every_recordable_episode_shape(self):
        kinds = set()
        for seed in RECORDABLE:
            tee = TeeRecorder()
            _run_episode_session(generate_episode(seed), lambda k: None,
                                 recorder=tee)
            tee.stop()
            kinds.update(e["kind"] for e in assert_same_log(tee))
        assert kinds == {"call", "lock", "lock_created", "output", "hint"}

    def test_hinted_locality_run(self):
        tee = TeeRecorder()
        session = (KernelBuilder("smp:4").with_enoki(
            "locality", policy=POLICY, recorder=tee).build())
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
        tee.stop()
        assert sched.hints_seen == 4
        entries = assert_same_log(tee)
        assert sum(1 for e in entries if e["kind"] == "hint") == 4

    def test_policy_that_raises_under_the_recorder(self):
        class WakeupCrasher(EnokiFifo):
            def task_wakeup(self, *args):
                raise RuntimeError("wakeup bug")

        def prog():
            yield Run(50_000)
            yield Sleep(30_000)
            yield Run(20_000)

        def run(recorder):
            session = (KernelBuilder("smp:2").with_enoki(
                WakeupCrasher, policy=POLICY, recorder=recorder).build())
            kernel, shim = session.kernel, session.shim
            for i in range(4):
                kernel.spawn(prog, policy=POLICY, origin_cpu=i % 2)
            kernel.run_until_idle()
            return [(p.hook, p.kind, p.message, p.strike)
                    for p in shim.containment.panics]

        tee = TeeRecorder()
        recorded = run(tee)
        tee.stop()
        assert_same_log(tee)
        assert recorded and recorded == run(None)
        assert all(p[:2] == ("task_wakeup", "exception") for p in recorded)
        assert recorded[0][2].startswith("MsgTaskWakeup(pid=")

    def test_overrun_panic_reprs(self):
        """An injected hang's panic repr, as the old encoder path wrote
        it (faults and the recorder exclude each other)."""
        _, shim, *_ = run_plan(FaultPlan.builtin("callback-hang"))
        assert [(p.hook, p.kind, p.message, p.strike, p.at_ns)
                for p in shim.containment.panics] == [
            ("task_tick", "overrun",
             "MsgTaskTick(cpu=3, queued=True, pid=8, runtime=997950)",
             1, 1001176),
            ("task_tick", "overrun",
             "MsgTaskTick(cpu=0, queued=True, pid=5, runtime=997950)",
             2, 1001306),
        ]


# ----------------------------------------------------------------------
# (b) same ring model
# ----------------------------------------------------------------------

_TOKENS = TokenRegistry()
#: (func, args, response) triples a crossing could record
_CALLS = (
    ("balance", (1,), None),
    ("task_dead", (4,), None),
    ("select_task_rq", (3, 0, 1, 0, (0, 1)), 1),
    ("pick_next_task", (0, None, None, {5: 100}), _TOKENS.issue(5, 0)),
    ("migrate_task_rq", (6, 1, _TOKENS.issue(6, 1)), (2, 3)),
    ("reregister_prepare", (), {"state": [1, 2]}),
    ("task_tick", (0, True, 9, 1_000), True),
)

_notes = st.one_of(
    st.tuples(st.just("call"), st.sampled_from(_CALLS), st.integers(-1, 3)),
    st.tuples(st.just("lock_created"), st.integers(1, 4),
              st.sampled_from(("state", "placement"))),
    st.tuples(st.just("lock"), st.sampled_from(("acquire", "release")),
              st.integers(1, 4), st.integers(-1, 3)),
    st.tuples(st.just("output"), st.sampled_from(("timer", "rev_msg")),
              st.integers(0, 9), st.integers(-1, 3)),
    st.tuples(st.just("hint"), st.integers(1, 3), st.integers(1, 9),
              st.integers(-1, 3)),
    st.tuples(st.just("entries")),
    st.tuples(st.just("stop")),
)


def _apply(recorder, note, reference):
    kind = note[0]
    if kind == "call":
        (func, args, response), thread = note[1], note[2]
        if reference:
            recorder.note_call(msgs.message_for(func)(*args), response,
                               thread)
        else:
            recorder.note_call(func, args, response, thread)
    elif kind == "lock_created":
        recorder.note_lock_created(note[1], note[2])
    elif kind == "lock":
        recorder.note_lock_op(*note[1:])
    elif kind == "output":
        recorder.note_output(note[1], {"n": note[2]}, note[3])
    elif kind == "hint":
        recorder.note_hint(note[1], note[2], {"seq": note[2]}, note[3])
    elif kind == "entries":
        return recorder.entries
    else:
        recorder.stop()
    return None


class TestSameRingModel:
    @settings(max_examples=200, deadline=None)
    @example(3, 5, [("lock", "acquire", 1, 0)] * 7 + [("entries",)]
             + [("call", _CALLS[0], 1)] * 4)    # a ring smaller than a batch
    @given(st.integers(1, 12), st.integers(1, 16),
           st.lists(_notes, max_size=60))
    def test_random_note_sequences(self, capacity, drain_batch, notes):
        new = Recorder(capacity=capacity, drain_batch=drain_batch)
        old = ReferenceRecorder(capacity=capacity, drain_batch=drain_batch)
        for note in notes:
            assert _apply(new, note, False) == _apply(old, note, True)
            assert new.log == old.log
            assert new.dropped == old.dropped
            assert new._seq == old._seq
            assert ([e["seq"] for e in new.log]
                    == [e["seq"] for e in old.log])
            # ``entries`` flushes the ring: read it on copies.
            assert copy.deepcopy(new).entries == copy.deepcopy(old).entries
        assert new.entries == old.entries
