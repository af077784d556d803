"""The replay half of Enoki's record-and-replay system (section 3.4).

Replay consumes the file (or in-memory log) produced by the recorder and
drives *the exact same scheduler code* — now at userspace, with no kernel
underneath — through the recorded message sequence, validating every
response against what the kernel-resident run returned.

Two modes, both from the paper:

* **threaded** — the faithful mode: "the replay system starts a thread per
  recorded [kernel thread] ... When the replay thread attempts to acquire
  a lock, the lock checks whether it is the next to acquire the lock.  If
  not, the thread is blocked until its turn."  This reproduces the paper's
  observation that the constant blocking/waking makes replay much slower
  than record.  A log whose lock order its calls cannot follow raises
  :class:`ReplayMismatch` rather than blocking for ever.
* **sequential** — a fast validation mode that replays messages in global
  sequence order on one thread (sufficient whenever the recorded execution
  was already serialised, which a single-run log always is).  One thread
  never waits for a turn, so the scheduler gets the framework's ordinary
  lock here and a replayed call costs about what a live one does.
"""

import json
import threading
from contextlib import nullcontext
import time
from dataclasses import dataclass, field
from operator import attrgetter

from repro.core.errors import RecordError, ReplayMismatch
from repro.core.hints import RingBuffer, UserMessage
from repro.core.libenoki import EnokiEnv, LibEnoki
from repro.core.messages import Message, message_for
from repro.core.schedulable import Schedulable, TokenRegistry

#: entry kinds the replay loop consumes / the other kinds a recorder writes
_REPLAYED_KINDS = ("call", "hint")
_PASSIVE_KINDS = ("lock", "lock_created", "output")
#: calls that hand the scheduler a ring (out of band, see ``dispatch``)
_RING_FUNCTIONS = frozenset(("register_queue", "register_reverse_queue"))
#: calls that read or write the scheduler's hint-queue table, which the
#: trait keeps under no scheduler lock: the kernel serialises them, and so
#: must threaded replay (see ``_ThreadedReplayEnv.queue_turns``)
_QUEUE_FUNCTIONS = _RING_FUNCTIONS | {
    "enter_queue", "unregister_queue", "unregister_rev_queue"}
_QUEUE_MESSAGES = frozenset(message_for(function).__name__
                            for function in _QUEUE_FUNCTIONS)


def load_trace(path):
    """Load a JSON-lines record log.

    A line that is not one JSON object raises :class:`RecordError` naming
    the file and the line.
    """
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordError(
                    f"{path}:{number}: not JSON (truncated or garbled "
                    f"line): {exc}") from exc
            if not isinstance(entry, dict):
                raise RecordError(
                    f"{path}:{number}: a record entry is a JSON object, "
                    f"got {entry!r}")
            entries.append(entry)
    return entries


def _malformed(entry, exc):
    """The :class:`ReplayMismatch` for an entry the engine cannot read."""
    seq = entry.get("seq", "?") if isinstance(entry, dict) else "?"
    return ReplayMismatch(
        f"malformed record entry at seq {seq}: {exc!r} in {entry!r}")


def _normalise(value):
    """Canonical form for response comparison across JSON round-trips."""
    if value is None or value.__class__ in (bool, int, float, str):
        return value            # most responses: nothing to canonicalise
    if isinstance(value, Schedulable):
        return {"pid": value.pid, "cpu": value.cpu}
    if isinstance(value, dict) and "__schedulable__" in value:
        desc = value["__schedulable__"]
        return {"pid": desc["pid"], "cpu": desc["cpu"]}
    if isinstance(value, tuple):
        return [_normalise(v) for v in value]
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items()}
    return value


@dataclass
class Divergence:
    """One point where the replayed scheduler disagreed with the record."""

    seq: int
    function: str
    expected: object
    actual: object


@dataclass
class ReplayResult:
    calls_replayed: int = 0
    lock_ops_replayed: int = 0
    divergences: list = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def matched(self):
        return not self.divergences


class _OrderedReplayLock:
    """A lock that admits acquirers only in the recorded global order.

    Threaded replay only: this is the paper's blocking lock.  All the
    locks of one replay wait on their env's one condition, which is what
    lets the env tell a turn that is late from one that cannot come (see
    :meth:`_ThreadedReplayEnv.await_turn`).
    """

    def __init__(self, lock_id, acquire_order, env):
        self.lock_id = lock_id
        self._order = acquire_order   # list of thread ids, in record order
        self._env = env
        self._next = 0
        self.waits = 0

    def acquire(self):
        thread = _current_replay_thread()
        order = self._order
        env = self._env
        with env.turn:
            while self._next < len(order) and order[self._next] != thread:
                self.waits += 1
                env.await_turn(self, thread)
        # Past the end of the recorded order (shouldn't happen in a
        # faithful replay) we simply admit, so a divergent run still
        # terminates and gets reported via response mismatches.

    def release(self):
        with self._env.turn:
            self._next += 1
            self._env.wake()

    def describe_turn(self):
        return (f"replay lock {self.lock_id}: acquisition {self._next + 1} "
                f"of {len(self._order)} belongs to thread "
                f"{self._order[self._next]}")

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.release()
        return False


_replay_tls = threading.local()


def _current_replay_thread():
    return getattr(_replay_tls, "thread", -1)


class _ReplayEnv(EnokiEnv):
    """EnokiEnv for userspace replay: no kernel below, outputs collected.

    Sequential replay uses it as it is.  Its locks are the framework's
    own :class:`~repro.core.libenoki.EnokiSpinLock` — one thread cannot
    wait for a turn, so all a lock has to do there is what it does live:
    catch a policy that takes a lock it already holds.  Nothing listens
    for lock events, hence ``_lock_quiet``.
    """

    def __init__(self):
        super().__init__(enoki_c=None, recorder=None)
        self._lock_quiet = True
        self.outputs = []
        self._outputs_mutex = threading.Lock()

    def start_resched_timer(self, cpu, delay_ns):
        with self._outputs_mutex:
            self.outputs.append(
                ("timer", {"cpu": cpu, "delay_ns": delay_ns})
            )

    def send_rev_message(self, queue_id, payload):
        with self._outputs_mutex:
            self.outputs.append(
                ("rev_msg", {"queue_id": queue_id, "payload": payload})
            )
        return True


class _ThreadedReplayEnv(_ReplayEnv):
    """The threaded mode's env: every lock admits in the recorded order,
    and a wait that cannot end raises instead of hanging the replay."""

    def __init__(self, lock_orders, queue_order, threads):
        super().__init__()
        self.make_threaded()
        self._lock_orders = lock_orders   # creation index -> acquire order
        self._created = 0
        #: guards every ordered lock's position and the two fields below
        self.turn = threading.Condition()
        self.live = set(threads)          # replay threads still running
        self.waiting = 0                  # of them, blocked since last wake
        #: hint refills and queue-table calls in their recorded order: a
        #: registration is recorded under whichever thread called last,
        #: and no scheduler lock orders it against the hints that follow
        self.queue_turns = _OrderedReplayLock("hint-queues", queue_order,
                                              self)

    def create_lock(self, name=None):
        self._created += 1
        order = self._lock_orders.get(self._created, [])
        lock = _OrderedReplayLock(self._created, order, self)
        self.locks.append(lock)
        return lock

    def await_turn(self, lock, thread):
        """Block ``thread`` (``turn`` held) until some lock moves on or a
        thread finishes.  A faithful log never waits in vain; a log whose
        lock order does not match its calls does, in one of two ways, and
        both raise :class:`ReplayMismatch`."""
        if lock._order[lock._next] not in self.live:
            raise ReplayMismatch(
                f"{lock.describe_turn()}, which has finished; thread "
                f"{thread} would wait for its turn forever (the log's "
                "lock order does not match its calls)")
        self.waiting += 1
        if self.waiting == len(self.live):
            raise ReplayMismatch(
                f"{lock.describe_turn()}, but it and every other replay "
                f"thread are waiting for a turn, as thread {thread} "
                "would be: deadlock (the log's lock orders contradict "
                "each other)")
        self.turn.wait()

    def wake(self):
        """Something a waiter's verdict depends on changed (``turn``
        held): every waiter looks again, so none counts as blocked."""
        self.waiting = 0
        self.turn.notify_all()

    def thread_done(self, thread):
        """``thread`` replays nothing more: whoever waits for one of its
        turns must find out."""
        with self.turn:
            self.live.discard(thread)
            self.wake()


class ReplayEngine:
    """Re-runs a recorded trace against a fresh scheduler instance.

    ``scheduler_factory`` must build the scheduler in its initial state —
    the same constructor call that produced the recorded run.
    """

    def __init__(self, scheduler_factory, entries):
        self.scheduler_factory = scheduler_factory
        self.entries = entries
        self.tokens = TokenRegistry()
        self._rings = {}          # queue_id -> RingBuffer (reconstructed)
        self._rings_mutex = threading.Lock()

    # -- trace analysis ("the first 30 seconds are spent ... parsing
    # lock operations", section 5.8) -----------------------------------

    def _analyse(self):
        """One pass over the log for the threaded mode: each lock's
        acquisition order (keyed by creation order of the locks), the
        order of the hint-queue traffic, the replayed entries of each
        recorded thread, and the lock-op count."""
        creation_index = {}
        orders = {}
        queue_order = []
        by_thread = {}
        lock_ops = 0
        for entry in self.entries:
            try:
                kind = entry["kind"]
                if kind in _REPLAYED_KINDS:
                    by_thread.setdefault(entry["thread"], []).append(entry)
                    if (kind == "hint"
                            or entry["msg"]["type"] in _QUEUE_MESSAGES):
                        queue_order.append(entry["thread"])
                elif kind == "lock":
                    lock_ops += 1
                    if entry["op"] == "acquire":
                        index = creation_index.get(entry["lock_id"])
                        if index is not None:
                            orders[index].append(entry["thread"])
                elif kind == "lock_created":
                    index = creation_index[entry["lock_id"]] = len(orders) + 1
                    orders[index] = []
                elif kind not in _PASSIVE_KINDS:
                    raise RecordError(f"unknown entry kind {kind!r}")
            except (KeyError, TypeError, RecordError) as exc:
                raise _malformed(entry, exc) from exc
        return orders, queue_order, by_thread, lock_ops

    def _mint(self, description):
        return self.tokens.issue(description["pid"], description["cpu"])

    def _build_lib(self, env):
        scheduler = self.scheduler_factory()
        return LibEnoki(scheduler, enoki_c=None, recorder=None, env=env)

    # -- modes ------------------------------------------------------------

    def run_sequential(self):
        """Replay all calls on one thread, in global sequence order."""
        start = time.perf_counter()
        lib = self._build_lib(_ReplayEnv())
        result = ReplayResult()
        self._replay(lib, self.entries, result)
        result.wall_seconds = time.perf_counter() - start
        return result

    def run_threaded(self):
        """Replay with one OS thread per recorded kernel thread.

        Raises what the first replay thread to fail raised:
        :class:`ReplayMismatch` when a lock turn cannot come or an entry
        is malformed, the scheduler's own error otherwise.
        """
        start = time.perf_counter()
        orders, queue_order, by_thread, lock_ops = self._analyse()
        env = _ThreadedReplayEnv(orders, queue_order, by_thread)
        lib = self._build_lib(env)
        # Dispatches arrive from real OS threads here, so the rwlock needs
        # actual mutex/condition synchronisation instead of the simulator's
        # single-threaded counter fast path.
        lib.rwlock.set_threaded(True)
        results = {tid: ReplayResult() for tid in by_thread}
        failures = []     # in time order: the cause before what it stalls

        def worker(thread_id, entries):
            _replay_tls.thread = thread_id
            try:
                self._replay(lib, entries, results[thread_id],
                             env.queue_turns)
            except Exception as exc:   # re-raised by the joining thread
                failures.append(exc)
            finally:
                env.thread_done(thread_id)

        threads = [
            threading.Thread(target=worker, args=(tid, entries),
                             name=f"replay-{tid}")
            for tid, entries in by_thread.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        result = ReplayResult(lock_ops_replayed=lock_ops)
        for local in results.values():
            result.calls_replayed += local.calls_replayed
            result.divergences.extend(local.divergences)
        result.divergences.sort(key=attrgetter("seq"))
        result.wall_seconds = time.perf_counter() - start
        return result

    def _ring(self, queue_id):
        with self._rings_mutex:
            if queue_id not in self._rings:
                self._rings[queue_id] = RingBuffer(
                    1 << 16, name=f"replay-ring-{queue_id}")
            return self._rings[queue_id]

    def _refill(self, entry):
        """Put a recorded hint back on its user-to-kernel ring, exactly as
        the recorded run saw it; the following enter_queue call drains it."""
        queue_id = entry["queue_id"]
        if not self._ring(queue_id).push(
                UserMessage(entry["pid"], entry["payload"])):
            raise ReplayMismatch(
                f"replay ring {queue_id} overflowed refilling hint for "
                f"pid {entry['pid']}: the recorded run cannot have "
                "dropped this entry"
            )

    def _replay(self, lib, entries, result, queue_turns=nullcontext()):
        """Drive ``lib`` through ``entries`` in order — the calls, and the
        hint entries that refill the rings; a recorder's other kinds are
        passed over — and check every response against the recorded one.
        ``queue_turns`` (threaded mode) admits hint-queue traffic in the
        recorded order."""
        from_record = Message.from_record
        mint = self._mint
        dispatch = lib.dispatch
        divergences = result.divergences
        calls = 0
        for entry in entries:
            try:
                kind = entry["kind"]
                if kind == "call":
                    message = from_record(entry["msg"], mint)
                    thread = entry["thread"]
                    recorded = entry["response"]
                    seq = entry["seq"]
                    function = message.FUNCTION
                    queue_call = function in _QUEUE_FUNCTIONS
                    # Hand the scheduler the reconstructed ring; the
                    # recorded response tells us which id the hints
                    # reference.
                    extra = (self._ring(recorded) if queue_call
                             and function in _RING_FUNCTIONS else None)
                elif kind == "hint":
                    with queue_turns:
                        self._refill(entry)
                    continue
                elif kind in _PASSIVE_KINDS:
                    continue
                else:
                    raise RecordError(f"unknown entry kind {kind!r}")
            except (KeyError, TypeError, RecordError) as exc:
                raise _malformed(entry, exc) from exc
            if queue_call:
                with queue_turns:
                    actual = dispatch(message, thread, extra)
            else:
                actual = dispatch(message, thread, extra)
            calls += 1
            expected = _normalise(recorded)
            observed = _normalise(actual)
            if expected != observed:
                divergences.append(Divergence(
                    seq=seq,
                    function=function,
                    expected=expected,
                    actual=observed,
                ))
        result.calls_replayed += calls

    def verify(self, mode="sequential"):
        """Run and raise :class:`ReplayMismatch` on any divergence."""
        result = (self.run_threaded() if mode == "threaded"
                  else self.run_sequential())
        if not result.matched:
            first = result.divergences[0]
            raise ReplayMismatch(
                f"replay diverged at seq {first.seq} "
                f"({first.function}): expected {first.expected!r}, "
                f"got {first.actual!r} "
                f"(+{len(result.divergences) - 1} more)"
            )
        return result
