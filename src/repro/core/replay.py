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
  than record.
* **sequential** — a fast validation mode that replays messages in global
  sequence order on one thread (sufficient whenever the recorded execution
  was already serialised, which a single-run log always is).
"""

import json
import threading
import time
from dataclasses import dataclass, field

from repro.core.errors import ReplayMismatch
from repro.core.libenoki import EnokiEnv, LibEnoki
from repro.core.messages import Message
from repro.core.schedulable import Schedulable, TokenRegistry


def load_trace(path):
    """Load a JSON-lines record log."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


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
    """A lock that admits acquirers only in the recorded global order."""

    def __init__(self, lock_id, acquire_order):
        self.lock_id = lock_id
        self._order = acquire_order   # list of thread ids, in record order
        self._next = 0
        self._cond = threading.Condition()
        self.waits = 0

    def acquire(self):
        thread = _current_replay_thread()
        with self._cond:
            while (self._next < len(self._order)
                   and self._order[self._next] != thread):
                self.waits += 1
                self._cond.wait(timeout=5.0)
        # Past the end of the recorded order (shouldn't happen in a
        # faithful replay) we simply admit, so a divergent run still
        # terminates and gets reported via response mismatches.

    def release(self):
        with self._cond:
            self._next += 1
            self._cond.notify_all()

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
    """EnokiEnv for userspace replay: recorded locks, collected outputs."""

    def __init__(self, lock_orders):
        super().__init__(enoki_c=None, recorder=None)
        self._lock_orders = lock_orders   # creation index -> acquire order
        self._created = 0
        self.outputs = []
        self._outputs_mutex = threading.Lock()

    def create_lock(self, name=None):
        self._created += 1
        order = self._lock_orders.get(self._created, [])
        lock = _OrderedReplayLock(self._created, order)
        self.locks.append(lock)
        return lock

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

    def _lock_orders(self):
        """Per-lock acquisition order, in creation order of the locks."""
        creation_index = {}
        orders = {}
        created = 0
        for entry in self.entries:
            if entry["kind"] == "lock_created":
                created += 1
                creation_index[entry["lock_id"]] = created
                orders[created] = []
            elif entry["kind"] == "lock" and entry["op"] == "acquire":
                index = creation_index.get(entry["lock_id"])
                if index is not None:
                    orders[index].append(entry["thread"])
        return orders

    def _replay_entries(self):
        """Entries the replay loop consumes, in sequence order: calls plus
        the hint entries that refill the user-to-kernel rings."""
        return [e for e in self.entries if e["kind"] in ("call", "hint")]

    def _mint(self, description):
        return self.tokens.issue(description["pid"], description["cpu"])

    def _build_lib(self, env):
        scheduler = self.scheduler_factory()
        return LibEnoki(scheduler, enoki_c=None, recorder=None, env=env)

    # -- modes ------------------------------------------------------------

    def run_sequential(self):
        """Replay all calls on one thread, in global sequence order."""
        start = time.perf_counter()
        # An empty order table yields locks that admit immediately, which
        # is correct for single-threaded replay.
        env = _ReplayEnv(lock_orders={})
        lib = self._build_lib(env)
        result = ReplayResult()
        for entry in self._replay_entries():
            self._replay_one(lib, entry, result)
        result.wall_seconds = time.perf_counter() - start
        return result

    def run_threaded(self):
        """Replay with one OS thread per recorded kernel thread."""
        start = time.perf_counter()
        env = _ReplayEnv(self._lock_orders())
        lib = self._build_lib(env)
        # Dispatches arrive from real OS threads here, so the rwlock needs
        # actual mutex/condition synchronisation instead of the simulator's
        # single-threaded counter fast path.
        lib.rwlock.set_threaded(True)
        env.make_threaded()
        result = ReplayResult()
        result_mutex = threading.Lock()
        by_thread = {}
        for entry in self._replay_entries():
            by_thread.setdefault(entry["thread"], []).append(entry)
        lock_ops = sum(1 for e in self.entries if e["kind"] == "lock")

        def worker(thread_id, entries):
            _replay_tls.thread = thread_id
            for entry in entries:
                local = ReplayResult()
                self._replay_one(lib, entry, local)
                with result_mutex:
                    result.calls_replayed += local.calls_replayed
                    result.divergences.extend(local.divergences)

        threads = [
            threading.Thread(target=worker, args=(tid, entries),
                             name=f"replay-{tid}")
            for tid, entries in by_thread.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        result.lock_ops_replayed = lock_ops
        result.wall_seconds = time.perf_counter() - start
        return result

    def _ring(self, queue_id):
        from repro.core.hints import RingBuffer

        with self._rings_mutex:
            if queue_id not in self._rings:
                self._rings[queue_id] = RingBuffer(
                    1 << 16, name=f"replay-ring-{queue_id}")
            return self._rings[queue_id]

    def _replay_one(self, lib, entry, result):
        if entry["kind"] == "hint":
            # Refill the user-to-kernel ring exactly as the recorded run
            # saw it; the following enter_queue call drains it.
            from repro.core.hints import UserMessage

            if not self._ring(entry["queue_id"]).push(
                    UserMessage(entry["pid"], entry["payload"])):
                raise ReplayMismatch(
                    f"replay ring {entry['queue_id']} overflowed refilling "
                    f"hint for pid {entry['pid']}: the recorded run cannot "
                    "have dropped this entry"
                )
            return
        message = Message.from_record(entry["msg"], self._mint)
        thread = entry["thread"]
        extra = None
        if message.FUNCTION in ("register_queue",
                                "register_reverse_queue"):
            # Hand the scheduler the reconstructed ring; the recorded
            # response tells us which id the hints reference.
            extra = self._ring(entry["response"])
        actual = lib.dispatch(message, thread=thread, extra=extra)
        result.calls_replayed += 1
        expected = _normalise(entry["response"])
        observed = _normalise(actual)
        if expected != observed:
            result.divergences.append(Divergence(
                seq=entry["seq"],
                function=message.FUNCTION,
                expected=expected,
                actual=observed,
            ))

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
