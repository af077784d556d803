"""The record half of Enoki's record-and-replay system (section 3.4).

LibEnoki reports three event streams to the recorder:

* **calls** — every message dispatched to the scheduler, plus the response
  the scheduler returned (so replay can flag divergence);
* **lock operations** — creation, acquisition, and release order, tagged
  with the acquiring kernel-thread id ("As long as locks are acquired in
  the same order during record and replay and the behavior of the
  scheduler is deterministic, the results should be the same");
* **outputs** — resched-timer arms and reverse-queue messages, the only
  side channels a scheduler has besides its responses.

Entries flow through a ring shared with a (modelled) userspace record
task that writes them out asynchronously; if the ring overruns, events
are dropped and counted, matching the paper's stated semantics.  The
per-message cost of reserving ring space is charged by Enoki-C
(``record_overhead_ns``), which is what makes the recorded sched-pipe run
measurably slower (section 5.8).
"""

import json

from repro.core.errors import RecordError
from repro.core.messages import encode_call, response_to_record


class Recorder:
    """Collects the record log for one scheduler module."""

    def __init__(self, capacity=1 << 20, drain_batch=4096):
        if type(capacity) is not int or capacity <= 0:
            raise RecordError(
                f"record ring capacity must be a positive int: "
                f"{capacity!r}")
        self._capacity = capacity
        self._drain_batch = drain_batch
        self.log = []
        self._pending = []      # in the modelled ring, not yet in ``log``
        self._held = 0          # len(self._pending)
        self._seq = 0
        self.dropped = 0
        self.active = True

    # -- event intake (called from libEnoki shims) ----------------------
    #
    # Every push takes a ``seq``; at ``capacity`` held the entry is
    # dropped, at ``drain_batch`` held the pending entries go to ``log``.
    # The two per-crossing kinds (calls, lock ops) push inline, so one
    # entry costs one call here; the rare kinds go through ``_push``.

    def _push(self, entry):
        if not self.active:
            return
        self._seq += 1
        if self._held >= self._capacity:
            self.dropped += 1
            return
        entry["seq"] = self._seq
        self._pending.append(entry)
        self._held += 1
        if self._held >= self._drain_batch:
            self._drain()

    def _drain(self):
        self.log.extend(self._pending)
        self._pending = []
        self._held = 0

    def note_call(self, func, args, response, thread):
        """Trait call ``func(*args)`` returned ``response``."""
        if not self.active:
            return
        self._seq += 1
        if self._held >= self._capacity:
            self.dropped += 1
            return
        if response is not None and response.__class__ is not int:
            response = response_to_record(response)
        self._pending.append({"kind": "call", "thread": thread,
                              "msg": encode_call(func, args),
                              "response": response, "seq": self._seq})
        self._held += 1
        if self._held >= self._drain_batch:
            self._drain()

    def note_lock_created(self, lock_id, name):
        self._push({"kind": "lock_created", "lock_id": lock_id,
                    "name": name})

    def note_lock_op(self, op, lock_id, thread):
        if not self.active:
            return
        self._seq += 1
        if self._held >= self._capacity:
            self.dropped += 1
            return
        self._pending.append({"kind": "lock", "op": op, "lock_id": lock_id,
                              "thread": thread, "seq": self._seq})
        self._held += 1
        if self._held >= self._drain_batch:
            self._drain()

    def note_output(self, channel, payload, thread):
        self._push({"kind": "output", "channel": channel,
                    "payload": payload, "thread": thread})

    def note_hint(self, queue_id, pid, payload, thread):
        """A userspace hint entered a ring buffer (recorded so replay can
        refill the queue before the matching enter_queue call)."""
        self._push({"kind": "hint", "queue_id": queue_id, "pid": pid,
                    "payload": payload, "thread": thread})

    # -- finishing ---------------------------------------------------------

    def stop(self):
        """Stop recording and flush the ring."""
        self.active = False
        self._drain()

    @property
    def entries(self):
        """All drained entries (flushes the ring first)."""
        self._drain()
        return self.log

    def save(self, path):
        """Serialise the log as JSON lines."""
        entries = self.entries
        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                try:
                    fh.write(json.dumps(entry))
                except TypeError as exc:
                    raise RecordError(
                        f"entry {entry.get('seq')} is not serialisable: "
                        f"{exc}"
                    ) from exc
                fh.write("\n")
        return len(entries)
