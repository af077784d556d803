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

Entries flow through a ring buffer shared with a (modelled) userspace
record task that writes them out asynchronously; if the buffer overruns,
events are dropped and counted, matching the paper's stated semantics.
The per-message cost of reserving ring space is charged by Enoki-C
(``record_overhead_ns``), which is what makes the recorded sched-pipe run
measurably slower (section 5.8).
"""

import json

from repro.core.errors import RecordError
from repro.core.hints import RingBuffer
from repro.core.messages import response_to_record


class Recorder:
    """Collects the record log for one scheduler module."""

    def __init__(self, capacity=1 << 20, drain_batch=4096):
        self._ring = RingBuffer(capacity, name="record-ring")
        self._drain_batch = drain_batch
        self.log = []
        self._seq = 0
        self.active = True

    # -- event intake (called from libEnoki shims) ----------------------

    def _push(self, entry):
        if not self.active:
            return
        self._seq += 1
        entry["seq"] = self._seq
        ring = self._ring
        if ring.push(entry):
            # The userspace record task drains asynchronously; modelling
            # it as an immediate batched drain keeps the overflow
            # semantics while staying single-threaded.  (A drop-new ring
            # holds exactly ``pushed - popped`` entries.)
            if ring.pushed - ring.popped >= self._drain_batch:
                self.log.extend(ring.drain())
        # else: dropped, counted by the ring

    def note_call(self, message, response, thread):
        self._push({
            "kind": "call",
            "thread": thread,
            "msg": message.to_record(),
            "response": response_to_record(response),
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
        """A userspace hint entered a ring buffer (recorded so replay can
        refill the queue before the matching enter_queue call)."""
        self._push({
            "kind": "hint",
            "queue_id": queue_id,
            "pid": pid,
            "payload": payload,
            "thread": thread,
        })

    # -- finishing ---------------------------------------------------------

    def stop(self):
        """Stop recording and flush the ring."""
        self.active = False
        self.log.extend(self._ring.drain())

    @property
    def dropped(self):
        return self._ring.dropped

    @property
    def entries(self):
        """All drained entries (flushes the ring first)."""
        self.log.extend(self._ring.drain())
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
