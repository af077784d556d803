"""Bidirectional user/kernel hint queues (paper section 3.3).

Hints travel through fixed-capacity ring buffers shared across the
user/kernel boundary.  A scheduler that supports hints registers a
user-to-kernel queue (``UserMessage`` entries) and optionally a
kernel-to-user *reverse* queue (``RevMessage`` entries).  Payload types are
scheduler-defined; the framework only requires that they be plain data
(read-sharable across the boundary, as the paper puts it).

The record subsystem reuses :class:`RingBuffer` for its event channel
(section 3.4 uses "a ring buffer queue shared with Enoki-C" for exactly
this reason).
"""

from collections import deque
from dataclasses import dataclass
from typing import Any

from repro.core.errors import QueueError


@dataclass(frozen=True, slots=True)
class UserMessage:
    """A user-to-kernel hint: sender pid plus scheduler-defined payload."""

    pid: int
    payload: Any


@dataclass(frozen=True, slots=True)
class RevMessage:
    """A kernel-to-user message with a scheduler-defined payload."""

    payload: Any


class RingBuffer:
    """A bounded FIFO that drops new entries when full.

    This is the paper's overrun semantics ("If the buffer overruns, events
    may be dropped"): a push into a full ring is rejected and counted in
    ``dropped`` so backpressure is observable.
    """

    def __init__(self, capacity, name=None):
        if capacity <= 0:
            raise QueueError(f"ring buffer capacity must be positive: "
                             f"{capacity}")
        self.capacity = capacity
        self.name = name or "ring"
        self._entries = deque()
        self.pushed = 0
        self.popped = 0
        self.dropped = 0

    def __len__(self):
        return len(self._entries)

    def push(self, entry):
        """Append an entry; a push into a full ring returns False and
        counts a drop."""
        entries = self._entries
        if len(entries) >= self.capacity:
            self.dropped += 1
            return False
        entries.append(entry)
        self.pushed += 1
        return True

    def pop(self):
        """Remove and return the oldest entry, or None when empty."""
        if self._entries:
            self.popped += 1
            return self._entries.popleft()
        return None

    def drain(self, limit=None):
        """Pop up to ``limit`` entries (all of them by default)."""
        out = []
        while self._entries and (limit is None or len(out) < limit):
            out.append(self._entries.popleft())
        self.popped += len(out)
        return out

    def peek_all(self):
        """Non-destructive snapshot (used by tests)."""
        return list(self._entries)

    def accounting(self):
        """The ring-accounting ledger the verify sanitizers audit.

        Every successful push is eventually popped or still resident — so
        ``pushed == popped + len(ring)`` must hold at every quiescent point.
        """
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "dropped": self.dropped,
            "residual": len(self._entries),
        }

    def accounting_ok(self):
        """True when the push/pop/drop ledger balances."""
        return self.pushed == self.popped + len(self._entries)

    def __repr__(self):
        return (
            f"RingBuffer({self.name!r}, {len(self._entries)}/"
            f"{self.capacity}, dropped={self.dropped})"
        )


class QueueRegistry:
    """Enoki-C's table of hint queues for one loaded scheduler.

    Tracks which ring buffer backs which queue id, in both directions, and
    which process registered each queue (so ``SendHint`` finds the
    process's ring and ``RecvHints`` drains the right one).
    """

    def __init__(self):
        self.user_queues = {}      # queue_id -> RingBuffer[UserMessage]
        self.rev_queues = {}       # queue_id -> RingBuffer[RevMessage]
        self.user_by_tgid = {}     # tgid -> queue_id
        self.rev_by_tgid = {}      # tgid -> queue_id

    def add_user_queue(self, queue_id, ring, tgid=None):
        if queue_id in self.user_queues:
            raise QueueError(f"user queue {queue_id} already registered")
        self.user_queues[queue_id] = ring
        if tgid is not None:
            self.user_by_tgid[tgid] = queue_id

    def add_rev_queue(self, queue_id, ring, tgid=None):
        if queue_id in self.rev_queues:
            raise QueueError(f"reverse queue {queue_id} already registered")
        self.rev_queues[queue_id] = ring
        if tgid is not None:
            self.rev_by_tgid[tgid] = queue_id

    def rebind(self, user_ids, rev_ids):
        """Atomically renumber every queue (each map is old id -> new).

        Live upgrade: the rings survive in Enoki-C, but the incoming
        module assigns them fresh ids when they are re-announced to it,
        so the whole table (rings and both tgid indexes) swaps in one
        step with the dispatch pointer.
        """
        self.user_queues = {user_ids[qid]: ring
                            for qid, ring in self.user_queues.items()}
        self.rev_queues = {rev_ids[qid]: ring
                           for qid, ring in self.rev_queues.items()}
        self.user_by_tgid = {tgid: user_ids[qid]
                             for tgid, qid in self.user_by_tgid.items()}
        self.rev_by_tgid = {tgid: rev_ids[qid]
                            for tgid, qid in self.rev_by_tgid.items()}

    def rev_queue_for_tgid(self, tgid):
        queue_id = self.rev_by_tgid.get(tgid)
        if queue_id is None:
            return None
        return self.rev_queues.get(queue_id)
