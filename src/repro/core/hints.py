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


#: overflow policy: reject the incoming entry (the paper's semantics)
DROP_NEW = "drop-new"
#: overflow policy: evict the oldest entry to make room (lossy tail-keep)
OVERWRITE_OLDEST = "overwrite-oldest"

_OVERFLOW_POLICIES = (DROP_NEW, OVERWRITE_OLDEST)


class RingBuffer:
    """A bounded FIFO with an explicit overflow policy.

    ``drop-new`` matches the paper's overrun semantics ("If the buffer
    overruns, events may be dropped"): a push into a full ring is rejected.
    ``overwrite-oldest`` keeps the freshest entries instead, evicting the
    oldest — useful for hint streams where the latest hint supersedes the
    rest.  Either way every lost entry is counted in ``dropped`` so
    backpressure is observable.
    """

    def __init__(self, capacity, name=None, policy=DROP_NEW):
        if capacity <= 0:
            raise QueueError(f"ring buffer capacity must be positive: "
                             f"{capacity}")
        if policy not in _OVERFLOW_POLICIES:
            raise QueueError(
                f"unknown ring overflow policy {policy!r} "
                f"(expected one of {_OVERFLOW_POLICIES})"
            )
        self.capacity = capacity
        self.name = name or "ring"
        self.policy = policy
        self._entries = deque()
        self.pushed = 0
        self.popped = 0
        self.dropped = 0
        self.overwritten = 0

    def __len__(self):
        return len(self._entries)

    def push(self, entry):
        """Append an entry.

        Under ``drop-new`` a push into a full ring returns False and counts
        a drop.  Under ``overwrite-oldest`` the oldest entry is evicted
        (counted in both ``dropped`` and ``overwritten``) and the push
        succeeds.
        """
        entries = self._entries
        if len(entries) >= self.capacity:
            self.dropped += 1
            if self.policy != OVERWRITE_OLDEST:
                return False
            entries.popleft()
            self.overwritten += 1
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

        Every successful push is eventually popped, overwritten, or still
        resident — so ``pushed == popped + overwritten + len(ring)`` must
        hold at every quiescent point, for either overflow policy.
        """
        return {
            "pushed": self.pushed,
            "popped": self.popped,
            "overwritten": self.overwritten,
            "dropped": self.dropped,
            "residual": len(self._entries),
        }

    def accounting_ok(self):
        """True when the push/pop/drop ledger balances."""
        return (self.pushed
                == self.popped + self.overwritten + len(self._entries))

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
        self._next_id = 0
        self.user_queues = {}      # queue_id -> RingBuffer[UserMessage]
        self.rev_queues = {}       # queue_id -> RingBuffer[RevMessage]
        self.user_by_tgid = {}     # tgid -> queue_id
        self.rev_by_tgid = {}      # tgid -> queue_id

    def new_queue_id(self):
        self._next_id += 1
        return self._next_id

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

    def remove_user_queue(self, queue_id):
        ring = self.user_queues.pop(queue_id, None)
        if ring is None:
            raise QueueError(f"no user queue {queue_id}")
        self.user_by_tgid = _without(self.user_by_tgid, queue_id)
        return ring

    def remove_rev_queue(self, queue_id):
        ring = self.rev_queues.pop(queue_id, None)
        if ring is None:
            raise QueueError(f"no reverse queue {queue_id}")
        self.rev_by_tgid = _without(self.rev_by_tgid, queue_id)
        return ring

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


def _without(by_tgid, queue_id):
    return {tgid: qid for tgid, qid in by_tgid.items() if qid != queue_id}
