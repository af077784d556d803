"""The event queue driving the simulation.

One binary heap (``heapq``) of :class:`EventHandle` entries over a shared
:class:`Clock`.  The handle a caller holds *is* the heap entry,
``[time, seq, fn, args]``: ``seq`` is a per-queue counter, so events fire
in strict ``(time, scheduling order)`` — the one property replay
determinism rests on — and list comparison never reaches ``fn``.
Cancellation is lazy: ``cancel`` clears the entry's ``fn``, the entry is
skipped when it surfaces, and the heap is rebuilt once cancelled entries
both exceed ``COMPACT_THRESHOLD`` and outnumber the live ones.

DESIGN §10 records the three-band queue (timer wheel, now-FIFO, handle
freelist, batched windows) this heap was once the test oracle for, and
the measurements it was removed on.
"""

from heapq import heapify, heappop, heappush
from operator import itemgetter

from repro.simkernel.clock import Clock
from repro.simkernel.errors import SimError

_BUDGET_MSG = ("event budget exhausted after {} events "
               "(likely a livelock in the simulation)")


class EventHandle(list):
    """A scheduled event, ``[time, seq, fn, args]``; pass it to
    :meth:`EventQueue.cancel`.

    A handle is live from scheduling until the event fires or is
    cancelled; either clears ``fn``, after which it reads ``cancelled``
    and cancelling it again is a no-op.
    """

    __slots__ = ()

    time = property(itemgetter(0))
    seq = property(itemgetter(1))
    fn = property(itemgetter(2))
    args = property(itemgetter(3))

    @property
    def cancelled(self):
        return self[2] is None


class EventQueue:
    """Time-ordered event dispatch over a shared :class:`Clock`."""

    #: Compact the heap once more than this many cancelled entries linger
    #: *and* they outnumber the live ones (see :meth:`cancel`).
    COMPACT_THRESHOLD = 256

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else Clock()
        self._heap = []
        self._seq = 0
        self._live = 0
        self._stale = 0

    def __len__(self):
        return self._live

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise SimError(
                f"event scheduled in the past: {time} < {self.clock.now}"
            )
        self._seq += 1
        handle = EventHandle([int(time), self._seq, fn, args])
        heappush(self._heap, handle)
        self._live += 1
        return handle

    def after(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimError(f"negative event delay: {delay}")
        self._seq += 1
        handle = EventHandle(
            [self.clock.now + int(delay), self._seq, fn, args])
        heappush(self._heap, handle)
        self._live += 1
        return handle

    def cancel(self, handle):
        """Cancel a previously scheduled event (the only way to)."""
        if handle[2] is not None:
            handle[2] = None
            self._live -= 1
            self._stale += 1
            if self._stale > self.COMPACT_THRESHOLD \
                    and self._stale * 2 > len(self._heap):
                self._compact()

    def _compact(self):
        """Drop cancelled entries and rebuild the heap in one pass (in
        place: a running :meth:`_drain` holds the list)."""
        self._heap[:] = [e for e in self._heap if e[2] is not None]
        heapify(self._heap)
        self._stale = 0

    def _drain(self, deadline=None, budget=None):
        """The event loop: fire live events in ``(time, seq)`` order until
        the queue is dry, the next one lies beyond ``deadline`` or
        ``budget`` of them have fired.  Returns the number fired."""
        heap = self._heap
        clock = self.clock
        count = 0
        while heap:
            handle = heap[0]
            t, _seq, fn, args = handle
            if fn is None:
                heappop(heap)
                self._stale -= 1
                continue
            if deadline is not None and t > deadline:
                break
            heappop(heap)
            self._live -= 1
            if t < clock.now:
                raise SimError(
                    f"clock would move backwards: {clock.now} -> {t}"
                )
            clock.now = t
            # Fired handles read as cancelled: a late ``cancel`` from a
            # stale holder is a no-op instead of a silent live-count
            # corruption.  ``args`` goes too: timer callbacks carry their
            # Timer there while the Timer holds this handle, a reference
            # cycle that would otherwise make every armed timer
            # garbage-collector work.
            handle[2] = handle[3] = None
            fn(*args)
            count += 1
            if budget is not None and count >= budget:
                break
        return count

    def step(self):
        """Run the next pending event.  Returns False when the queue is dry."""
        return self._drain(budget=1) == 1

    def run_until(self, deadline):
        """Run events up to and including virtual time ``deadline``.

        The clock finishes exactly at ``deadline`` even when the queue
        runs dry earlier.
        """
        self._drain(deadline=deadline)
        if self.clock.now < deadline:
            self.clock.advance_to(deadline)

    def run_until_idle(self, max_events=None):
        """Run until no events remain.  Returns the number of events run.

        With ``max_events``, raises :class:`SimError` once that many have
        run and a live event is still pending (a run that finishes
        exactly on budget is not a livelock).
        """
        count = self._drain(budget=max_events)
        if max_events is not None and count >= max_events and self._live:
            raise SimError(_BUDGET_MSG.format(count))
        return count

    def pending(self):
        """Live handles in dispatch order (tests and diagnostics only)."""
        return sorted(e for e in self._heap if e[2] is not None)


def make_event_queue(clock=None):
    """Build an :class:`EventQueue` (the name ``perfbench/drivers.py``
    imports; everything else constructs the class directly)."""
    return EventQueue(clock)
