"""The event queues driving the simulation.

Two interchangeable implementations share one contract — identical
``(time, sequence)`` dispatch order over a shared :class:`Clock` — so one
can check the other:

* :class:`EventQueue` — the production queue.  Three bands replace the
  classic single heap: an **immediate FIFO** for events scheduled at the
  current instant (zero-delay reschedule kicks), a **timer wheel** of
  slot arrays for the dense near-future band, and a **spillover heap**
  for far timers (periodic ticks, watchdogs).  Handles are recycled
  through a free list; cancellation is O(1) (a flag plus the handle's
  sequence number acting as a generation counter — a recycled handle
  never matches a stale slot entry, so nothing needs to surface through
  a heap to die).  ``run_window`` drains whole quiescent windows in one
  batched loop and runs tail continuations (``after_chain``) inline when
  nothing else intervenes.
* :class:`ReferenceEventQueue` — the original binary-heap queue with
  lazy deletion, kept as the behavioural reference.  The equivalence
  suite in ``tests/test_events.py`` drives both under randomized
  schedule/cancel/reschedule sequences, and ``REPRO_REFERENCE_EVENTS=1``
  builds whole kernels on it for digest comparison.
"""

import heapq
import os
from bisect import insort
from collections import deque
from heapq import heappop, heappush

from repro.simkernel.clock import Clock
from repro.simkernel.errors import SimError

#: bands an EventHandle can live in
_FIFO, _WHEEL, _FAR = 0, 1, 2

#: wheel geometry (module-level so the hot paths use global loads; the
#: class re-exports them for tests and documentation)
_GRAN_BITS = 15
_NSLOTS = 64
_SLOT_MASK = _NSLOTS - 1

#: live-population threshold below which new events route to the spill
#: heap instead of the wheel.  ``heapq`` is C code: at small populations
#: its O(log n) push/pop beats any Python-level slot bookkeeping, and the
#: measured crossover sits in the hundreds of live events (pipe runs
#: ~1, faas ~140).  The wheel only pays off once the
#: population is dense enough that slot refills amortise over many
#: same-slot events, so routing is density-adaptive: the bands interleave
#: correctly regardless of where an event lives (selection is by strict
#: ``(time, seq)`` order), so the threshold affects speed, never order.
_WHEEL_MIN = 256

_BUDGET_MSG = ("event budget exhausted after {} events "
               "(likely a livelock in the simulation)")


class EventHandle:
    """Handle to a scheduled event; supports cancellation.

    A handle is valid from scheduling until the event fires; cancelling
    after the fire is a no-op (the handle may since have been recycled
    for an unrelated event).  Holders that might outlive the fire (the
    timer service does) must gate their ``cancel`` on their own
    liveness, as :class:`~repro.simkernel.timers.Timer` does.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "band")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.band = _WHEEL

    def cancel(self):
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self):
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__name__", repr(self.fn))
        return f"EventHandle(t={self.time}, {name}, {state})"


class EventQueue:
    """Time-ordered event dispatch over a shared :class:`Clock`.

    Invariants the three bands rely on (all follow from "the clock only
    advances by running the globally-earliest pending event"):

    * every pending event's time is >= ``clock.now``;
    * events in the immediate FIFO were scheduled at the current instant,
      so they carry larger sequence numbers than any same-time event in
      the wheel or the far heap — the FIFO therefore drains *after*
      same-time wheel/heap entries and *before* the clock next advances;
    * every live wheel entry's slot lies within one rotation of the
      cursor slot (``clock.now >> GRAN_BITS``), so a bucket never mixes
      rotations and occupancy-bitmask scans resolve slots uniquely.
    """

    #: wheel slot granularity (2**15 ns = 32.8 us per slot).  Coarse on
    #: purpose: the hot interp/dispatch events are a few hundred ns to a
    #: few us apart, so dozens share a slot and the per-slot refill
    #: (scan + sort) amortises to near zero; within the loaded slot,
    #: dispatch order comes from a C-level ``insort``.
    GRAN_BITS = _GRAN_BITS
    #: slots per rotation; horizon = NSLOTS << GRAN_BITS ~ 2.1 ms, wide
    #: enough that periodic scheduler ticks stay inside the wheel, and
    #: small enough that the occupancy bitmask is a native 64-bit int
    NSLOTS = _NSLOTS
    #: density threshold for wheel engagement (see ``_WHEEL_MIN``)
    WHEEL_MIN = _WHEEL_MIN
    #: compact the far heap once more than this many cancelled entries
    #: linger *and* they outnumber the live ones
    COMPACT_THRESHOLD = 256
    #: recycled-handle pool bound
    FREELIST_CAP = 512

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else Clock()
        #: kernel backref (set by the embedding kernel); ``run_window``
        #: checks ``owner.trace`` every iteration and stops fusing
        #: continuations the moment any trace consumer attaches.
        self.owner = None
        self._seq = 0
        self._live = 0
        self._fifo = deque()
        self._wheel = [[] for _ in range(self.NSLOTS)]
        self._occ = 0                  # occupancy bitmask over wheel slots
        self._due = []                 # sorted entries of the loaded slot
        self._due_i = 0
        self._due_slot = -1            # absolute slot number, -1 = none
        self._far = []                 # heap of (time, seq, handle)
        self._far_stale = 0
        self._free = []
        #: density gate, copied from the class constant so tests can
        #: force wheel engagement on a near-empty queue (set it to 0)
        self._wheel_min = self.WHEEL_MIN
        self._chain = None             # pending (time, fn, args) tail call
        self._chain_ok = False         # True only inside run_window

    def __len__(self):
        return self._live

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def at(self, time, fn, *args):
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise SimError(
                f"event scheduled in the past: {time} < {self.clock.now}"
            )
        return self._push(int(time), fn, args)

    def after(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimError(f"negative event delay: {delay}")
        # _push inlined — this is the hottest scheduling entry point.
        now = self.clock.now
        time = now + int(delay)
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            h = free.pop()
            h.time = time
            h.seq = seq
            h.fn = fn
            h.args = args
            h.cancelled = False
        else:
            h = EventHandle(time, seq, fn, args)
        self._live += 1
        if time == now:
            h.band = _FIFO
            self._fifo.append(h)
            return h
        slot = time >> _GRAN_BITS
        if slot == self._due_slot:
            h.band = _WHEEL
            insort(self._due, (time, seq, h), self._due_i)
            return h
        if (self._live >= self._wheel_min
                and slot - (now >> _GRAN_BITS) < _NSLOTS):
            h.band = _WHEEL
            if -1 < slot < self._due_slot:
                self._flush_due()
            si = slot & _SLOT_MASK
            self._wheel[si].append((time, seq, h))
            self._occ |= 1 << si
        else:
            h.band = _FAR
            heappush(self._far, (time, seq, h))
        return h

    def after_chain(self, delay, fn, *args):
        """Schedule a tail continuation of the currently running event.

        Identical semantics to :meth:`after`, but while the batched
        ``run_window`` loop is in control the continuation may run inline
        — no handle, no queue traffic — if it strictly precedes every
        pending event.  Two caveats bound its use: no handle is returned
        (the caller must never need to cancel it), and it must be the
        *last* thing the running callback schedules — a fused
        continuation takes its sequence number after any events the
        callback scheduled, so an ``after`` issued later in the same
        callback at the same timestamp would flip order versus the
        reference queue.
        """
        if delay < 0:
            raise SimError(f"negative event delay: {delay}")
        if self._chain_ok and self._chain is None:
            owner = self.owner
            if owner is None or owner.trace is None:
                self._chain = (self.clock.now + delay, fn, args)
                return None
        return self._push(self.clock.now + int(delay), fn, args)

    def _push(self, time, fn, args):
        self._seq = seq = self._seq + 1
        free = self._free
        if free:
            h = free.pop()
            h.time = time
            h.seq = seq
            h.fn = fn
            h.args = args
            h.cancelled = False
        else:
            h = EventHandle(time, seq, fn, args)
        self._live += 1
        now = self.clock.now
        if time == now:
            h.band = _FIFO
            self._fifo.append(h)
            return h
        slot = time >> _GRAN_BITS
        due_slot = self._due_slot
        if slot == due_slot:
            h.band = _WHEEL
            insort(self._due, (time, seq, h), self._due_i)
        elif (self._live >= self._wheel_min
                and slot - (now >> _GRAN_BITS) < _NSLOTS):
            h.band = _WHEEL
            if -1 < slot < due_slot:
                # Landed before the loaded slot: push the loaded
                # entries back so the refill scan re-finds order.
                self._flush_due()
            si = slot & _SLOT_MASK
            self._wheel[si].append((time, seq, h))
            self._occ |= 1 << si
        else:
            h.band = _FAR
            heappush(self._far, (time, seq, h))
        return h

    def _flush_due(self):
        """Return the loaded slot's remaining entries to their bucket.

        Mutates ``_due`` in place — ``run_window`` holds an alias.
        """
        due = self._due
        rest = due[self._due_i:]
        if rest:
            si = self._due_slot & _SLOT_MASK
            self._wheel[si].extend(rest)
            self._occ |= 1 << si
        del due[:]
        self._due_i = 0
        self._due_slot = -1

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------

    def cancel(self, handle):
        """Cancel a previously scheduled event.  O(1)."""
        if not handle.cancelled:
            handle.cancelled = True
            self._live -= 1
            if handle.band == _FAR:
                self._far_stale += 1
                if self._far_stale > self.COMPACT_THRESHOLD \
                        and self._far_stale * 2 > len(self._far):
                    self._compact()
            # Wheel/FIFO entries die in place when their slot drains; no
            # tombstone ever travels through a heap.

    def _compact(self):
        """Drop cancelled entries and rebuild the far heap in one pass.

        Mutates ``_far`` in place — ``run_window`` holds an alias.
        """
        live = [e for e in self._far if not e[2].cancelled]
        heapq.heapify(live)
        self._far[:] = live
        self._far_stale = 0

    # ------------------------------------------------------------------
    # wheel internals
    # ------------------------------------------------------------------

    def _refill_due(self):
        """Load the earliest non-empty wheel slot into the due list.

        Mutates ``_due`` in place — ``run_window`` holds an alias.
        """
        occ = self._occ
        if not occ:
            return False
        c = self.clock.now >> _GRAN_BITS
        wheel = self._wheel
        while occ:
            # Earliest occupied slot at/after the cursor: bits >= the
            # cursor index first, wrapped low bits (next rotation) after.
            ci = c & _SLOT_MASK
            high = occ >> ci
            if high:
                s = c + ((high & -high).bit_length() - 1)
            else:
                s = c - ci + _NSLOTS + (occ & -occ).bit_length() - 1
            si = s & _SLOT_MASK
            bucket = wheel[si]
            occ &= ~(1 << si)
            live = [e for e in bucket if not e[2].cancelled]
            del bucket[:]
            if live:
                live.sort()
                self._occ = occ
                self._due[:] = live
                self._due_i = 0
                self._due_slot = s
                return True
        self._occ = 0
        return False

    def _take(self):
        """Pop the next live event handle, or None when the queue is dry.

        Mirrors the selection logic inlined in :meth:`run_window`; keep
        the two in sync.
        """
        while True:
            due = self._due
            di = self._due_i
            dh = None
            while di < len(due):
                e = due[di]
                if e[2].cancelled:
                    di += 1
                    continue
                dh = e
                break
            else:
                if self._refill_due():
                    due = self._due
                    di = 0
                    dh = due[0]
            self._due_i = di
            far = self._far
            while far and far[0][2].cancelled:
                heappop(far)
                self._far_stale -= 1
            other = dh
            if far and (dh is None or far[0] < dh):
                other = far[0]
            fifo = self._fifo
            if fifo and (other is None or other[0] > self.clock.now):
                h = fifo.popleft()
                if h.cancelled:
                    continue
                self._live -= 1
                return h
            if other is None:
                return None
            if other is dh:
                self._due_i = di + 1
            else:
                heappop(far)
            self._live -= 1
            return other[2]

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _retire(self, h):
        """Strip a fired handle and recycle it."""
        h.fn = h.args = None
        # A fired handle reads as cancelled: a late ``cancel`` from a
        # stale holder is then a no-op instead of corrupting the counts
        # (or, once recycled, someone else's event).
        h.cancelled = True
        if len(self._free) < self.FREELIST_CAP:
            self._free.append(h)

    def step(self):
        """Run the next pending event.  Returns False when the queue is dry.

        The un-batched reference path: one event per call, no
        continuation fusing (``after_chain`` falls through to the queue).
        """
        h = self._take()
        if h is None:
            return False
        clock = self.clock
        t = h.time
        if t < clock.now:
            raise SimError(
                f"clock would move backwards: {clock.now} -> {t}"
            )
        clock.now = t
        fn = h.fn
        args = h.args
        self._retire(h)
        fn(*args)
        return True

    def run_window(self, max_events=None, deadline=None):
        """Drain pending events in one batched loop (the hot path).

        Runs until the queue is dry, every remaining event lies beyond
        ``deadline`` (inclusive), or ``max_events`` have run (SimError,
        mirroring ``run_until_idle``'s livelock budget).  Returns the
        number of events run.

        While the loop holds control it services tail continuations
        (:meth:`after_chain`): a continuation that strictly precedes
        every pending event runs inline — same virtual time, same order,
        no queue traffic.  The loop re-reads ``owner.trace`` every
        iteration and stops fusing the moment any trace/observer/
        sanitizer consumer attaches (conservative bail-out to the
        reference behaviour; fused and un-fused execution are
        digest-identical either way).
        """
        clock = self.clock
        fifo = self._fifo
        due = self._due        # stable aliases: helpers mutate in place
        far = self._far
        free = self._free
        free_cap = self.FREELIST_CAP
        hpop = heappop
        count = 0
        limit = -1 if max_events is None else max_events
        dl = float("inf") if deadline is None else deadline
        self._chain_ok = True   # after_chain re-checks owner.trace
        try:
            while True:
                # -- select the next event (mirrors _take) -------------
                di = self._due_i
                if di < len(due):
                    e = due[di]
                    h = e[2]
                    if h.cancelled:
                        self._due_i = di + 1
                        continue
                    # hottest path: next wheel entry, nothing competing
                    if not far and not fifo:
                        t = e[0]
                        if t > dl:
                            break
                        self._due_i = di + 1
                        clock.now = t
                    elif fifo and e[0] > clock.now \
                            and not (far and far[0][0] <= clock.now):
                        h = fifo.popleft()
                        if h.cancelled:
                            continue
                    elif far and far[0] < e:
                        e = far[0]
                        h = e[2]
                        if h.cancelled:
                            hpop(far)
                            self._far_stale -= 1
                            continue
                        t = e[0]
                        if t > dl:
                            break
                        hpop(far)
                        clock.now = t
                    else:
                        t = e[0]
                        if t > dl:
                            break
                        self._due_i = di + 1
                        clock.now = t
                elif self._occ and self._refill_due():
                    continue
                elif far:
                    e = far[0]
                    h = e[2]
                    if h.cancelled:
                        hpop(far)
                        self._far_stale -= 1
                        continue
                    if fifo and e[0] > clock.now:
                        h = fifo.popleft()
                        if h.cancelled:
                            continue
                    else:
                        t = e[0]
                        if t > dl:
                            break
                        hpop(far)
                        clock.now = t
                elif fifo:
                    h = fifo.popleft()
                    if h.cancelled:
                        continue
                else:
                    break
                # -- fire ----------------------------------------------
                self._live -= 1
                fn = h.fn
                args = h.args
                h.fn = h.args = None
                h.cancelled = True      # fired handles read as cancelled
                if len(free) < free_cap:
                    free.append(h)
                count += 1
                fn(*args)
                if count == limit:
                    raise SimError(_BUDGET_MSG.format(count))
                # -- tail-continuation trampoline ----------------------
                ch = self._chain
                while ch is not None:
                    self._chain = None
                    t2 = ch[0]
                    di = self._due_i
                    if (not fifo
                            and t2 <= dl
                            and (not far or t2 < far[0][0])
                            and ((di < len(due) and t2 < due[di][0])
                                 or (di >= len(due) and not self._occ))):
                        clock.now = t2
                        count += 1
                        ch[1](*ch[2])
                        if count == limit:
                            raise SimError(_BUDGET_MSG.format(count))
                        ch = self._chain
                    else:
                        self._push(t2, ch[1], ch[2])
                        ch = None
        finally:
            self._chain_ok = False
            rest = self._chain
            if rest is not None:
                self._chain = None
                self._push(rest[0], rest[1], rest[2])
        return count

    def run_until(self, deadline):
        """Run events up to and including virtual time ``deadline``.

        The clock finishes exactly at ``deadline`` even when the queue
        runs dry earlier.
        """
        self.run_window(deadline=deadline)
        if self.clock.now < deadline:
            self.clock.advance_to(deadline)

    def run_until_idle(self, max_events=None):
        """Run until no events remain.  Returns the number of events run."""
        return self.run_window(max_events=max_events)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def pending(self):
        """Live handles in dispatch order (tests and diagnostics only)."""
        out = [e[2] for e in self._due[self._due_i:]
               if not e[2].cancelled]
        for bucket in self._wheel:
            out.extend(e[2] for e in bucket if not e[2].cancelled)
        out.extend(e[2] for e in self._far if not e[2].cancelled)
        out.extend(h for h in self._fifo if not h.cancelled)
        out.sort(key=lambda h: (h.time, h.seq))
        return out


class ReferenceEventQueue:
    """The original single-heap queue with lazy deletion (reference).

    Heap entries are ``(time, seq, handle)`` tuples so ordering is
    resolved by C-level tuple comparison; cancellation is lazy (a
    cancelled handle is skipped when it surfaces) with a compaction
    rebuild once cancelled entries pile up.  Kept verbatim as the
    behavioural oracle for :class:`EventQueue`.
    """

    #: Compact the heap once more than this many cancelled entries linger
    #: *and* they outnumber the live ones (see :meth:`cancel`).
    COMPACT_THRESHOLD = 256

    def __init__(self, clock=None):
        self.clock = clock if clock is not None else Clock()
        self.owner = None
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
        handle = EventHandle(int(time), self._seq, fn, args)
        heappush(self._heap, (handle.time, self._seq, handle))
        self._live += 1
        return handle

    def after(self, delay, fn, *args):
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds."""
        if delay < 0:
            raise SimError(f"negative event delay: {delay}")
        time = self.clock.now + int(delay)
        self._seq += 1
        handle = EventHandle(time, self._seq, fn, args)
        heappush(self._heap, (time, self._seq, handle))
        self._live += 1
        return handle

    def after_chain(self, delay, fn, *args):
        """Reference path: a tail continuation is just a normal event."""
        return self.after(delay, fn, *args)

    def cancel(self, handle):
        """Cancel a previously scheduled event."""
        if not handle.cancelled:
            handle.cancelled = True
            self._live -= 1
            self._stale += 1
            if self._stale > self.COMPACT_THRESHOLD \
                    and self._stale * 2 > len(self._heap):
                self._compact()

    def _compact(self):
        """Drop cancelled entries and rebuild the heap in one pass."""
        self._heap = [e for e in self._heap if not e[2].cancelled]
        heapq.heapify(self._heap)
        self._stale = 0

    def step(self):
        """Run the next pending event.  Returns False when the queue is dry."""
        heap = self._heap
        while heap:
            handle = heappop(heap)[2]
            if handle.cancelled:
                self._stale -= 1
                continue
            self._live -= 1
            clock = self.clock
            t = handle.time
            if t < clock.now:
                raise SimError(
                    f"clock would move backwards: {clock.now} -> {t}"
                )
            clock.now = t
            fn = handle.fn
            args = handle.args
            # Drop the callback references once the event has fired:
            # timer callbacks carry their Timer in ``args`` while the
            # Timer holds this handle, a reference cycle that would
            # otherwise make every armed timer garbage-collector work.
            handle.fn = handle.args = None
            # Fired handles read as cancelled (the shared contract with
            # EventQueue): a late ``cancel`` from a stale holder is a
            # no-op instead of a silent live-count corruption.
            handle.cancelled = True
            fn(*args)
            return True
        return False

    def run_until(self, deadline):
        """Run events up to and including virtual time ``deadline``."""
        while self._heap:
            head = self._heap[0]
            if head[2].cancelled:
                heapq.heappop(self._heap)
                self._stale -= 1
                continue
            if head[0] > deadline:
                break
            self.step()
        if self.clock.now < deadline:
            self.clock.advance_to(deadline)

    def run_until_idle(self, max_events=None):
        """Run until no events remain.  Returns the number of events run."""
        count = 0
        while self.step():
            count += 1
            if max_events is not None and count >= max_events:
                raise SimError(_BUDGET_MSG.format(count))
        return count

    def pending(self):
        """Live handles in dispatch order (tests and diagnostics only)."""
        out = [e[2] for e in self._heap if not e[2].cancelled]
        out.sort(key=lambda h: (h.time, h.seq))
        return out


def reference_mode_default():
    """True when the process asks for reference queues everywhere."""
    return os.environ.get("REPRO_REFERENCE_EVENTS", "") not in ("", "0")


def make_event_queue(clock=None, reference=None):
    """Build the production queue, or the reference one on request.

    ``reference=None`` consults the ``REPRO_REFERENCE_EVENTS`` environment
    variable so whole test runs can be pinned to the reference path.
    """
    if reference is None:
        reference = reference_mode_default()
    if reference:
        return ReferenceEventQueue(clock)
    return EventQueue(clock)
