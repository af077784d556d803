"""Unit tests for the virtual clock and the event queue.

``TestEventQueue`` is the queue's contract (time order, insertion-order
ties, cancellation, budget guard); ``TestLazyDeletion`` covers the
heap's cancelled-entry bookkeeping; ``TestHandleIsHeapEntry`` the
plain-list ``[time, seq, fn, args]`` layout; ``TestRandomizedSchedule``
drives randomized schedule/cancel/reschedule sequences and checks the
fire log, ``len`` and ``pending()`` against a model of the contract.
"""

import random

import pytest

from repro.simkernel.clock import Clock, msecs, usecs
from repro.simkernel.errors import SimError
from repro.simkernel.events import EventQueue


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now == 0

    def test_advance(self):
        clock = Clock()
        clock.advance_to(100)
        assert clock.now == 100

    def test_no_backwards_motion(self):
        clock = Clock(50)
        with pytest.raises(SimError):
            clock.advance_to(49)

    def test_unit_helpers(self):
        assert usecs(3) == 3_000
        assert msecs(2) == 2_000_000
        assert usecs(1.5) == 1_500


class TestEventQueue:
    def test_events_run_in_time_order(self):
        q = EventQueue()
        seen = []
        q.at(30, seen.append, "c")
        q.at(10, seen.append, "a")
        q.at(20, seen.append, "b")
        q.run_until_idle()
        assert seen == ["a", "b", "c"]

    def test_ties_run_in_insertion_order(self):
        q = EventQueue()
        seen = []
        q.at(10, seen.append, 1)
        q.at(10, seen.append, 2)
        q.at(10, seen.append, 3)
        q.run_until_idle()
        assert seen == [1, 2, 3]

    def test_after_is_relative(self):
        q = EventQueue()
        q.clock.advance_to(100)
        fired = []
        q.after(25, lambda: fired.append(q.clock.now))
        q.run_until_idle()
        assert fired == [125]

    def test_cancel(self):
        q = EventQueue()
        seen = []
        handle = q.at(10, seen.append, "x")
        q.cancel(handle)
        q.run_until_idle()
        assert seen == []
        assert len(q) == 0

    def test_no_scheduling_in_the_past(self):
        q = EventQueue()
        q.clock.advance_to(100)
        with pytest.raises(SimError):
            q.at(50, lambda: None)

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimError):
            q.after(-1, lambda: None)

    def test_run_until_stops_at_deadline(self):
        q = EventQueue()
        seen = []
        q.at(10, seen.append, "early")
        q.at(100, seen.append, "late")
        q.run_until(50)
        assert seen == ["early"]
        assert q.clock.now == 50
        q.run_until(200)
        assert seen == ["early", "late"]

    def test_run_until_advances_clock_when_dry(self):
        q = EventQueue()
        q.run_until(777)
        assert q.clock.now == 777

    def test_events_scheduled_during_run(self):
        q = EventQueue()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                q.after(10, chain, n + 1)

        q.at(0, chain, 0)
        q.run_until_idle()
        assert seen == [0, 1, 2, 3]
        assert q.clock.now == 30

    def test_event_budget_guard(self):
        q = EventQueue()

        def forever():
            q.after(1, forever)

        q.at(0, forever)
        with pytest.raises(SimError):
            q.run_until_idle(max_events=1000)

    def test_len_counts_live_events(self):
        q = EventQueue()
        h1 = q.at(10, lambda: None)
        q.at(20, lambda: None)
        assert len(q) == 2
        q.cancel(h1)
        assert len(q) == 1

    def test_pending_lists_live_handles_in_order(self):
        q = EventQueue()
        q.clock.advance_to(5)
        h_far = q.at(10_000_000, lambda: None)
        h_now = q.at(5, lambda: None)
        h_near = q.at(600, lambda: None)
        doomed = q.at(400, lambda: None)
        q.cancel(doomed)
        assert q.pending() == [h_now, h_near, h_far]

    def test_exact_budget_is_not_a_livelock(self):
        # The budget is spent by the very events that finish the run:
        # nothing live remains, so there is nothing to report.
        q = EventQueue()
        q.at(1, lambda: None)
        q.at(2, lambda: None)
        assert q.run_until_idle(max_events=2) == 2
        assert len(q) == 0

    def test_fired_handle_reads_as_cancelled(self):
        # Stale holders (a Timer whose event already fired) must see the
        # handle as dead, so a late queue.cancel cannot drift the counts.
        q = EventQueue()
        h1 = q.at(10, lambda: None)
        q.run_until_idle()
        assert h1[2] is None
        q.cancel(h1)
        assert len(q) == 0
        h2 = q.at(20, lambda: None)
        assert h2[2] is not None
        assert q.run_until_idle() == 1

    def test_cancel_after_fire_is_harmless(self):
        q = EventQueue()
        seen = []
        handle = q.at(10, seen.append, "x")
        q.run_until_idle()
        q.cancel(handle)         # late cancel on an already-fired handle
        assert seen == ["x"]
        assert q.step() is False
        assert len(q) == 0

    def test_len_and_pending_agree_after_cancel_and_drain(self):
        # queue.cancel is the only cancel: a handle is a plain list, so
        # no handle-side cancel() can set a flag behind the queue's back.
        q = EventQueue()
        doomed = q.after(10, lambda: None)
        assert type(doomed) is type(q.at(20, lambda: None)) is list
        q.cancel(doomed)
        assert len(q) == len(q.pending()) == 1
        q.run_until_idle()
        assert len(q) == len(q.pending()) == 0
        assert q._stale == 0


class TestLazyDeletion:
    """Edge cases of the queue's lazy-cancellation scheme
    (cancelled entries stay in the heap until they surface or a
    compaction sweeps them)."""

    def test_cancel_then_reschedule_same_timestamp(self):
        q = EventQueue()
        seen = []
        first = q.at(10, seen.append, "cancelled")
        q.cancel(first)
        q.at(10, seen.append, "replacement")
        q.run_until_idle()
        assert seen == ["replacement"]
        assert q.clock.now == 10
        assert len(q) == 0

    def test_pop_past_run_of_cancelled_handles(self):
        q = EventQueue()
        seen = []
        doomed = [q.at(10, seen.append, i) for i in range(50)]
        q.at(10, seen.append, "survivor")
        for handle in doomed:
            q.cancel(handle)
        # One step must skip all 50 stale entries and run the survivor.
        assert q.step() is True
        assert seen == ["survivor"]
        assert q._stale == 0
        assert q.step() is False

    def test_run_until_skips_cancelled_head_beyond_deadline(self):
        q = EventQueue()
        seen = []
        late = q.at(100, seen.append, "late")
        q.cancel(late)
        q.at(10, seen.append, "early")
        q.run_until(50)
        assert seen == ["early"]
        assert q.clock.now == 50

    def test_compaction_threshold(self):
        q = EventQueue()
        keep = 10
        for i in range(keep):
            q.at(1_000_000 + i, lambda: None)
        handles = [q.at(500 + i, lambda: None)
                   for i in range(q.COMPACT_THRESHOLD + 1)]
        # Cancelling up to the threshold leaves the heap untouched …
        for handle in handles[:-1]:
            q.cancel(handle)
        assert q._stale == q.COMPACT_THRESHOLD
        assert len(q._heap) == keep + len(handles)
        # … and one more (with stale entries the majority) compacts.
        q.cancel(handles[-1])
        assert q._stale == 0
        assert len(q._heap) == keep
        assert len(q) == keep

    def test_no_compaction_while_live_majority(self):
        q = EventQueue()
        live = 2 * (q.COMPACT_THRESHOLD + 2)
        for i in range(live):
            q.at(1_000_000 + i, lambda: None)
        handles = [q.at(500 + i, lambda: None)
                   for i in range(q.COMPACT_THRESHOLD + 2)]
        for handle in handles:
            q.cancel(handle)
        # Stale count exceeds the threshold but not half the heap: the
        # sweep is deferred until cancellations dominate.
        assert q._stale == len(handles)
        assert len(q._heap) == live + len(handles)


class TestHandleIsHeapEntry:
    """The handle a caller holds is the heap's own entry,
    ``[time, seq, fn, args]``, ordered by its first two fields alone."""

    def test_same_instant_unorderable_callbacks_never_compared(self):
        class Opaque:
            """Callable, and any ordering comparison is an error."""

            def __init__(self, log, tag):
                self.log, self.tag = log, tag

            def __call__(self, *args):
                self.log.append(self.tag)

            def __lt__(self, other):
                raise AssertionError("the heap compared two callbacks")

            __gt__ = __le__ = __ge__ = __lt__

        q = EventQueue()
        log = []
        for tag in range(40):
            q.at(10, Opaque(log, tag), Opaque(log, None))
        q.cancel(q.at(10, Opaque(log, "cancelled")))
        assert [h[1] for h in q.pending()] == list(range(1, 41))
        q.run_until_idle()
        assert log == list(range(40))

    def test_fields_read_through_the_entry(self):
        q = EventQueue(Clock(5))
        handle = q.after(7, print, "a", "b")
        assert handle == [12, 1, print, ("a", "b")]
        time, seq, fn, args = handle
        assert (time, seq, fn, args) == (12, 1, print, ("a", "b"))
        assert q._heap[0] is handle
        assert handle[2] is not None

    def test_fired_and_cancelled_handles_read_cancelled(self):
        q = EventQueue()
        fired = q.at(10, lambda: None)
        dropped = q.at(20, lambda: None)
        q.at(30, lambda: None)
        q.cancel(dropped)
        q.run_until(10)
        stale = q._stale
        for handle in (fired, dropped):
            assert handle[2] is None
            q.cancel(handle)         # late cancel: a no-op both ways
            assert len(q) == 1 and q._stale == stale
        assert q.run_until_idle() == 1

    def test_pending_is_dispatch_order(self):
        q = EventQueue()
        handles = [q.at(t, lambda: None) for t in (30, 10, 20, 10, 30, 10)]
        q.cancel(handles[2])
        expected = [handles[i] for i in (1, 3, 5, 0, 4)]
        order = q.pending()
        assert len(order) == len(q) == 5
        assert all(a is b for a, b in zip(order, expected))

    def test_compaction_keeps_the_callers_handles(self):
        q = EventQueue()
        seen = []
        kept = [q.at(1_000 + i, seen.append, i) for i in range(5)]
        doomed = [q.at(10 + i, seen.append, "doomed")
                  for i in range(q.COMPACT_THRESHOLD + 1)]
        for handle in doomed:
            q.cancel(handle)
        assert q._stale == 0 and len(q._heap) == len(kept)
        assert {id(e) for e in q._heap} == {id(h) for h in kept}
        q.cancel(kept[2])
        q.run_until_idle()
        assert seen == [0, 1, 3, 4]
        assert all(h[2] is None for h in kept + doomed)
        assert all(h[3] is None for h in kept if h is not kept[2])


class TestRandomizedSchedule:
    """Property test: a randomized schedule/cancel/reschedule workload
    fires exactly what the contract says, in the order it says."""

    #: delays reach a few ms so near, far and same-instant events mix
    SPAN_NS = 2_000_000

    def _run_workload(self, queue, rng, n_ops):
        """Drive the queue with a seeded op mix.

        Returns ``(log, issued, cancelled)``: the fire log of
        ``(time, tag)``, every tag in issue order, and the cancelled set.
        Cancellation targets are tracked by tag and removed at fire, so
        only genuinely pending events are cancelled.  ``len(queue)`` and
        ``queue.pending()`` are checked against the model after every
        schedule, cancel and fire.
        """
        log = []
        issued = []
        cancelled = set()
        pending = {}                     # tag -> handle, insertion-ordered

        def agrees_with_model():
            assert len(queue) == len(pending)
            assert queue.pending() == sorted(pending.values())

        def schedule(delay):
            tag = len(issued)
            issued.append(tag)
            pending[tag] = queue.after(delay, fire, tag)
            agrees_with_model()

        def drop_random():
            tags = list(pending)
            tag = tags[rng.randrange(len(tags))]
            cancelled.add(tag)
            queue.cancel(pending.pop(tag))
            agrees_with_model()

        def fire(tag):
            pending.pop(tag, None)
            agrees_with_model()
            log.append((queue.clock.now, tag))
            # Events themselves reschedule and cancel.
            roll = rng.random()
            if roll < 0.30:
                schedule(rng.choice(
                    (0, 1, rng.randrange(1, 5000),
                     rng.randrange(1, 3 * self.SPAN_NS))
                ))
            elif roll < 0.40 and pending:
                drop_random()

        for _ in range(n_ops):
            if rng.random() < 0.75 or not pending:
                schedule(rng.choice(
                    (0, rng.randrange(1, 200),
                     rng.randrange(1, self.SPAN_NS),
                     rng.randrange(1, 4 * self.SPAN_NS))
                ))
            else:
                drop_random()
        queue.run_until_idle(max_events=200_000)
        return log, issued, cancelled

    @pytest.mark.parametrize("seed", range(12))
    def test_fire_log_matches_model(self, seed):
        q = EventQueue()
        log, issued, cancelled = self._run_workload(
            q, random.Random(seed), 300
        )
        assert len(log) > 100
        # Strict (time, issue order): tags are issue indices.
        assert log == sorted(log)
        # Exactly the never-cancelled tags fired, once each.
        fired = [tag for _, tag in log]
        assert sorted(fired) == [t for t in issued if t not in cancelled]
        assert len(q) == 0
