"""High-resolution timers over the event queue.

Scheduler classes use these for preemption timers (the Enoki Shinjuku
scheduler re-arms a 10 us resched timer on every pick, section 4.2.2) and
the kernel core uses them for the periodic tick.  A timer's ``handle`` is
the queue's ``[time, seq, fn, args]`` entry; a fire tests the owner's
``trace`` hook inline, so an untraced fire enters no frame but the
callback's.
"""

from repro.simkernel.errors import SimError
from repro.simkernel.tracing import TIMER_FIRE


class Timer:
    """Handle for an armed timer."""

    __slots__ = ("service", "handle", "tag", "fired", "cancelled",
                 "callback", "period_ns")

    def __init__(self, service, tag, callback=None, period_ns=0):
        self.service = service
        self.handle = None
        self.tag = tag
        self.fired = False
        self.cancelled = False
        self.callback = callback
        self.period_ns = period_ns

    @property
    def active(self):
        return not (self.fired or self.cancelled)

    def cancel(self):
        if not (self.fired or self.cancelled) and self.handle is not None:
            self.service.events.cancel(self.handle)
        self.cancelled = True
        # Break the timer <-> event-handle reference cycle; the cancelled
        # heap entry still holds the handle until it surfaces.
        self.handle = None


class TimerService:
    """Arms one-shot timers with a minimum programming delay.

    ``owner`` (set by the kernel that embeds the service) exposes the
    kernel's ``trace`` hook so every fire emits a ``timer_fire`` event when
    tracing is on; a standalone service (owner None) traces nothing.
    """

    def __init__(self, events, config, owner=None):
        self.events = events
        self.config = config
        self.owner = owner

    def _note_fire(self, trace, timer):
        tag = timer.tag
        cpu = -1
        if tag.__class__ is tuple:
            # conventionally ("tick", cpu) etc.: a pair ending in an int
            try:
                _name, cpu = tag
            except ValueError:      # not a pair: ``cpu`` is still -1
                pass
            if cpu.__class__ is not int:
                cpu = -1
        trace("timer_fire", self.events.clock.now, cpu, TIMER_FIRE,
              str(tag) if tag is not None else None)

    def arm(self, delay_ns, callback, tag=None, timer=None):
        """Arm a one-shot timer ``delay_ns`` from now.

        Delays below the hrtimer slack floor are rounded up, mirroring real
        timer hardware granularity.  ``timer``, one this service armed
        before, is re-armed in place like a queued hrtimer and keeps its
        tag and callback; the heap and its ``seq`` counter end exactly as
        ``timer.cancel()`` plus a fresh arm leave them.
        """
        if delay_ns < 0:
            raise SimError(f"negative timer delay: {delay_ns}")
        floor = self.config.timer_min_delay_ns
        if delay_ns < floor:
            delay_ns = floor
        if timer is None:
            timer = Timer(self, tag, callback)
        else:
            if not timer.fired and timer.handle is not None:
                self.events.cancel(timer.handle)
            timer.fired = timer.cancelled = False
        timer.handle = self.events.after(
            delay_ns + self.config.timer_program_ns, self._fire, timer
        )
        return timer

    def _fire(self, timer):
        timer.fired = True
        owner = self.owner
        if owner is not None and owner.trace is not None:
            self._note_fire(owner.trace, timer)
        timer.callback(timer)

    def arm_periodic(self, period_ns, callback, tag=None):
        """Arm a self-rearming timer.  Returns a handle whose ``cancel``
        stops the chain."""
        if period_ns <= 0:
            raise SimError(f"non-positive timer period: {period_ns}")
        chain = Timer(self, tag, callback, period_ns)
        chain.handle = self.events.after(period_ns, self._fire_periodic, chain)
        return chain

    def _fire_periodic(self, chain):
        if chain.cancelled:
            return
        # The handle just fired; drop it *before* the callback so a
        # callback cancelling its own chain (the telemetry sampler does)
        # never reaches the queue with a fired handle.
        chain.handle = None
        owner = self.owner
        if owner is not None and owner.trace is not None:
            self._note_fire(owner.trace, chain)
        chain.callback(chain)
        if not chain.cancelled:
            chain.handle = self.events.after(
                chain.period_ns, self._fire_periodic, chain
            )
