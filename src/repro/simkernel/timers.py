"""High-resolution timers over the event queue.

Scheduler classes use these for preemption timers (the Enoki Shinjuku
scheduler re-arms a 10 us resched timer on every pick, section 4.2.2) and
the kernel core uses them for the periodic tick.
"""

from repro.simkernel.errors import SimError


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
        if self.active and self.handle is not None:
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

    def _note_fire(self, timer):
        owner = self.owner
        if owner is not None and owner.trace is not None:
            tag = timer.tag
            cpu = -1
            if isinstance(tag, tuple) and len(tag) == 2 \
                    and isinstance(tag[1], int):
                cpu = tag[1]      # conventionally ("tick", cpu) etc.
            owner.trace("timer_fire", t=self.events.clock.now, cpu=cpu,
                        tag=str(tag) if tag is not None else None)

    def arm(self, delay_ns, callback, tag=None):
        """Arm a one-shot timer ``delay_ns`` from now.

        Delays below the hrtimer slack floor are rounded up, mirroring real
        timer hardware granularity.
        """
        if delay_ns < 0:
            raise SimError(f"negative timer delay: {delay_ns}")
        delay_ns = max(delay_ns, self.config.timer_min_delay_ns)
        timer = Timer(self, tag, callback)
        timer.handle = self.events.after(
            delay_ns + self.config.timer_program_ns, self._fire, timer
        )
        return timer

    def _fire(self, timer):
        timer.fired = True
        self._note_fire(timer)
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
        self._note_fire(chain)
        chain.callback(chain)
        if not chain.cancelled:
            chain.handle = self.events.after(
                chain.period_ns, self._fire_periodic, chain
            )
