"""Virtual time.

All substrate time is integer nanoseconds.  The clock only moves forward,
and only the event loop moves it.
"""

from repro.simkernel.errors import SimError

NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000


def usecs(n):
    """Convert microseconds to nanoseconds."""
    return int(n * NSEC_PER_USEC)


def msecs(n):
    """Convert milliseconds to nanoseconds."""
    return int(n * NSEC_PER_MSEC)


class Clock:
    """A monotonic virtual clock with nanosecond resolution.

    ``now`` is a plain attribute — it is read on every hot path, so the
    property indirection would cost real time.  Only :meth:`advance_to`
    (the event loop) may write it.
    """

    __slots__ = ("now",)

    def __init__(self, start_ns=0):
        self.now = int(start_ns)

    def advance_to(self, t):
        """Move the clock forward to ``t`` nanoseconds.

        Raises :class:`SimError` on any attempt to move backwards: the event
        loop is the only writer and a backwards move means a corrupted event
        order.
        """
        if t < self.now:
            raise SimError(
                f"clock would move backwards: {self.now} -> {t}"
            )
        self.now = t

    def __repr__(self):
        return f"Clock(now={self.now}ns)"
