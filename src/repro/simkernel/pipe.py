"""Blocking message pipes (the substrate for ``perf bench sched pipe``).

A pipe carries discrete messages.  Readers block when the pipe is empty;
the kernel wakes exactly one blocked reader per written message, matching
pipe semantics for the single-reader benchmarks we model.
"""

from collections import deque

from repro.simkernel.errors import SimError


class Pipe:
    """An unbounded message pipe with blocking readers."""

    _next_id = 0

    def __init__(self, name=None):
        Pipe._next_id += 1
        self.id = Pipe._next_id
        self.name = name or f"pipe-{self.id}"
        self.buffer = deque()
        self.waiting_readers = deque()   # TaskStruct, FIFO

    def write(self, item):
        """Deliver one message.

        When a reader is blocked the item is handed to it directly and
        ``(reader, item)`` is returned so the kernel can wake it with the
        value; otherwise the item is buffered and ``(None, None)`` is
        returned.
        """
        if self.waiting_readers:
            return self.waiting_readers.popleft(), item
        self.buffer.append(item)
        return None, None

    def try_read(self):
        """Non-destructive availability check + destructive read.

        Returns ``(True, item)`` when a message was available, otherwise
        ``(False, None)``.
        """
        if self.buffer:
            return True, self.buffer.popleft()
        return False, None

    def add_reader(self, task):
        if task in self.waiting_readers:
            raise SimError(f"{task} already waiting on {self.name}")
        self.waiting_readers.append(task)

    def __repr__(self):
        return (
            f"Pipe({self.name!r}, buffered={len(self.buffer)}, "
            f"readers={len(self.waiting_readers)})"
        )
