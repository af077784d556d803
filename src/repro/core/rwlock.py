"""The per-scheduler read-write lock used to quiesce for live upgrade.

Paper, section 3.2:

    "Non-upgrade calls into the scheduler module acquire the lock in read
    mode, allowing multiple concurrent calls into the scheduler module.
    When an upgrade begins, the lock is acquired in write mode, preventing
    any of the non-upgrade calls from entering the scheduler module."

In the discrete-event simulation, per-CPU kernel contexts execute their
scheduler calls atomically at one virtual instant, so read sections always
drain before an upgrade event runs — logical quiescence is guaranteed.
Nothing here ever blocks: a read acquire under the writer and a write
acquire with readers in flight both return False (the caller models the
delay or raises), and a release without a hold is a framework bug that
raises.  The *time* the quiesce costs on a real machine is modelled by the
upgrade manager from the per-CPU sync constants.  The crossings write the
read section out inline (``EnokiSchedClass._call``'s quiet mode and
``LibEnoki.dispatch``); ``acquire_read``/``release_read`` are the
reference they are held to.  Threaded replay, the one caller on real OS
threads, gives each replay thread counters of its own and adds them up
at the join (``repro.core.replay``).
"""

from repro.core.errors import UpgradeError
from repro.simkernel.tracing import LOCK


class SchedulerRwLock:
    """Readers = scheduler dispatches; writer = a live upgrade."""

    def __init__(self, name="enoki-sched"):
        self.name = name
        self._readers = 0
        self._writer = False
        self.read_acquisitions = 0
        #: optional tap: a tracer intake, called as ``on_event(kind, t,
        #: -1, ("lock",), name)`` with ``kind`` one of
        #: ``rwlock_read_acquire``/``_read_release``/``_write_acquire``/
        #: ``_write_release`` and ``t`` read off ``clock``, which whoever
        #: sets the tap sets too.
        #: Left None (a single attribute test) on the fast path so
        #: disabled tracing costs nothing measurable.
        self.on_event = None
        self.clock = None

    # -- read side --------------------------------------------------------

    def acquire_read(self):
        """Enter a dispatch.  Returns False while the writer holds the
        lock (the caller models the delay instead)."""
        if self._writer:
            return False
        self._readers += 1
        self.read_acquisitions += 1
        if self.on_event is not None:
            self.on_event("rwlock_read_acquire", self.clock.now, -1, LOCK,
                          self.name)
        return True

    def release_read(self):
        if self._readers <= 0:
            raise UpgradeError(f"{self.name}: read release underflow")
        self._readers -= 1
        if self.on_event is not None:
            self.on_event("rwlock_read_release", self.clock.now, -1, LOCK,
                          self.name)

    # -- write side ----------------------------------------------------------

    def try_acquire_write(self):
        """Begin an upgrade.  Returns False while readers are in flight or
        another writer holds the lock."""
        if self._writer or self._readers > 0:
            return False
        self._writer = True
        if self.on_event is not None:
            self.on_event("rwlock_write_acquire", self.clock.now, -1, LOCK,
                          self.name)
        return True

    def release_write(self):
        if not self._writer:
            raise UpgradeError(f"{self.name}: write release without hold")
        self._writer = False
        if self.on_event is not None:
            self.on_event("rwlock_write_release", self.clock.now, -1, LOCK,
                          self.name)

    @property
    def write_held(self):
        return self._writer

    @property
    def readers(self):
        return self._readers
