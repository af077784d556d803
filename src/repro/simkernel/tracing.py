"""Structured scheduling-event tracing (the substrate's ftrace).

The kernel core exposes a single ``trace`` hook; this module gives it
structure: typed events, bounded retention, filtering, and the analysis
helpers experiments use to answer questions like "how long did pid 7 wait
per wakeup?" or "what ran on CPU 2 between t1 and t2?".

The event taxonomy spans every layer of the reproduction (the unified
observability model — see README "Observability"): :data:`EVENTS`, below,
names each kind, who emits it and the keys tuples its emit sites pass.

The ``token_*`` kinds only flow when a
:class:`~repro.verify.SanitizerSuite` (or anything else that installs a
``TokenRegistry.on_event`` tap) is attached — the registry's fast path is
a single ``is None`` test, like every other hook site.  Stamps never go
backwards (``timeline`` relies on it): the intake hands an event stamped
before the latest in-order one to ``_stamp_backwards``, a no-op that a
:class:`~repro.verify.SanitizerSuite` makes a ``clock`` flag.

Every emit site passes its payload positionally, behind its own
``is None`` test::

    from repro.simkernel.tracing import LOCK
    ...
    if trace is not None:
        trace("lock_acquire", now, thread, LOCK, lock_id)

``keys`` is one of the kind's tuples in :data:`EVENTS`, followed by one
value per name; ``pid`` (default ``None``) and ``cost`` (default 0) are
keywords.  The intake retains ``(t, kind, cpu, pid, cost) + keys +
values`` as it comes, and hands a kind's sinks the same values
positionally: ``sink(kind, t, cpu, pid, cost, keys, values)``.  A sink
that reads a field by index takes it from :func:`field_index`, which
holds every keys tuple of the kind to the same index.

A kind not in the table is legal too — the tracer stores unknown kinds
verbatim, so layers can add events without touching this module.

Usage::

    tracer = SchedTracer.attach(kernel, capacity=100_000)
    ... run workload ...
    for event in tracer.events_for_pid(7):
        print(event)
    print(tracer.timeline(cpu=2, start_ns=0, end_ns=1_000_000))
"""

import json
from collections import deque
from typing import NamedTuple, Optional

from repro.simkernel.errors import SimError

_new_event = tuple.__new__

# ----------------------------------------------------------------------
# the event table: the keys tuples emit sites import, then each kind
# ----------------------------------------------------------------------

NO_KEYS = ()
LOCK = ("lock",)
GEN = ("gen",)
TIMER_FIRE = ("tag",)
WAKEUP_THROTTLED = ("waker", "throttled")
WAKEUP_DEFERRED = ("waker", "deferred")
WAKEUP_SYNC = ("waker", "sync")
FORK_THROTTLED = ("throttled",)
FORK_DEFERRED = ("deferred",)
FORK_ORIGIN = ("origin",)
MIGRATE = ("src",)
MIGRATE_FAILED = ("reason",)
ENOKI_MSG = ("func", "policy", "wall_ns")
HINT_ENQUEUE = ("queue", "depth")
HINT_DROP = ("queue",)
HINT_DROP_FAULT = ("queue", "reason")
HINT_DEQUEUE = ("count",)
UPGRADE_QUIESCE = ("phase", "old", "new")
UPGRADE_PREPARE = ("phase", "has_state")
UPGRADE_STEP = ("phase",)
UPGRADE_COMPLETE = ("phase", "pause_ns", "tasks")
UPGRADE_ABORT = ("phase", "error")
THROTTLE = ("group", "parked", "running", "remaining")
UNTHROTTLE = ("group", "released")
QUOTA_REFILL = ("group", "consumed", "remaining")
ENOKI_PANIC = ("policy", "hook", "panic_kind", "strike")
FAILOVER = ("policy", "to", "reason", "requeued", "lazy")
WATCHDOG_FINDING = ("finding", "policy")
SLO_VIOLATION = ("slo", "metric", "value", "bound")

#: kind -> (who emits it, the keys tuples its emit sites may pass)
EVENTS = {
    "dispatch": ("kernel core: a task starts running on a CPU", (NO_KEYS,)),
    "idle": ("kernel core: a CPU goes idle", (NO_KEYS,)),
    "preempt": ("kernel core: the current task lost its CPU", (NO_KEYS,)),
    "wakeup": ("kernel core: try-to-wake-up placed or parked a task",
               (WAKEUP_THROTTLED, WAKEUP_DEFERRED, WAKEUP_SYNC)),
    "fork": ("kernel core: a new task was placed or parked",
             (FORK_THROTTLED, FORK_DEFERRED, FORK_ORIGIN)),
    "migrate": ("kernel core: a queued task changed run queue", (MIGRATE,)),
    "migrate_failed": ("kernel core: a migration was refused",
                       (MIGRATE_FAILED,)),
    "timer_fire": ("timer service: an armed timer fired", (TIMER_FIRE,)),
    "enoki_msg": ("Enoki-C: one message into the scheduler", (ENOKI_MSG,)),
    "lock_acquire": ("libEnoki: a scheduler spin lock was taken", (LOCK,)),
    "lock_release": ("libEnoki: the spin lock was dropped", (LOCK,)),
    "rwlock_read_acquire": ("quiesce rwlock: a message entered", (LOCK,)),
    "rwlock_read_release": ("quiesce rwlock: the message left", (LOCK,)),
    "rwlock_write_acquire": ("quiesce rwlock: an upgrade began", (LOCK,)),
    "rwlock_write_release": ("quiesce rwlock: the upgrade ended", (LOCK,)),
    "upgrade": ("upgrade manager: one phase of a live upgrade",
                (UPGRADE_QUIESCE, UPGRADE_PREPARE, UPGRADE_STEP,
                 UPGRADE_COMPLETE, UPGRADE_ABORT)),
    "hint_enqueue": ("Enoki-C: a hint entered its ring", (HINT_ENQUEUE,)),
    "hint_drop": ("Enoki-C: a hint was dropped (ring full, or a fault)",
                  (HINT_DROP, HINT_DROP_FAULT)),
    "hint_dequeue": ("Enoki-C: a task drained its ring", (HINT_DEQUEUE,)),
    "token_issue": ("token registry: a Schedulable was minted", (GEN,)),
    "token_consume": ("token registry: a token was spent", (GEN,)),
    "token_revoke": ("token registry: a live token was revoked", (GEN,)),
    "throttle": ("task groups: a group ran dry and was parked", (THROTTLE,)),
    "unthrottle": ("task groups: a group's tasks came back", (UNTHROTTLE,)),
    "quota_refill": ("task groups: a bandwidth period rolled over",
                     (QUOTA_REFILL,)),
    "enoki_panic": ("containment: a scheduler callback raised",
                    (ENOKI_PANIC,)),
    "failover": ("containment: tasks moved to the fallback", (FAILOVER,)),
    "watchdog_finding": ("watchdog: a lost or starved task",
                         (WATCHDOG_FINDING,)),
    "slo_violation": ("telemetry: a window broke an SLO", (SLO_VIOLATION,)),
}

#: the one key whose values are wall-clock time, different on every run:
#: :func:`canonical_stream` leaves it out
WALL_CLOCK_KEY = "wall_ns"


def field_index(field, kinds):
    """The index ``field`` holds in every keys tuple of each of
    ``kinds``, for a sink that reads it by position; a
    :class:`SimError` unless they all hold it there."""
    at = {keys.index(field) if field in keys else None
          for kind in kinds for keys in EVENTS[kind][1]}
    if len(at) != 1 or None in at:
        raise SimError(f"{field!r} is not at one index in the keys of "
                       f"{sorted(kinds)}")
    return at.pop()


def canonical_stream(observer, recorder=None, violations=None):
    """What ``observer`` (and ``recorder``) kept, as plain JSON data less
    the wall clock: retained events, retention counts, the collected
    registry, violations (the observer's by default), record entries."""
    snapshot = observer.collect().snapshot()
    snapshot["histograms"] = {
        name: hist for name, hist in snapshot["histograms"].items()
        if WALL_CLOCK_KEY not in name}
    payload = {
        "events": [
            [e.t_ns, e.kind, e.cpu, e.pid, e.cost_ns,
             [[k, v] for k, v in e.args if k != WALL_CLOCK_KEY]]
            for e in observer.events],
        "events_seen": getattr(observer, "events_seen", None),
        "filtered": observer.filtered,
        "dropped": observer.dropped,
        "registry": snapshot,
        "violations": [v.to_dict() for v in (
            violations if violations is not None
            else getattr(observer, "violations", []))],
        "record": recorder.entries if recorder is not None else None,
    }
    return json.loads(json.dumps(payload, sort_keys=True, default=str))


class TraceEvent(NamedTuple):
    """One scheduling event.

    ``args`` carries kind-specific payload as a sorted tuple of
    ``(key, value)`` pairs — tuple rather than dict so events stay
    hashable and compare by value; the record itself is tuple-backed
    for the same reason.
    """

    t_ns: int
    kind: str                # see ``EVENTS``
    cpu: int
    pid: Optional[int] = None
    cost_ns: int = 0
    args: tuple = ()

    def arg(self, key, default=None):
        """Look up one kind-specific payload field."""
        for name, value in self.args:
            if name == key:
                return value
        return default

    def to_dict(self):
        """Plain-data form (used by the exporters)."""
        out = {"t_ns": self.t_ns, "kind": self.kind, "cpu": self.cpu}
        if self.pid is not None:
            out["pid"] = self.pid
        if self.cost_ns:
            out["cost_ns"] = self.cost_ns
        out.update(self.args)
        return out

    def __str__(self):
        pid = f" pid={self.pid}" if self.pid is not None else ""
        extra = "".join(f" {k}={v}" for k, v in self.args)
        return (f"[{self.t_ns / 1e6:10.3f} ms] cpu{self.cpu} "
                f"{self.kind}{pid}{extra}")


class SchedTracer:
    """Bounded in-memory trace of typed kernel/framework events.

    :meth:`_hook` is the single intake of the observed path: it retains
    each ``kernel.trace(kind, t, cpu, keys, *values, pid=, cost=)``
    emission (or not) as one flat tuple, bumps the kind's counter if the
    tracer keeps one, hands it to the sinks routed to its kind
    (:meth:`add_route`) and last checks its stamp order.  A retained
    emission becomes a :class:`TraceEvent` when :attr:`events` is first
    read after it, so a run nobody inspects never builds one.

    ``kinds`` optionally restricts *retention* to a set of event kinds —
    everything else is counted in ``filtered`` but not stored, which keeps
    long traces of one subsystem cheap.  A filtered kind still reaches
    its sinks, so per-kind counters and sanitizers see the whole stream.
    """

    def __init__(self, capacity=100_000, kinds=None):
        if type(capacity) is not int or capacity < 0:
            raise SimError(f"trace ring capacity must be an int >= 0: "
                           f"{capacity!r}")
        if kinds is not None:
            if isinstance(kinds, str):
                raise SimError(f"kinds must be a collection of event "
                               f"kinds, not the string {kinds!r}")
            kinds = frozenset(kinds)
        self.capacity = capacity
        #: the retained emissions, oldest first: canonical events, then
        #: the raw ``(t, kind, cpu, pid, cost, *keys, *values)`` of
        #: everything emitted since :attr:`events` was last read — flat,
        #: so the cyclic GC stops tracking an entry of atomic values
        self._ring = deque(maxlen=capacity)
        #: emissions ever stored, the evicted ones included
        self.retained = 0
        self._canonical = 0     # ``retained`` when ``events`` was last read
        self.filtered = 0
        self.kinds = kinds
        self._last_t = 0        # the latest stamp seen in order
        self._kernel = None
        self._resolvers = []    # kind -> sink-or-None, in call order
        self._routes = {}       # kind -> (counter-or-None, sinks) (cache)

    @classmethod
    def attach(cls, kernel, capacity=100_000, kinds=None):
        """Install on a kernel.  A tracer already installed there is
        detached first, so every tap it holds comes back with it."""
        displaced = getattr(kernel.trace, "__self__", None)
        if isinstance(displaced, SchedTracer):
            displaced.detach()
        tracer = cls(capacity, kinds=kinds)
        tracer._kernel = kernel
        kernel.set_trace(tracer._hook)
        return tracer

    def detach(self):
        if self._kernel is not None and self._kernel.trace == self._hook:
            self._kernel.set_trace(None)
        self._kernel = None
        self._resolvers = []
        self._routes = {}

    def add_route(self, resolve):
        """Register a sink provider: ``resolve(kind)`` is asked on first
        sight of each event kind and returns the sink to call for every
        event of that kind, or ``None``.  A sink is called as
        ``sink(kind, t, cpu, pid, cost, keys, values)``: ``keys`` is the
        emit site's tuple of field names and ``values`` the tuple of its
        values, in the same order, so no event builds a dict.  A sink
        reads a field at its :func:`field_index`."""
        self._resolvers.append(resolve)
        self._routes = {}

    def _counter(self, kind):
        """The counter the intake bumps on every event of ``kind`` (any
        object with a ``value``), or ``None``."""
        return None

    def _route(self, kind):
        counter, sinks = self._counter(kind), []
        for resolve in self._resolvers:
            sink = resolve(kind)
            if sink is not None:
                sinks.append(sink)
        route = self._routes[kind] = (counter, tuple(sinks))
        return route

    def _stamp_backwards(self, kind, t, cpu, pid):
        """Called after the sinks of an event stamped before ``_last_t``."""

    def _hook(self, kind, t, cpu, keys, *values, pid=None, cost=0):
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
        else:
            self.retained += 1
            self._ring.append((t, kind, cpu, pid, cost) + keys + values)
        try:
            counter, sinks = self._routes[kind]
        except KeyError:
            counter, sinks = self._route(kind)
        if counter is not None:
            counter.value += 1
        for sink in sinks:
            sink(kind, t, cpu, pid, cost, keys, values)
        if t < self._last_t:
            self._stamp_backwards(kind, t, cpu, pid)
        else:
            self._last_t = t

    @property
    def events(self):
        """The retained events, oldest first, as :class:`TraceEvent`.

        The intake stores each emission flat; the canonical form (the
        payload as sorted ``args``) is built here, once per event, for
        whatever is still in the ring.  Read it again after further
        emissions rather than holding on to the result.
        """
        ring = self._ring
        fresh = min(self.retained - self._canonical, len(ring))
        if fresh:
            self._canonical = self.retained
            ring.rotate(fresh)
            for _ in range(fresh):
                entry = ring.popleft()
                half = (len(entry) + 5) >> 1     # where the values start
                ring.append(_new_event(TraceEvent, (
                    *entry[:5],
                    tuple(sorted(zip(entry[5:half], entry[half:])))
                    if half > 5 else ())))
        return ring

    @property
    def dropped(self):
        """Retained events the ring has since evicted."""
        return self.retained - len(self._ring)

    # -- queries ---------------------------------------------------------

    def events_for_pid(self, pid):
        return [e for e in self.events if e.pid == pid]

    def events_of_kind(self, *kinds):
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def timeline(self, cpu, start_ns=0, end_ns=None):
        """Reconstruct (start, end, pid-or-None) intervals for one CPU.

        ``None`` pid means idle.  The last interval is open-ended at the
        final observed event.

        When the ring buffer has wrapped (``dropped > 0``) the state of the
        CPU before the first retained event is unknown, so reconstruction
        starts at the first retained event's timestamp instead of silently
        attributing the lost prefix to ``start_ns``.
        """
        spans = []
        current_pid = None
        current_start = start_ns
        if self.dropped and self.events:
            # Ring wrapped: everything before the oldest retained event is
            # gone, and so is the identity of whatever ran then.
            current_start = max(current_start, self.events[0].t_ns)
        for event in self.events:
            if event.cpu != cpu or event.t_ns < start_ns:
                continue
            if end_ns is not None and event.t_ns > end_ns:
                break
            if event.kind == "dispatch":
                spans.append((current_start, event.t_ns, current_pid))
                current_pid = event.pid
                current_start = event.t_ns
            elif event.kind == "idle":
                spans.append((current_start, event.t_ns, current_pid))
                current_pid = None
                current_start = event.t_ns
        tail_end = end_ns if end_ns is not None else (
            self.events[-1].t_ns if self.events else start_ns)
        spans.append((current_start, tail_end, current_pid))
        return [s for s in spans if s[1] > s[0]]

    def busy_ns(self, cpu, start_ns=0, end_ns=None):
        """Time the CPU spent running tasks within a window."""
        return sum(end - start
                   for start, end, pid in self.timeline(cpu, start_ns,
                                                        end_ns)
                   if pid is not None)

    def switch_count(self, cpu=None):
        return sum(1 for e in self.events
                   if e.kind == "dispatch"
                   and (cpu is None or e.cpu == cpu))

    def summary(self):
        """Counts by kind, for quick inspection."""
        out = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out
