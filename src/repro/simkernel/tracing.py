"""Structured scheduling-event tracing (the substrate's ftrace).

The kernel core exposes a single ``trace`` hook; this module gives it
structure: typed events, bounded retention, filtering, and the analysis
helpers experiments use to answer questions like "how long did pid 7 wait
per wakeup?" or "what ran on CPU 2 between t1 and t2?".

The event taxonomy spans every layer of the reproduction (the unified
observability model — see README "Observability"):

========================  =====================================================
kind                      emitted by
========================  =====================================================
``dispatch``              kernel core, a task starts running on a CPU
``idle``                  kernel core, a CPU goes idle
``wakeup``                kernel core, try-to-wake-up placed a task
``fork``                  kernel core, a new task was placed
``preempt``               kernel core, the current task lost its CPU
``migrate``               kernel core, a queued task moved between run queues
``migrate_failed``        kernel core, a requested migration was rejected
``timer_fire``            timer service, an armed timer fired
``enoki_msg``             Enoki-C, one message dispatched into the scheduler
``lock_acquire``          libEnoki spin-lock wrapper, a scheduler lock was taken
``lock_release``          libEnoki spin-lock wrapper, the lock was dropped again
``rwlock_*``              the per-scheduler read-write lock (quiesce protocol)
``upgrade``               upgrade manager, one quiesce phase of a live upgrade
``hint_enqueue``          Enoki-C, a userspace hint entered the ring
``hint_drop``             Enoki-C, a hint was dropped on ring overflow
``hint_dequeue``          Enoki-C, a task drained the reverse ring
``token_issue``           token registry, a ``Schedulable`` was minted
``token_consume``         token registry, a token was spent (task picked)
``token_revoke``          token registry, a live token was invalidated
``throttle``              task groups, a group ran out of quota and was parked
``unthrottle``            task groups, a refilled group released its tasks
``quota_refill``          task groups, a bandwidth period rolled over
``enoki_panic``           containment boundary, a scheduler callback raised
``failover``              containment boundary, tasks moved to the fallback
``watchdog_finding``      scheduler watchdog, a lost or starved task was found
``slo_violation``         telemetry, a window broke a service-level objective
========================  =====================================================

The ``token_*`` kinds only flow when a
:class:`~repro.verify.SanitizerSuite` (or anything else that installs a
``TokenRegistry.on_event`` tap) is attached — the registry's fast path is
a single ``is None`` test, like every other hook site.

Anything not in the table is legal too — the tracer stores unknown kinds
verbatim, so layers can add events without touching this module.

Usage::

    tracer = SchedTracer.attach(kernel, capacity=100_000)
    ... run workload ...
    for event in tracer.events_for_cpu(2):
        print(event)
    print(tracer.timeline(cpu=2, start_ns=0, end_ns=1_000_000))
"""

from collections import deque
from typing import NamedTuple, Optional

_new_event = tuple.__new__


class TraceEvent(NamedTuple):
    """One scheduling event.

    ``args`` carries kind-specific payload as a sorted tuple of
    ``(key, value)`` pairs — tuple rather than dict so events stay
    hashable and compare by value; the record itself is tuple-backed
    for the same reason.
    """

    t_ns: int
    kind: str                # see the taxonomy table in the module docstring
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
    each ``kernel.trace(kind, t=..., cpu=..., ...)`` emission as handed
    in (or not), bumps the kind's counter if the tracer keeps one, then
    hands it to the sinks routed to its kind (:meth:`add_route`).  A
    retained emission becomes a :class:`TraceEvent` when :attr:`events`
    is first read after it, so a run nobody inspects never builds one.

    ``kinds`` optionally restricts *retention* to a set of event kinds —
    everything else is counted in ``filtered`` but not stored, which keeps
    long traces of one subsystem cheap.  A filtered kind still reaches
    its sinks, so per-kind counters and sanitizers see the whole stream.
    """

    def __init__(self, capacity=100_000, kinds=None):
        self.capacity = capacity
        #: the retained emissions, oldest first: canonical events, then
        #: the raw ``(t, kind, cpu, pid, cost, fields)`` of everything
        #: emitted since :attr:`events` was last read
        self._ring = deque(maxlen=capacity)
        #: emissions ever stored, the evicted ones included
        self.retained = 0
        self._canonical = 0     # ``retained`` when ``events`` was last read
        self.filtered = 0
        self.kinds = frozenset(kinds) if kinds is not None else None
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
        ``sink(kind, t, cpu, pid, fields)``, ``fields`` being the
        emitter's other keywords (``cost`` included when charged); it
        must not change ``fields``, which the ring retains."""
        self._resolvers.append(resolve)
        self._routes = {}

    def _counter(self, kind):
        """The counter the intake bumps on every event of ``kind`` (any
        object with a ``value``), or ``None``."""
        return None

    def _route(self, kind):
        route = self._routes[kind] = (self._counter(kind), tuple(filter(
            None, (resolve(kind) for resolve in self._resolvers))))
        return route

    def _hook(self, kind, t=0, cpu=-1, pid=None, cost=0, **fields):
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
        else:
            self.retained += 1
            self._ring.append((t, kind, cpu, pid, cost, fields))
        route = self._routes.get(kind)
        if route is None:
            route = self._route(kind)
        counter, sinks = route
        if counter is not None:
            counter.value += 1
        if sinks:
            if cost:
                fields["cost"] = cost
            for sink in sinks:
                sink(kind, t, cpu, pid, fields)

    @property
    def events(self):
        """The retained events, oldest first, as :class:`TraceEvent`.

        The intake stores what it was handed; the canonical form (sorted
        ``args``, without the intake's own ``cost`` entry) is built here,
        once per event, for whatever is still in the ring.  Read it again
        after further emissions rather than holding on to the result.
        """
        ring = self._ring
        fresh = min(self.retained - self._canonical, len(ring))
        if fresh:
            self._canonical = self.retained
            ring.rotate(fresh)
            for _ in range(fresh):
                t, kind, cpu, pid, cost, fields = ring.popleft()
                if cost:
                    fields = {key: value for key, value in fields.items()
                              if key != "cost"}
                ring.append(_new_event(TraceEvent, (
                    t, kind, cpu, pid, cost,
                    tuple(sorted(fields.items())) if fields else ())))
        return ring

    @property
    def dropped(self):
        """Retained events the ring has since evicted."""
        return self.retained - len(self._ring)

    # -- queries ---------------------------------------------------------

    def events_for_cpu(self, cpu):
        return [e for e in self.events if e.cpu == cpu]

    def events_for_pid(self, pid):
        return [e for e in self.events if e.pid == pid]

    def events_of_kind(self, *kinds):
        wanted = set(kinds)
        return [e for e in self.events if e.kind in wanted]

    def dispatches(self):
        return [e for e in self.events if e.kind == "dispatch"]

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
