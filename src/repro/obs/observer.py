"""The one-stop observability attach point.

``Observer.attach(kernel)`` wires every layer of the stack at once:

* installs itself as the kernel trace hook (it *is* a
  :class:`~repro.simkernel.tracing.SchedTracer`, so all tracer queries —
  ``timeline``, ``busy_ns``, ``events_of_kind`` — work on it) and
  routes its metrics off the tracer's single intake, by event kind;
* finds every loaded Enoki shim and installs a
  :class:`~repro.obs.profiler.CallbackProfiler` on it;
* hooks each scheduler's quiesce read-write lock so acquisitions appear
  in the event stream;
* maintains a :class:`~repro.obs.metrics.MetricsRegistry` fed live: the
  intake itself bumps the kind's ``events.<kind>`` counter (the route
  cache holds the registry's own :class:`~repro.obs.metrics.Counter`, so
  a read without :meth:`collect` sees it), the value metrics and the
  named counters (``_VALUE_METRICS``, ``_EVENT_COUNTERS``) are sinks
  routed by kind; :meth:`collect` adds the kernel's aggregate statistics
  and per-task wakeup-latency distributions.

Detaching restores the null-hook fast path everywhere, so a kernel that
never attaches an Observer pays only a handful of ``is None`` tests;
attaching one does not perturb the simulation either — an observed
episode ends in the bare episode's state digest
(``tests/test_observed_equivalence.py``).

A ``kinds=`` filter narrows what the ring buffer *retains*, nothing
else: a filtered kind is counted in ``filtered`` and still bumps its
``events.<kind>`` counter, feeds its metrics and reaches the sanitizers.

The same attach point powers verification:
:class:`~repro.verify.sanitizers.SanitizerSuite` subclasses ``Observer``
to route invariant checkers (token discipline, task conservation, lock
order, hint-ring accounting) off the same intake, each by event kind.
"""

from repro.obs.export import write_chrome, write_ftrace
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import CallbackProfiler
from repro.simkernel.tracing import SchedTracer


#: kind -> (registry family, metric, field): the metric the field's value
#: feeds on every event of the kind
_VALUE_METRICS = {
    "dispatch": ("histogram", "kernel.dispatch_cost_ns", "cost"),
    "enoki_msg": ("histogram", "enoki.msg_wall_ns", "wall_ns"),
    # The gauge's max watermark is the peak ring pressure.
    "hint_enqueue": ("gauge", "enoki.hint_ring_depth", "depth"),
}

#: kind -> counters bumped on every event of the kind; ``{name}`` is the
#: event's field of that name
_EVENT_COUNTERS = {
    "slo_violation": ("slo.traced.{slo}",),
    "enoki_panic": ("containment.panics", "containment.panic.{hook}"),
    "failover": ("containment.failovers",),
    "throttle": ("group_throttles", "groups.{group}.throttles"),
    "quota_refill": ("group_refills",),
    "watchdog_finding": ("watchdog.{finding}",),
}

#: ``SchedulerRwLock.on_event`` op -> trace kind
_RWLOCK_KINDS = {op: "rwlock_" + op for op in (
    "read_acquire", "read_release", "write_acquire", "write_release")}


class Observer(SchedTracer):
    """Full-stack tracer + metrics + profilers for one kernel."""

    def __init__(self, capacity=200_000, kinds=None, registry=None):
        super().__init__(capacity, kinds=kinds)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.add_route(self._feeder_route)
        self.profilers = {}         # policy -> CallbackProfiler
        self._hooked_rwlocks = []
        self._observed_shims = []

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, kernel, capacity=200_000, kinds=None):
        """Install on ``kernel`` and instrument every loaded Enoki shim."""
        observer = super().attach(kernel, capacity, kinds=kinds)
        observer.observe_framework()
        return observer

    def observe_framework(self):
        """(Re)discover Enoki shims on the attached kernel and instrument
        them.  Call again after registering a scheduler post-attach."""
        kernel = self._kernel
        if kernel is None:
            return
        for _prio, sched_class in kernel._classes:
            lib = getattr(sched_class, "lib", None)
            if lib is None or not hasattr(sched_class, "profiler"):
                continue                      # not an Enoki shim
            if sched_class in self._observed_shims:
                continue
            profiler = self.profilers.get(sched_class.policy)
            if profiler is None:
                profiler = CallbackProfiler()
                self.profilers[sched_class.policy] = profiler
            profiler.install(sched_class)
            self._observed_shims.append(sched_class)
            rwlock = lib.rwlock
            if rwlock.on_event is None:
                rwlock.on_event = self._rwlock_hook
                self._hooked_rwlocks.append(rwlock)
                sched_class.refresh_mode()

    def detach(self):
        for rwlock in self._hooked_rwlocks:
            if rwlock.on_event == self._rwlock_hook:
                rwlock.on_event = None
        self._hooked_rwlocks = []
        for profiler in self.profilers.values():
            profiler.uninstall()
        self._observed_shims = []
        super().detach()

    # ------------------------------------------------------------------
    # event ingestion
    # ------------------------------------------------------------------

    def _counter(self, kind):
        return self.registry.counter("events." + kind)

    def _feeder_route(self, kind):
        registry = self.registry
        if kind in _VALUE_METRICS:
            family, name, key = _VALUE_METRICS[kind]
            metric = getattr(registry, family)(name)
            feed = metric.record if family == "histogram" else metric.set
            return lambda kind, t, cpu, pid, fields: feed(fields.get(key, 0))
        names = _EVENT_COUNTERS.get(kind, ())

        def bump(kind, t, cpu, pid, fields):
            for name in names:
                registry.counter(name.format_map(fields)).inc()
        return bump if names else None

    def _rwlock_hook(self, op, name):
        kernel = self._kernel
        if kernel is None:
            return
        self._hook(_RWLOCK_KINDS[op], kernel.clock.now, lock=name)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def collect(self):
        """Rebuild the registry's kernel aggregates (idempotently) from
        the kernel's own state; returns the registry."""
        kernel = self._kernel
        registry = self.registry
        if kernel is None:
            return registry
        stats = kernel.stats
        registry.gauge("kernel.total_wakeups").set(stats.total_wakeups)
        registry.gauge("kernel.total_migrations").set(stats.total_migrations)
        registry.gauge("kernel.failed_migrations").set(
            stats.failed_migrations)
        registry.gauge("kernel.pick_errors").set(stats.pick_errors)
        registry.gauge("kernel.sched_invocations").set(
            stats.sched_invocations)
        registry.gauge("kernel.hint_drops").set(stats.hint_drops)
        registry.gauge("kernel.contained_panics").set(
            stats.contained_panics)
        registry.gauge("kernel.failovers").set(stats.failovers)
        registry.gauge("kernel.busy_ns_total").set(stats.busy_ns_total())
        registry.gauge("kernel.now_ns").set(kernel.now)
        for cpu_stats in stats.cpus:
            prefix = f"cpu{cpu_stats.cpu}"
            registry.gauge(f"kernel.{prefix}.busy_ns").set(cpu_stats.busy_ns)
            registry.gauge(f"kernel.{prefix}.idle_ns").set(cpu_stats.idle_ns)
            registry.gauge(f"kernel.{prefix}.switches").set(
                cpu_stats.switches)
            registry.gauge(f"kernel.{prefix}.steals").set(cpu_stats.steals)
            registry.gauge(f"kernel.{prefix}.nr_running").set(
                kernel.rqs[cpu_stats.cpu].nr_running)
        for name, snap in sorted(kernel.groups.snapshot().items()):
            prefix = f"groups.{name}"
            registry.gauge(f"{prefix}.runtime_ns").set(
                snap["total_runtime_ns"])
            registry.gauge(f"{prefix}.weight").set(snap["weight"])
            registry.gauge(f"{prefix}.throttled_ns").set(
                snap["throttled_ns"])
            registry.gauge(f"{prefix}.parked").set(snap["parked"])
            if snap["quota_ns"]:
                registry.gauge(f"{prefix}.quota_ns").set(snap["quota_ns"])
                registry.gauge(f"{prefix}.periods").set(snap["periods"])
                registry.gauge(f"{prefix}.max_period_consumed_ns").set(
                    snap["max_period_consumed_ns"])
        latency_hist = Histogram("task.wakeup_latency_ns")
        for task in kernel.tasks.values():
            for sample in task.stats.wakeup_latencies:
                latency_hist.record(sample)
        registry.histograms[latency_hist.name] = latency_hist
        for policy, profiler in sorted(self.profilers.items()):
            profiler.publish(registry, prefix=f"enoki.policy{policy}")
        return registry

    # ------------------------------------------------------------------
    # reporting and export
    # ------------------------------------------------------------------

    def _task_names(self):
        kernel = self._kernel
        if kernel is None:
            return {}
        return {pid: task.name for pid, task in kernel.tasks.items()}

    def report(self):
        """The ``repro stats`` text report."""
        self.collect()
        sections = []
        summary = self.summary()
        if summary:
            sections.append("events by kind:")
            sections.extend(
                f"  {kind:<24s} {count}"
                for kind, count in sorted(summary.items())
            )
        if self.dropped:
            sections.append(f"  (ring wrapped: {self.dropped} events "
                            "dropped)")
        for policy, profiler in sorted(self.profilers.items()):
            if profiler.total_calls():
                sections.append(
                    f"per-callback profile (policy {policy}):")
                sections.append(profiler.report())
        sections.append(self.registry.render())
        return "\n".join(sections)

    def export_chrome(self, path):
        """Write a Perfetto-loadable Chrome trace of everything captured."""
        return write_chrome(self.events, path,
                            task_names=self._task_names())

    def export_ftrace(self, path):
        """Write an ftrace-style text log of everything captured."""
        return write_ftrace(self.events, path,
                            task_names=self._task_names())
