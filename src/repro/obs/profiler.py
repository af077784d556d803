"""Per-callback profiling of Enoki scheduler message handlers.

Reproduces the spirit of the paper's overhead ablation (section 5.2's
"100-150 ns of overhead per invocation"): for every ``EnokiScheduler``
trait method dispatched through Enoki-C, the profiler accumulates

* **virtual time** — the modelled kernel cost the dispatch charges into
  the simulation (constant per hook, from :class:`SimConfig`), and
* **wall time** — how long the Python handler actually took, with a
  log-bucketed histogram so ``repro trace`` can print p50/p90/p99/p999
  per callback.

Enoki-C consults a single ``profiler`` attribute before dispatch; when it
is None (the default) the fast path does no extra work, so benchmark
numbers are unaffected unless profiling is switched on.
"""

from repro.obs.metrics import Histogram


class CallbackProfile:
    """Accumulated cost of one trait method (e.g. ``pick_next_task``)."""

    __slots__ = ("hook", "count", "virtual_ns", "wall_ns", "wall_hist")

    def __init__(self, hook):
        self.hook = hook
        self.count = 0
        self.virtual_ns = 0
        self.wall_ns = 0
        self.wall_hist = Histogram(f"enoki.{hook}.wall_ns")


class CallbackProfiler:
    """Profiles every message dispatched into one (or more) schedulers."""

    def __init__(self):
        self.hooks = {}             # trait method name -> CallbackProfile
        self._shims = []

    # -- wiring ----------------------------------------------------------

    def install(self, shim):
        """Start profiling an :class:`EnokiSchedClass` shim."""
        shim.profiler = self
        self._shims.append(shim)
        return self

    def uninstall(self):
        for shim in self._shims:
            if shim.profiler is self:
                shim.profiler = None
        self._shims = []

    # -- ingestion (called by Enoki-C on every dispatch) ------------------

    def note(self, hook, virtual_ns, wall_ns):
        hooks = self.hooks
        if hook in hooks:
            profile = hooks[hook]
        else:
            profile = hooks[hook] = CallbackProfile(hook)
        profile.count += 1
        profile.virtual_ns += virtual_ns
        profile.wall_ns += wall_ns
        profile.wall_hist.record(wall_ns)

    # -- aggregation -----------------------------------------------------

    def total_calls(self):
        return sum(p.count for p in self.hooks.values())

    def total_virtual_ns(self):
        """Modelled kernel time spent inside scheduler callbacks."""
        return sum(p.virtual_ns for p in self.hooks.values())

    def total_wall_ns(self):
        return sum(p.wall_ns for p in self.hooks.values())

    def publish(self, registry, prefix, msg_wall):
        """Set the accumulated totals in a :class:`MetricsRegistry`
        (idempotent: the profiler, not the registry, holds the counts),
        and add every hook's wall samples to the ``msg_wall`` histogram."""
        for hook, profile in sorted(self.hooks.items()):
            registry.counter(f"{prefix}.calls.{hook}").value = profile.count
            registry.gauge(
                f"{prefix}.virtual_ns.{hook}").set(profile.virtual_ns)
            name = f"{prefix}.wall_ns.{hook}"
            registry.histograms[name] = profile.wall_hist.copy(name)
            msg_wall.merge(profile.wall_hist)
        registry.counter(f"{prefix}.calls.total").value = self.total_calls()
        registry.gauge(
            f"{prefix}.virtual_ns.total").set(self.total_virtual_ns())
