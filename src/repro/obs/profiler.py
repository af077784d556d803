"""Per-callback profiling of Enoki scheduler message handlers.

Reproduces the spirit of the paper's overhead ablation (section 5.2's
"100-150 ns of overhead per invocation"): for every ``EnokiScheduler``
trait method dispatched through Enoki-C, the profiler accumulates

* **virtual time** — the modelled kernel cost the dispatch charges into
  the simulation (constant per hook, from :class:`SimConfig`), and
* **wall time** — how long the Python handler actually took, with a
  log-bucketed histogram so ``repro stats`` can print p50/p90/p99/p999
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

    @property
    def mean_virtual_ns(self):
        return self.virtual_ns / self.count if self.count else 0.0


class CallbackProfiler:
    """Profiles every message dispatched into one (or more) schedulers."""

    def __init__(self):
        self.hooks = {}             # trait method name -> CallbackProfile
        self.policies = set()       # policies that fed this profiler
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

    def note(self, hook, virtual_ns, wall_ns, policy=None):
        profile = self.hooks.get(hook)
        if profile is None:
            profile = self.hooks[hook] = CallbackProfile(hook)
        profile.count += 1
        profile.virtual_ns += virtual_ns
        profile.wall_ns += wall_ns
        profile.wall_hist.record(wall_ns)
        if policy is not None:
            self.policies.add(policy)

    # -- aggregation -----------------------------------------------------

    def total_calls(self):
        return sum(p.count for p in self.hooks.values())

    def total_virtual_ns(self):
        """Modelled kernel time spent inside scheduler callbacks."""
        return sum(p.virtual_ns for p in self.hooks.values())

    def total_wall_ns(self):
        return sum(p.wall_ns for p in self.hooks.values())

    def publish(self, registry, prefix="enoki"):
        """Set the accumulated totals in a :class:`MetricsRegistry`
        (idempotent: the profiler, not the registry, holds the counts)."""
        for hook, profile in sorted(self.hooks.items()):
            registry.counter(f"{prefix}.calls.{hook}").value = profile.count
            registry.gauge(
                f"{prefix}.virtual_ns.{hook}").set(profile.virtual_ns)
            name = f"{prefix}.wall_ns.{hook}"
            registry.histograms[name] = profile.wall_hist.copy(name)
        registry.counter(f"{prefix}.calls.total").value = self.total_calls()
        registry.gauge(
            f"{prefix}.virtual_ns.total").set(self.total_virtual_ns())

    def report(self):
        """Per-callback latency table (wall-time percentiles in us)."""
        lines = [
            f"  {'callback':<24s} {'calls':>8s} {'virt us':>10s} "
            f"{'wall p50':>9s} {'wall p90':>9s} {'wall p99':>9s} "
            f"{'wall p999':>9s}"
        ]
        for hook, profile in sorted(self.hooks.items()):
            q = profile.wall_hist.quantiles()
            lines.append(
                f"  {hook:<24s} {profile.count:>8d} "
                f"{profile.virtual_ns / 1e3:>10.1f} "
                f"{q['p50'] / 1e3:>9.3f} {q['p90'] / 1e3:>9.3f} "
                f"{q['p99'] / 1e3:>9.3f} {q['p999'] / 1e3:>9.3f}"
            )
        total = (f"  {'TOTAL':<24s} {self.total_calls():>8d} "
                 f"{self.total_virtual_ns() / 1e3:>10.1f}")
        lines.append(total)
        return "\n".join(lines)
