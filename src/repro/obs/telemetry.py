"""Continuous telemetry: windowed time-series, SLO monitors, live views.

Where :mod:`repro.obs.accounting` answers "what happened so far",
this module answers "what is happening *now*": a virtual-time
:class:`TelemetrySampler` rides the kernel's timer subsystem and closes a
telemetry window every ``interval_ns``, snapshotting inline accounting
into per-window deltas — utilisation, switch/steal/wakeup/migration
rates, run-queue depth peaks, a per-window wakeup-latency histogram, and
the top tasks by CPU time.  Each window is plain data, so the series
exports to CSV/JSON, renders as a terminal frame (``repro top``), bins
into a latency heatmap, and merges across sharded kernels.

An :class:`SLOMonitor` evaluates declarative targets against every
window's derived metrics and emits ``slo_violation`` trace events plus
registry counters — the signal bus a meta-scheduling control loop (the
ROADMAP's agentic-OS item) subscribes to.

Design constraints, in order:

* **Zero perturbation.**  The sampler only *reads*; open busy/run
  segments are closed arithmetically (see
  :func:`repro.obs.accounting.cpu_rows`), never by forcing
  ``update_curr``, so attaching telemetry cannot change a single
  scheduling decision.
* **No livelock.**  ``run_until_idle`` drains the event heap; a timer
  that re-arms forever would keep the simulation alive forever.  The
  sampler cancels its own periodic chain at the first window boundary
  where no task is left alive (the same cancel-from-callback pattern the
  dispatcher's ``tick`` uses).
* **Bounded memory.**  Windows are retained in a ring
  (``retain`` windows, default 4096) with a dropped counter, like the
  trace ring.
"""

import io
from collections import deque

from repro.obs.accounting import KernelAccounting, cpu_rows, task_delay_row
from repro.obs.metrics import Histogram
from repro.simkernel.task import TaskState

#: default window retention (ring size)
RETAIN_DEFAULT = 4096


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------

class SLOTarget:
    """One declarative service-level objective over window metrics.

    ``metric`` names a key of the window's ``metrics`` dict (e.g.
    ``wakeup_p99_ns``, ``utilisation``, ``rq_depth_max``,
    ``policy7_share``); ``max``/``min`` bound it from above/below.
    """

    __slots__ = ("name", "metric", "max", "min")

    def __init__(self, name, metric, max=None, min=None):
        if max is None and min is None:
            raise ValueError(f"SLO {name!r} needs a max or min bound")
        self.name = name
        self.metric = metric
        self.max = max
        self.min = min

    @classmethod
    def from_dict(cls, spec):
        return cls(spec["name"], spec["metric"],
                   max=spec.get("max"), min=spec.get("min"))

    def to_dict(self):
        out = {"name": self.name, "metric": self.metric}
        if self.max is not None:
            out["max"] = self.max
        if self.min is not None:
            out["min"] = self.min
        return out

    def check(self, metrics):
        """Return a violation dict, or None when the window meets the SLO."""
        value = metrics.get(self.metric)
        if value is None:
            return None
        if self.max is not None and value > self.max:
            return {"slo": self.name, "metric": self.metric,
                    "value": value, "bound": self.max, "kind": "max"}
        if self.min is not None and value < self.min:
            return {"slo": self.name, "metric": self.metric,
                    "value": value, "bound": self.min, "kind": "min"}
        return None


class SLOMonitor:
    """Evaluates a set of :class:`SLOTarget` per telemetry window."""

    def __init__(self, targets, registry=None):
        self.targets = [t if isinstance(t, SLOTarget)
                        else SLOTarget.from_dict(t) for t in targets]
        self.registry = registry
        self.windows_evaluated = 0
        self.violations_by_slo = {t.name: 0 for t in self.targets}

    def evaluate(self, kernel, window_index, end_ns, metrics):
        """Check every target; trace + count violations; return them."""
        self.windows_evaluated += 1
        violations = []
        for target in self.targets:
            violation = target.check(metrics)
            if violation is None:
                continue
            violation["window"] = window_index
            violations.append(violation)
            self.violations_by_slo[target.name] += 1
            if kernel.trace is not None:
                kernel.trace("slo_violation", t=end_ns, cpu=-1,
                             slo=target.name, metric=target.metric,
                             value=violation["value"],
                             bound=violation["bound"])
            if self.registry is not None:
                self.registry.counter("slo.violations").inc()
                self.registry.counter(f"slo.{target.name}.violations").inc()
        return violations

    def summary(self):
        """Per-target verdicts for reports: met iff zero violations."""
        return {
            "windows": self.windows_evaluated,
            "targets": [
                {**t.to_dict(),
                 "violations": self.violations_by_slo[t.name],
                 "met": self.violations_by_slo[t.name] == 0}
                for t in self.targets
            ],
        }


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------

class TelemetrySampler:
    """Fixed-interval windowed snapshots of inline accounting.

    Use :meth:`attach` (arms the periodic timer immediately) and run the
    workload; windows accumulate in ``self.windows``.  ``on_window`` is
    called with each closed window — ``repro top`` renders frames from
    it live, mid-``run_until_idle``.
    """

    def __init__(self, kernel, interval_ns, slos=(), registry=None,
                 retain=RETAIN_DEFAULT, top_k=5, on_window=None):
        if interval_ns <= 0:
            raise ValueError(f"non-positive interval: {interval_ns}")
        self.kernel = kernel
        self.interval_ns = interval_ns
        self.top_k = top_k
        self.on_window = on_window
        self.windows = deque(maxlen=retain)
        self.dropped = 0
        self.monitor = SLOMonitor(slos, registry=registry) if slos else None
        acct = kernel.accounting
        self._own_accounting = acct is None
        self.accounting = (KernelAccounting.attach(kernel)
                           if acct is None else acct)
        self._timer = None
        self._saw_tasks = False
        # Cumulative readings at the last window boundary.
        self._prev = None
        self._prev_hist = Histogram("window_base")
        self._prev_task_run = {}
        self._task_done = set()
        self.started_ns = -1

    @classmethod
    def attach(cls, kernel, interval_ns, **kw):
        sampler = cls(kernel, interval_ns, **kw)
        sampler.start()
        return sampler

    # -- lifecycle -------------------------------------------------------

    def start(self):
        if self._timer is not None:
            return self
        self.started_ns = self.kernel.now
        self._prev = self._cumulative()
        self._prev_hist = self.accounting.wakeup_latency.copy()
        self.accounting.take_window_depth_peak()
        self._timer = self.kernel.timers.arm_periodic(
            self.interval_ns, self._on_tick, tag="telemetry")
        return self

    def stop(self):
        """Cancel the timer and close a final partial window if time has
        advanced past the last boundary (post-episode flush)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._prev is not None and self.kernel.now > self._prev["end_ns"]:
            self._close_window(self.kernel.now)
        if self._own_accounting:
            self.accounting.detach()

    # -- the periodic callback ------------------------------------------

    def _on_tick(self, timer):
        self._close_window(self.kernel.now)
        kernel = self.kernel
        alive = any(t.state != TaskState.DEAD
                    for t in kernel.tasks.values())
        if alive:
            self._saw_tasks = True
        elif self._saw_tasks or kernel.tasks:
            # The episode is over: stop re-arming so ``run_until_idle``
            # can drain.  (A sampler started before any task spawns keeps
            # ticking until it has seen the workload come and go.)
            timer.cancel()
            self._timer = None

    # -- window construction --------------------------------------------

    def _cumulative(self):
        """Side-effect-free cumulative readings at ``kernel.now``."""
        kernel = self.kernel
        stats = kernel.stats
        rows = cpu_rows(kernel)
        return {
            "end_ns": kernel.now,
            "cpus": rows,
            "wakeups": stats.total_wakeups,
            "migrations": stats.total_migrations,
            "failed_migrations": stats.failed_migrations,
            "sched_invocations": stats.sched_invocations,
            "hint_drops": stats.hint_drops,
            "run_ns_by_policy": dict(self.accounting.run_ns_by_policy),
            "groups": ({g.name: (g.total_runtime_ns, g.throttle_count)
                        for g in kernel.groups.all_groups()}
                       if kernel.groups.has_groups() else {}),
        }

    def _task_run_deltas(self, now):
        """Per-task CPU time consumed this window (adjusted, read-only)."""
        deltas = []
        prev = self._prev_task_run
        done = self._task_done
        for pid, task in self.kernel.tasks.items():
            if pid in done:
                continue
            run = task.sum_exec_runtime_ns
            if (task.state == TaskState.RUNNING
                    and task.exec_start_ns < now):
                run += now - task.exec_start_ns
            delta = run - prev.get(pid, 0)
            prev[pid] = run
            if task.state == TaskState.DEAD:
                # Final window for this task; stop scanning it afterwards.
                done.add(pid)
                del prev[pid]
            if delta > 0:
                deltas.append((delta, pid, task))
        deltas.sort(key=lambda d: (-d[0], d[1]))
        return [
            {"pid": pid, "name": task.name, "policy": task.policy,
             "state": task.state.value, "run_ns": delta}
            for delta, pid, task in deltas[:self.top_k]
        ]

    def _close_window(self, end_ns):
        prev = self._prev
        cur = self._cumulative()
        span = end_ns - prev["end_ns"]
        if span <= 0:
            return
        nr_cpus = len(cur["cpus"])
        cpu_windows = []
        busy_delta_total = 0
        runnable = 0
        for before, after in zip(prev["cpus"], cur["cpus"]):
            busy = after["busy_ns"] - before["busy_ns"]
            busy_delta_total += busy
            runnable += after["nr_running"]
            cpu_windows.append({
                "cpu": after["cpu"],
                "busy_ns": busy,
                "switches": after["switches"] - before["switches"],
                "steals": after["steals"] - before["steals"],
                "nr_running": after["nr_running"],
            })
        # Window-delta wakeup histogram: cumulative minus the boundary
        # copy (bucket counts are monotone, so the difference is itself a
        # valid histogram).
        window_hist = self.accounting.wakeup_latency.copy("window")
        base = self._prev_hist
        for index, count in base.buckets.items():
            remaining = window_hist.buckets[index] - count
            if remaining:
                window_hist.buckets[index] = remaining
            else:
                del window_hist.buckets[index]
        window_hist.count -= base.count
        window_hist.sum -= base.sum
        if window_hist.count == 0:
            window_hist.min = window_hist.max = None
        policy_delta = {}
        for policy, ns in cur["run_ns_by_policy"].items():
            delta = ns - prev["run_ns_by_policy"].get(policy, 0)
            if delta:
                policy_delta[policy] = delta
        policy_total = sum(policy_delta.values())
        machine = {
            "busy_ns": busy_delta_total,
            "switches": sum(c["switches"] for c in cpu_windows),
            "steals": sum(c["steals"] for c in cpu_windows),
            "wakeups": cur["wakeups"] - prev["wakeups"],
            "migrations": cur["migrations"] - prev["migrations"],
            "failed_migrations": (cur["failed_migrations"]
                                  - prev["failed_migrations"]),
            "sched_invocations": (cur["sched_invocations"]
                                  - prev["sched_invocations"]),
            "hint_drops": cur["hint_drops"] - prev["hint_drops"],
            "runnable": runnable,
        }
        metrics = {
            "utilisation": busy_delta_total / (span * nr_cpus),
            "wakeup_count": window_hist.count,
            "wakeup_p50_ns": window_hist.percentile(50),
            "wakeup_p99_ns": window_hist.percentile(99),
            "wakeup_p999_ns": window_hist.percentile(99.9),
            "wakeup_max_ns": window_hist.max or 0,
            "rq_depth_max": self.accounting.take_window_depth_peak(),
            "runnable": runnable,
        }
        for policy, delta in sorted(policy_delta.items()):
            metrics[f"policy{policy}_share"] = (
                delta / policy_total if policy_total else 0.0)
        index = len(self.windows) + self.dropped
        window = {
            "index": index,
            "start_ns": prev["end_ns"],
            "end_ns": end_ns,
            "span_ns": span,
            "machine": machine,
            "cpus": cpu_windows,
            "wakeup_latency": window_hist.snapshot(),
            "run_ns_by_policy": {str(p): d
                                 for p, d in sorted(policy_delta.items())},
            "top_tasks": self._task_run_deltas(end_ns),
            "metrics": metrics,
        }
        if cur["groups"]:
            group_windows = {}
            for name, (run, throttles) in cur["groups"].items():
                prev_run, prev_thr = prev["groups"].get(name, (0, 0))
                group = self.kernel.groups.group(name)
                group_windows[name] = {
                    "run_ns": run - prev_run,
                    "throttles": throttles - prev_thr,
                    "parked": len(group.parked),
                    "throttled": group.throttled,
                }
            window["groups"] = group_windows
        if self.monitor is not None:
            window["slo_violations"] = self.monitor.evaluate(
                self.kernel, index, end_ns, metrics)
        if len(self.windows) == self.windows.maxlen:
            self.dropped += 1
        self.windows.append(window)
        self._prev = cur
        self._prev_hist = self.accounting.wakeup_latency.copy()
        if self.on_window is not None:
            self.on_window(window)

    # -- readout ---------------------------------------------------------

    def summary(self):
        """Deterministic roll-up for bench result files."""
        windows = list(self.windows)
        out = {
            "interval_ns": self.interval_ns,
            "windows": len(windows) + self.dropped,
            "windows_dropped": self.dropped,
            "wakeup_latency": self.accounting.wakeup_latency.snapshot(),
            "series": {
                "end_ns": [w["end_ns"] for w in windows],
                "utilisation": [round(w["metrics"]["utilisation"], 6)
                                for w in windows],
                "wakeup_p99_ns": [w["metrics"]["wakeup_p99_ns"]
                                  for w in windows],
                "runnable": [w["metrics"]["runnable"] for w in windows],
            },
        }
        if self.monitor is not None:
            out["slo"] = self.monitor.summary()
        return out


# ----------------------------------------------------------------------
# derived views: heatmap, CSV, terminal frames, reports
# ----------------------------------------------------------------------

def latency_heatmap(windows, key="wakeup_latency"):
    """Bin per-window latency histograms into a windows x octaves grid.

    Columns are powers of two of nanoseconds (log-bucket octaves), rows
    are windows; cell values are sample counts.  The octave coarsening
    keeps the grid narrow enough to render while preserving the shape a
    tail-latency regression shows up as.
    """
    from repro.obs.metrics import _bucket_bounds

    octaves = set()
    per_window = []
    for window in windows:
        counts = {}
        for index, count in window[key].get("buckets", []):
            lower, _upper = _bucket_bounds(index)
            octave = lower.bit_length()     # 2^(o-1) <= lower < 2^o
            counts[octave] = counts.get(octave, 0) + count
            octaves.add(octave)
        per_window.append(counts)
    columns = sorted(octaves)
    return {
        "octave_upper_bounds_ns": [1 << o for o in columns],
        "window_end_ns": [w["end_ns"] for w in windows],
        "rows": [[counts.get(o, 0) for o in columns]
                 for counts in per_window],
    }


TIMESERIES_COLUMNS = (
    "index", "start_ns", "end_ns", "utilisation", "runnable",
    "wakeup_count", "wakeup_p50_ns", "wakeup_p99_ns", "wakeup_max_ns",
    "switches", "steals", "wakeups", "migrations", "rq_depth_max",
)


def timeseries_csv(windows):
    """The window series as CSV text (stable column order)."""
    out = io.StringIO()
    out.write(",".join(TIMESERIES_COLUMNS) + "\n")
    for window in windows:
        metrics = window["metrics"]
        machine = window["machine"]
        row = {
            "index": window["index"],
            "start_ns": window["start_ns"],
            "end_ns": window["end_ns"],
            "utilisation": round(metrics["utilisation"], 6),
            "runnable": metrics["runnable"],
            "wakeup_count": metrics["wakeup_count"],
            "wakeup_p50_ns": round(metrics["wakeup_p50_ns"]),
            "wakeup_p99_ns": round(metrics["wakeup_p99_ns"]),
            "wakeup_max_ns": metrics["wakeup_max_ns"],
            "switches": machine["switches"],
            "steals": machine["steals"],
            "wakeups": machine["wakeups"],
            "migrations": machine["migrations"],
            "rq_depth_max": metrics["rq_depth_max"],
        }
        out.write(",".join(str(row[c]) for c in TIMESERIES_COLUMNS) + "\n")
    return out.getvalue()


def render_top_frame(window, width=72):
    """One ``repro top`` frame: machine line, per-CPU bars, top tasks."""
    metrics = window["metrics"]
    machine = window["machine"]
    span_ms = window["span_ns"] / 1e6
    lines = [
        f"window {window['index']:<4d} "
        f"t={window['end_ns'] / 1e6:10.3f} ms  (span {span_ms:.3f} ms)",
        f"util {metrics['utilisation'] * 100:5.1f}%  "
        f"runnable {metrics['runnable']:<3d} "
        f"switches {machine['switches']:<6d} "
        f"wakeups {machine['wakeups']:<6d} "
        f"migrations {machine['migrations']:<4d} "
        f"rq-depth-max {metrics['rq_depth_max']}",
        f"wakeup latency: p50 {metrics['wakeup_p50_ns'] / 1e3:8.1f} us  "
        f"p99 {metrics['wakeup_p99_ns'] / 1e3:8.1f} us  "
        f"max {metrics['wakeup_max_ns'] / 1e3:8.1f} us  "
        f"(n={metrics['wakeup_count']})",
    ]
    violations = window.get("slo_violations") or []
    for violation in violations:
        lines.append(
            f"  !! SLO {violation['slo']}: {violation['metric']}="
            f"{violation['value']:.0f} breaches {violation['kind']} "
            f"{violation['bound']}"
        )
    bar_width = 30
    span = window["span_ns"]
    lines.append("  cpu  util " + " " * (bar_width - 4)
                 + "  switches  steals  nr_run")
    for cpu in window["cpus"]:
        share = min(1.0, cpu["busy_ns"] / span) if span else 0.0
        bar = "#" * round(share * bar_width)
        lines.append(
            f"  {cpu['cpu']:>3d} {share * 100:5.1f}% |{bar:<{bar_width}s}| "
            f"{cpu['switches']:>8d} {cpu['steals']:>7d} "
            f"{cpu['nr_running']:>7d}"
        )
    groups = window.get("groups")
    if groups:
        capacity = span * len(window["cpus"])
        lines.append("  task groups (window CPU share):")
        for name, row in sorted(groups.items()):
            share = row["run_ns"] / capacity if capacity else 0.0
            state = "THROTTLED" if row["throttled"] else ""
            lines.append(
                f"    {name:<20.20s} {share * 100:6.1f}% "
                f"throttles {row['throttles']:<3d} "
                f"parked {row['parked']:<3d} {state}"
            )
    if window["top_tasks"]:
        lines.append("  top tasks (window CPU time):")
        for task in window["top_tasks"]:
            share = task["run_ns"] / span if span else 0.0
            lines.append(
                f"    {task['pid']:>5d} {task['name']:<20.20s} "
                f"pol {task['policy']:<3d} {task['state']:<9s}"
                f"{share * 100:6.1f}% ({task['run_ns']} ns)"
            )
    return "\n".join(line[:width * 2] for line in lines)


def build_report(kernel, sampler=None, meta=None):
    """Post-episode summary: accounting + SLO verdicts + heatmap.

    Plain data, rendered to JSON by the CLI (``repro report --json``) or
    markdown via :func:`render_report_markdown`.
    """
    acct = (sampler.accounting if sampler is not None
            else kernel.accounting)
    report = {
        "kind": "repro.obs report",
        "episode": dict(meta or {}),
        "now_ns": kernel.now,
    }
    report["episode"].setdefault("simulated_ns", kernel.now)
    if acct is not None:
        snap = acct.snapshot()
        report["machine"] = snap["machine"]
        report["cpus"] = snap["cpus"]
        report["tasks"] = sorted(snap["tasks"], key=lambda t: t["pid"])
        report["wakeup_latency"] = snap["wakeup_latency"]
        report["run_ns_by_policy"] = snap["run_ns_by_policy"]
    else:
        report["tasks"] = sorted(
            (task_delay_row(t, kernel.now) for t in kernel.tasks.values()),
            key=lambda t: t["pid"])
        report["cpus"] = cpu_rows(kernel)
    if sampler is not None:
        windows = list(sampler.windows)
        report["telemetry"] = sampler.summary()
        report["windows"] = windows
        report["heatmap"] = latency_heatmap(windows)
        if sampler.monitor is not None:
            report["slo"] = sampler.monitor.summary()
    return report


def render_report_markdown(report):
    """Human-readable (markdown) form of :func:`build_report` output."""
    lines = [f"# {report['kind']}", ""]
    episode = report.get("episode", {})
    if episode:
        lines.append("## episode")
        for key, value in sorted(episode.items()):
            lines.append(f"- {key}: {value}")
        lines.append("")
    if "machine" in report:
        lines.append("## machine")
        for key, value in sorted(report["machine"].items()):
            lines.append(f"- {key}: {value}")
        lines.append("")
    hist = report.get("wakeup_latency")
    if hist and hist.get("count"):
        lines.append("## wakeup latency (ns)")
        lines.append(
            f"- n={hist['count']} mean={hist['mean']:.0f} "
            f"p50={hist['p50']:.0f} p99={hist['p99']:.0f} "
            f"max={hist['max']}")
        lines.append("")
    slo = report.get("slo")
    if slo:
        lines.append(f"## SLO verdicts ({slo['windows']} windows)")
        for target in slo["targets"]:
            verdict = "MET" if target["met"] else \
                f"VIOLATED x{target['violations']}"
            bound = (f"max={target['max']}" if "max" in target
                     else f"min={target['min']}")
            lines.append(
                f"- {target['name']}: {target['metric']} {bound} "
                f"-> {verdict}")
        lines.append("")
    tasks = report.get("tasks") or []
    if tasks:
        lines.append("## per-task delay accounting (ns)")
        lines.append("| pid | name | policy | run | wait | sleep | block "
                     "| slices | migr | wakeups |")
        lines.append("|---|---|---|---|---|---|---|---|---|---|")
        for task in tasks:
            lines.append(
                f"| {task['pid']} | {task['name']} | {task['policy']} "
                f"| {task['run_ns']} | {task['wait_ns']} "
                f"| {task['sleep_ns']} | {task['block_ns']} "
                f"| {task['timeslices']} | {task['migrations']} "
                f"| {task['wakeups']} |")
        lines.append("")
    cpus = report.get("cpus") or []
    if cpus:
        lines.append("## per-CPU")
        lines.append("| cpu | busy_ns | idle_ns | switches | steals |")
        lines.append("|---|---|---|---|---|")
        for cpu in cpus:
            lines.append(
                f"| {cpu['cpu']} | {cpu['busy_ns']} | {cpu['idle_ns']} "
                f"| {cpu['switches']} | {cpu['steals']} |")
        lines.append("")
    telemetry = report.get("telemetry")
    if telemetry:
        lines.append(
            f"## telemetry: {telemetry['windows']} windows @ "
            f"{telemetry['interval_ns']} ns")
        series = telemetry["series"]
        if series["end_ns"]:
            util = series["utilisation"]
            lines.append(
                f"- utilisation: first={util[0]:.3f} last={util[-1]:.3f} "
                f"peak={max(util):.3f}")
            p99 = series["wakeup_p99_ns"]
            lines.append(
                f"- wakeup p99 (ns): first={p99[0]:.0f} "
                f"last={p99[-1]:.0f} peak={max(p99):.0f}")
        lines.append("")
    return "\n".join(lines)
