"""Schedstat-style kernel accounting: the inline (trace-free) path.

Linux keeps scheduler statistics two ways: delay accounting updated
inline in ``kernel/sched/`` (``/proc/<pid>/schedstat``, taskstats) and
tracepoint-driven tooling layered on top.  This module is the
reproduction's inline path.  Two tiers:

* **Always-on delay accounting** lives directly in the kernel structs
  (:class:`~repro.simkernel.task.TaskStats` ``wait_ns``/``sleep_ns``/
  ``block_ns``/``timeslices``, :class:`~repro.simkernel.stats.CpuStats`
  ``steals``) and is maintained by ``DispatchEngine``/
  ``MigrationService``/``LifecycleManager`` with plain integer ops — no
  tracer, no observer, no histogram.  :func:`task_delay_row` reads it
  out, closing any open segment at ``now`` so live tasks report too.

* **Optional aggregation** (:class:`KernelAccounting`) attaches to
  ``kernel.accounting`` and is fed from three gated hook sites (one
  ``is None`` test each, the exact pattern ``kernel.trace`` uses):
  wakeup-latency histogram at dispatch, per-policy run time at
  ``update_curr``, run-queue-depth watermarks at enqueue.  A kernel
  that never attaches one pays only the ``is None`` tests, so the
  shim's quiet crossing stays intact.

Snapshots are plain data and merge exactly across sharded kernels
(:func:`merge_accounting_snapshots`), pairing with
:func:`repro.obs.metrics.merge_registry_snapshots` for fleet roll-ups.
"""

from repro.obs.metrics import Histogram, merge_histogram_snapshots
from repro.simkernel.task import TaskState


def task_delay_row(task, now):
    """Delay-accounting readout for one task, as of ``now``.

    Open segments (a live task is always inside exactly one of run /
    wait / sleep / block) are closed at ``now`` so the four components
    sum to the task's lifetime span.  For DEAD tasks every segment is
    already closed and the sum is exact; for live tasks a dispatch in
    flight (``exec_start_ns`` in the future) can leave the sum a few
    context-switch-costs off — the "± rounding" the report tolerates.
    """
    stats = task.stats
    run_ns = task.sum_exec_runtime_ns
    wait_ns = stats.wait_ns
    sleep_ns = stats.sleep_ns
    block_ns = stats.block_ns
    if task.state == TaskState.RUNNING and task.exec_start_ns < now:
        run_ns += now - task.exec_start_ns
    if stats.wait_since_ns >= 0:
        wait_ns += max(0, now - stats.wait_since_ns)
    if stats.block_since_ns >= 0:
        open_ns = max(0, now - stats.block_since_ns)
        if stats.block_is_sleep:
            sleep_ns += open_ns
        else:
            block_ns += open_ns
    end_ns = stats.finished_ns if stats.finished_ns >= 0 else now
    return {
        "pid": task.pid,
        "name": task.name,
        "policy": task.policy,
        "state": task.state.value,
        "run_ns": run_ns,
        "wait_ns": wait_ns,
        "sleep_ns": sleep_ns,
        "block_ns": block_ns,
        "span_ns": max(0, end_ns - stats.created_ns),
        "timeslices": stats.timeslices,
        "migrations": stats.migrations,
        "preemptions": stats.preemptions,
        "wakeups": stats.wakeups,
        "avg_wakeup_latency_ns": stats.mean_wakeup_latency_ns,
    }


def cpu_rows(kernel, now=None):
    """Per-CPU utilisation readout with open busy/idle segments closed.

    Side-effect free: unlike forcing ``update_curr``, reading adjusted
    values never perturbs vruntime granularity, so attaching telemetry
    cannot change scheduling decisions.
    """
    now = kernel.now if now is None else now
    rows = []
    for cpu_stats in kernel.stats.cpus:
        rq = kernel.rqs[cpu_stats.cpu]
        busy = cpu_stats.busy_ns
        idle = cpu_stats.idle_ns
        cur = rq.current
        if cur is not None and cur.exec_start_ns < now:
            busy += now - cur.exec_start_ns
        elif cur is None and rq.idle_since_ns >= 0:
            idle += now - rq.idle_since_ns
        rows.append({
            "cpu": cpu_stats.cpu,
            "busy_ns": busy,
            "idle_ns": idle,
            "switches": cpu_stats.switches,
            "steals": cpu_stats.steals,
            "nr_running": rq.nr_running,
        })
    return rows


class KernelAccounting:
    """Gated aggregation fed inline from the schedule path."""

    def __init__(self):
        self.kernel = None
        self.wakeup_latency = Histogram("wakeup_latency_ns")
        self.run_ns_by_policy = {}
        self.rq_depth_peak = None     # per-CPU high watermarks, episode-wide
        self.rq_depth_window_peak = 0  # resettable (TelemetrySampler windows)
        self.enqueues = 0

    @classmethod
    def attach(cls, kernel):
        acct = cls()
        acct.kernel = kernel
        acct.rq_depth_peak = [0] * kernel.topology.nr_cpus
        kernel.accounting = acct
        return acct

    def take_window_depth_peak(self):
        """Read and reset the cross-CPU depth peak since the last call."""
        peak = self.rq_depth_window_peak
        self.rq_depth_window_peak = 0
        return peak

    def detach(self):
        """Stop being fed from the hook sites.  The kernel back-reference
        is kept so post-episode snapshots/reports still read out."""
        if self.kernel is not None and self.kernel.accounting is self:
            self.kernel.accounting = None

    # -- hook sites (called from the kernel core, gated on ``is None``) --

    def note_wakeup(self, latency_ns):
        self.wakeup_latency.record(latency_ns)

    def note_run(self, policy, delta_ns):
        by_policy = self.run_ns_by_policy
        by_policy[policy] = by_policy.get(policy, 0) + delta_ns

    def note_enqueue(self, cpu, depth):
        self.enqueues += 1
        if depth > self.rq_depth_peak[cpu]:
            self.rq_depth_peak[cpu] = depth
        if depth > self.rq_depth_window_peak:
            self.rq_depth_window_peak = depth

    # -- readout ---------------------------------------------------------

    def snapshot(self):
        """Plain-data dump: machine totals, per-CPU rows, per-task delay
        rows, the wakeup-latency distribution (with buckets, so two
        shards' snapshots merge exactly)."""
        kernel = self.kernel
        now = kernel.now
        stats = kernel.stats
        rows = cpu_rows(kernel, now)
        for row in rows:
            row["rq_depth_peak"] = self.rq_depth_peak[row["cpu"]]
        return {
            "now_ns": now,
            "machine": {
                "busy_ns": sum(r["busy_ns"] for r in rows),
                "switches": sum(r["switches"] for r in rows),
                "steals": sum(r["steals"] for r in rows),
                "wakeups": stats.total_wakeups,
                "migrations": stats.total_migrations,
                "failed_migrations": stats.failed_migrations,
                "sched_invocations": stats.sched_invocations,
                "hint_drops": stats.hint_drops,
                "enqueues": self.enqueues,
            },
            "cpus": rows,
            "tasks": [task_delay_row(t, now)
                      for t in kernel.tasks.values()],
            "wakeup_latency": self.wakeup_latency.snapshot(),
            "run_ns_by_policy": {str(p): ns for p, ns
                                 in sorted(self.run_ns_by_policy.items())},
        }


def merge_accounting_snapshots(a, b):
    """Merge two :meth:`KernelAccounting.snapshot` dumps exactly.

    Shard semantics: each snapshot describes a disjoint kernel (distinct
    CPUs and tasks), so machine counters sum, task/CPU rows concatenate,
    per-policy run time sums, and the wakeup histograms merge bucket-wise.
    Associative, like every merge in this layer.
    """
    machine = dict(a["machine"])
    for key, value in b["machine"].items():
        machine[key] = machine.get(key, 0) + value
    policies = dict(a["run_ns_by_policy"])
    for policy, ns in b["run_ns_by_policy"].items():
        policies[policy] = policies.get(policy, 0) + ns
    return {
        "now_ns": max(a["now_ns"], b["now_ns"]),
        "machine": machine,
        "cpus": list(a["cpus"]) + list(b["cpus"]),
        "tasks": list(a["tasks"]) + list(b["tasks"]),
        "wakeup_latency": merge_histogram_snapshots(
            a["wakeup_latency"], b["wakeup_latency"]),
        "run_ns_by_policy": dict(sorted(policies.items())),
    }
