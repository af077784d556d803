"""Runtime detection of semantic scheduler bugs.

Paper, section 3.1:

    "Enoki does not aim to prevent all bugs, and bugs that depend on the
    scheduler's semantic behavior can remain uncaught.  For example,
    schedulers implemented with Enoki can deadlock, lose tasks, and
    violate work conservation.  We attempt to catch as many of these bugs
    as we can at runtime, but cannot guarantee that all instances are
    caught."

The watchdog samples kernel state on a period and reports:

* **lost tasks** — a task has been runnable and queued for far longer
  than any plausible scheduling horizon without ever being picked (the
  scheduler dropped it from its policy structures);
* **work-conservation violations** — a CPU sits idle while tasks of the
  scheduler's policy wait on its run queue;
* **starvation** — a runnable task whose wait time exceeds a budget while
  its CPU keeps running other work.

Findings are reports, not exceptions: watchdogs observe, developers
decide.  ``strict=True`` upgrades findings to :class:`SchedulingError`
for test harnesses that want to fail fast.
"""

from dataclasses import dataclass, field

from repro.simkernel.errors import SchedulingError
from repro.simkernel.task import TaskState
from repro.simkernel.tracing import WATCHDOG_FINDING


@dataclass(frozen=True)
class Finding:
    """One detected anomaly."""

    kind: str            # "lost_task" | "work_conservation" | "starvation"
    at_ns: int
    pid: int = -1
    cpu: int = -1
    detail: str = ""


@dataclass
class WatchdogReport:
    findings: list = field(default_factory=list)

    def by_kind(self, kind):
        return [f for f in self.findings if f.kind == kind]

    @property
    def clean(self):
        return not self.findings


class SchedulerWatchdog:
    """Periodic semantic-bug detector for one policy."""

    def __init__(self, kernel, policy, period_ns=1_000_000,
                 lost_task_ns=50_000_000, starvation_ns=20_000_000,
                 idle_grace_ns=100_000, strict=False, escalate=None):
        self.kernel = kernel
        self.policy = policy
        self.period_ns = period_ns
        self.lost_task_ns = lost_task_ns
        self.starvation_ns = starvation_ns
        self.idle_grace_ns = idle_grace_ns
        self.strict = strict
        #: a ContainmentBoundary: a ``lost_task`` finding engages its
        #: (idempotent) failover, which is how tasks a buggy module
        #: *silently dropped* get rescued — no exception ever crossed the
        #: dispatch boundary, only the watchdog can see them.
        self.escalate = escalate
        self.report = WatchdogReport()
        self._flagged = set()       # (kind, pid/cpu) de-duplication
        self._idle_with_work_since = {}
        self._timer = kernel.timers.arm_periodic(
            period_ns, lambda _t: self._scan(), tag=("watchdog", policy))

    def stop(self):
        self._timer.cancel()
        return self.report

    # ------------------------------------------------------------------

    def _emit(self, finding):
        key = (finding.kind, finding.pid, finding.cpu)
        if key in self._flagged:
            return
        self._flagged.add(key)
        self.report.findings.append(finding)
        kernel = self.kernel
        if kernel.trace is not None:
            kernel.trace("watchdog_finding", finding.at_ns, finding.cpu,
                         WATCHDOG_FINDING, finding.kind, self.policy,
                         pid=finding.pid)
        if self.escalate is not None and finding.kind == "lost_task":
            self.escalate.engage_failover(reason="watchdog:lost_task")
        if self.strict:
            raise SchedulingError(
                f"watchdog[{finding.kind}] pid={finding.pid} "
                f"cpu={finding.cpu}: {finding.detail}"
            )

    def _scan(self):
        if not self.kernel.alive_tasks():
            # The machine is done; let the event queue drain (a periodic
            # timer would otherwise keep run_until_idle spinning forever).
            self._timer.cancel()
            return
        now = self.kernel.now
        self._scan_queued_tasks(now)
        self._scan_idle_cpus(now)

    def _scan_queued_tasks(self, now):
        for cpu, rq in enumerate(self.kernel.rqs):
            for pid, task in rq.queued.items():
                if task.policy != self.policy:
                    continue
                if task.state is not TaskState.RUNNABLE:
                    continue
                waited = now - task.last_enqueue_ns
                if waited >= self.lost_task_ns:
                    self._emit(Finding(
                        kind="lost_task", at_ns=now, pid=pid, cpu=cpu,
                        detail=(f"queued for {waited / 1e6:.1f} ms without "
                                "being picked — the scheduler likely "
                                "dropped it"),
                    ))
                elif (waited >= self.starvation_ns
                        and rq.current is not None):
                    self._emit(Finding(
                        kind="starvation", at_ns=now, pid=pid, cpu=cpu,
                        detail=(f"waited {waited / 1e6:.1f} ms while "
                                f"pid {rq.current.pid} holds the CPU"),
                    ))

    def _scan_idle_cpus(self, now):
        for cpu, rq in enumerate(self.kernel.rqs):
            # A busy CPU is never a violation: skip collecting its queue.
            waiting = rq.current is None and [
                pid for pid, task in rq.queued.items()
                if task.policy == self.policy
                and task.state is TaskState.RUNNABLE
                # In-flight wakeups are not violations: the kick is coming.
                and now >= task.kick_at_ns
            ]
            if waiting:
                since = self._idle_with_work_since.setdefault(cpu, now)
                if now - since >= self.idle_grace_ns:
                    self._emit(Finding(
                        kind="work_conservation", at_ns=now, cpu=cpu,
                        pid=waiting[0],
                        detail=(f"cpu idle for {(now - since) / 1e3:.0f} us "
                                f"with {len(waiting)} runnable task(s) "
                                "queued"),
                    ))
            else:
                self._idle_with_work_since.pop(cpu, None)
