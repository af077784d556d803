"""Fault containment and scheduler failover.

The paper's promise (section 3.1) is that scheduler bugs stop crashing
the machine.  The token discipline and ``pnt_err`` routing catch *invalid
answers*; this module catches everything else:

* **exceptions** escaping any scheduler callback are recorded as panics
  and degraded to a no-op response where semantics allow (``task_tick``,
  ``balance``, state notifications);
* **virtual-time overruns** (a callback charging far more than its
  budget, e.g. an injected hang) count as strikes;
* **invalid responses** (stale tokens, wrong-core picks, foreign balance
  answers) are tallied separately — they are part of the paper's normal
  ``pnt_err`` flow and do not trigger failover unless explicitly asked.

After a configurable strike threshold — or immediately for
non-recoverable callbacks like ``pick_next_task``, whose answer the
kernel needs *now* — the boundary **fails over**: quiesce through the
scheduler rwlock, mark the shim dead, drain live tokens, requeue every
queued Enoki task into a fallback native class, and redirect the policy
so running/blocked tasks are adopted lazily at their next state change.
Tasks keep their policy number, so hint handlers stay routed and
watchdogs keep watching; only ``class_of`` resolution changes.  Not a
single task is lost — the guarantee ``tests/test_faults.py`` enforces
under every built-in fault plan.
"""

import traceback
from dataclasses import dataclass, field

from repro.core.errors import EnokiError, FailoverError, InjectedFault
from repro.simkernel.task import TaskState

#: callbacks whose response the kernel consumes synchronously: a crash
#: here cannot be degraded to a no-op, the class must fail over (or, with
#: no fallback registered, the bug surfaces as it would have unguarded)
NONRECOVERABLE_HOOKS = frozenset({"pick_next_task"})


@dataclass(frozen=True)
class PanicRecord:
    """One contained scheduler failure."""

    at_ns: int
    hook: str
    kind: str                   # "exception" | "overrun"
    message: str                # repr of the triggering message
    detail: str                 # traceback / overrun description
    strike: int                 # strike count after this panic


@dataclass(frozen=True)
class FailoverReport:
    """What one failover did."""

    at_ns: int
    from_policy: int
    to_policy: int
    reason: str
    requeued_pids: tuple        # RUNNABLE tasks moved into the fallback
    lazy_pids: tuple            # RUNNING/BLOCKED tasks adopted on demand

    @property
    def transferred(self):
        return len(self.requeued_pids) + len(self.lazy_pids)


@dataclass
class ContainmentPolicy:
    """Knobs for the containment boundary."""

    #: exceptions/overruns before a recoverable callback forces failover
    strike_threshold: int = 3
    #: invalid responses before failover; None = never (stale tokens are
    #: part of the paper's normal pnt_err flow, not necessarily fatal)
    bad_response_threshold: int = None
    #: virtual time a single callback may charge before it counts as an
    #: overrun strike (the per-callback watchdog budget)
    callback_budget_ns: int = 1_000_000
    #: wall-clock budget per callback; None disables (wall time is only
    #: measured when an observer/profiler is attached, and wall-based
    #: strikes are inherently non-deterministic)
    wall_budget_ns: int = None
    #: policy number of the class to fail over to; None = the highest
    #: priority native (non-Enoki) class registered on the kernel
    fallback_policy: int = None


class ContainmentBoundary:
    """Per-shim panic ledger + strike counter + failover trigger."""

    def __init__(self, shim, policy=None):
        self.shim = shim
        self.policy = policy if policy is not None else ContainmentPolicy()
        self.panics = []
        self.strikes = 0
        self.bad_responses = 0
        self.failover_report = None
        #: re-entrancy latch: a containment strike and a watchdog
        #: escalation can land in the same event step, and the transfer
        #: itself (requeue -> task_new -> scheduler callback) can strike
        #: again while the failover is still in progress.  The latch
        #: makes every such nested/duplicate request a no-op.
        self._engaging = False
        #: escalations absorbed by the latch or the failed flag (visible
        #: so tests and the watchdog can assert single-fire behaviour)
        self.suppressed_escalations = 0

    # ------------------------------------------------------------------
    # entry points from the dispatch path
    # ------------------------------------------------------------------

    def contain(self, exc, message):
        """Handle an exception that escaped ``lib.dispatch``.

        Returns the degraded (no-op) response, or re-raises when the
        failure is a framework protocol violation or cannot be contained.
        """
        shim = self.shim
        if (not isinstance(exc, InjectedFault)
                and isinstance(exc, EnokiError)
                and shim.lib.rwlock.write_held):
            # The quiesce guard fired: a dispatch raced the upgrade
            # writer.  That is a framework protocol violation, not a
            # scheduler bug — never swallow it.
            raise exc
        hook = message.FUNCTION
        self.strikes += 1
        self._record_panic(hook, "exception", message,
                           traceback.format_exc())
        if hook in NONRECOVERABLE_HOOKS or self._struck_out():
            report = self.engage_failover(
                reason=f"exception in {hook}: {exc!r}"
            )
            if report is None and hook in NONRECOVERABLE_HOOKS:
                # No fallback class to hand the CPU to: surfacing the
                # bug is the pre-containment behaviour.
                raise exc
        return None

    def after_dispatch(self, message):
        """Post-dispatch checks: charge injected hangs, strike overruns."""
        injector = self.shim.fault_injector
        if injector is None or injector.pending_overrun_ns == 0:
            return
        overrun = injector.take_overrun_ns()
        # The hang consumed real (virtual) CPU time: charge it into the
        # kernel's cost accounting like any other scheduler-induced work.
        self.shim._extra_cost_ns += overrun
        if overrun > self.policy.callback_budget_ns:
            self.note_overrun(message.FUNCTION, overrun, message=message)

    # ------------------------------------------------------------------
    # strike sources
    # ------------------------------------------------------------------

    def note_overrun(self, hook, overrun_ns, message=None):
        """A callback charged more virtual time than its budget."""
        self.strikes += 1
        self._record_panic(
            hook, "overrun", message,
            f"callback charged {overrun_ns} ns "
            f"(budget {self.policy.callback_budget_ns} ns)",
        )
        if self._struck_out():
            self.engage_failover(
                reason=f"overrun in {hook}: {overrun_ns} ns"
            )

    def note_bad_response(self, hook, detail):
        """An invalid answer (stale token, foreign pid, bad core).

        These route through the paper's pnt_err/sanitise flow and are
        survivable, so they only force failover past an explicit
        ``bad_response_threshold``.
        """
        self.bad_responses += 1
        threshold = self.policy.bad_response_threshold
        if threshold is not None and self.bad_responses >= threshold:
            self.engage_failover(
                reason=f"bad response in {hook}: {detail}"
            )

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------

    def engage_failover(self, reason="requested"):
        """Fail the shim over to its fallback class (idempotent).

        Idempotent in the strong sense: once a failover has completed —
        or while one is in progress in this very event step — any further
        call (second strike, watchdog escalation, explicit request)
        returns the first report without touching the
        :class:`FailoverManager` again.

        Returns the :class:`FailoverReport`, or None when no fallback
        class is available (the boundary then keeps degrading instead).
        """
        shim = self.shim
        if shim.failed or self._engaging:
            self.suppressed_escalations += 1
            return self.failover_report
        manager = FailoverManager(
            shim, fallback_policy=self.policy.fallback_policy
        )
        fallback = manager.find_fallback()
        if fallback is None:
            return None
        self._engaging = True
        try:
            self.failover_report = manager.engage(fallback, reason=reason)
        finally:
            self._engaging = False
        return self.failover_report

    # ------------------------------------------------------------------

    def _struck_out(self):
        return self.strikes >= self.policy.strike_threshold

    def _record_panic(self, hook, kind, message, detail):
        shim = self.shim
        kernel = shim.kernel
        now = kernel.now if kernel is not None else 0
        record = PanicRecord(
            at_ns=now, hook=hook, kind=kind,
            message=repr(message) if message is not None else "",
            detail=detail, strike=self.strikes,
        )
        self.panics.append(record)
        if kernel is not None:
            kernel.stats.contained_panics += 1
            if kernel.trace is not None:
                kernel.trace("enoki_panic", t=now, cpu=-1,
                             policy=shim.policy, hook=hook,
                             panic_kind=kind, strike=self.strikes)
        return record


class FailoverManager:
    """Moves every task of a failed Enoki shim into a fallback class."""

    def __init__(self, shim, fallback_policy=None):
        self.shim = shim
        self.fallback_policy = fallback_policy

    def find_fallback(self):
        """The class to fail over to: explicit policy, else the highest
        priority native (non-Enoki) class on the kernel."""
        kernel = self.shim.kernel
        if kernel is None:
            return None
        if self.fallback_policy is not None:
            fallback = kernel._class_by_policy.get(self.fallback_policy)
            if fallback is None:
                raise FailoverError(
                    f"fallback policy {self.fallback_policy} is not "
                    "registered"
                )
            return fallback
        for _prio, cls in kernel._classes:
            if cls is self.shim:
                continue
            if getattr(cls, "lib", None) is not None:
                continue        # another Enoki shim: not a safe harbour
            return cls
        return None

    def engage(self, fallback, reason="requested"):
        """Quiesce, mark the shim failed, and transfer every task.

        Queued RUNNABLE tasks are requeued into ``fallback`` immediately;
        RUNNING and BLOCKED tasks are adopted lazily through the policy
        redirect at their next state change (preempt/block/wakeup), which
        native classes handle for previously unseen tasks.
        """
        shim = self.shim
        kernel = shim.kernel
        if kernel is None:
            raise FailoverError("shim is not attached to a kernel")
        if fallback is shim:
            raise FailoverError("cannot fail over onto the failed shim")
        if shim.failed:
            # A second engage on an already-failed shim would re-run the
            # whole transfer (double-requeues, double-counted failovers).
            # Callers that want idempotence go through the containment
            # boundary; a direct double engage is a programming error.
            raise FailoverError(
                f"policy {shim.policy} already failed over; refusing to "
                "engage twice"
            )

        # 1. Quiesce: the write acquire proves no dispatch is in flight
        # (the containment boundary only runs after the read section has
        # been released, so this cannot deadlock against ourselves).
        if not shim.lib.rwlock.try_acquire_write():
            raise FailoverError(
                "cannot quiesce for failover: reader still inside the "
                "module"
            )
        try:
            shim.failed = True
            shim.refresh_mode()
        finally:
            shim.lib.rwlock.release_write()

        # 2. Silence the dead scheduler's machinery: pending resched
        # timers must not fire on its behalf.
        for timer in shim._armed_timers.values():
            if timer.active:
                timer.cancel()
        shim._armed_timers.clear()

        # 3. Drain live tokens — nothing may schedule through the failed
        # module's proofs again.
        for pid in shim.tokens.live_pids():
            shim.tokens.revoke(pid)

        # 4. Transfer the tasks.
        requeued, lazy = [], []
        for task in kernel.tasks.values():
            if task.policy != shim.policy or task.state is TaskState.DEAD:
                continue
            if (task.state is TaskState.RUNNABLE
                    and task.pid in kernel._limbo):
                cpu = self._landing_cpu(kernel, task)
                kernel.place_task(task.pid, cpu, kicker_cpu=None)
                fallback.task_new(task, cpu)
                requeued.append(task.pid)
            elif (task.state is TaskState.RUNNABLE
                    and kernel.rqs[task.cpu].has(task.pid)):
                fallback.task_new(task, task.cpu)
                requeued.append(task.pid)
            else:
                lazy.append(task.pid)

        # 5. Route future class_of lookups to the fallback.  Tasks keep
        # their policy number: hint handlers and watchdogs stay wired.
        kernel.redirect_policy(shim.policy, fallback.policy)

        kernel.stats.failovers += 1
        report = FailoverReport(
            at_ns=kernel.now,
            from_policy=shim.policy,
            to_policy=fallback.policy,
            reason=reason,
            requeued_pids=tuple(requeued),
            lazy_pids=tuple(lazy),
        )
        if kernel.trace is not None:
            kernel.trace("failover", t=kernel.now, cpu=-1,
                         policy=shim.policy, to=fallback.policy,
                         reason=reason, requeued=len(requeued),
                         lazy=len(lazy))

        # 6. Every CPU re-picks so the fallback's freshly adopted tasks
        # (and any Enoki task still running) get re-evaluated promptly.
        for cpu in kernel.topology.all_cpus():
            kernel.resched_cpu(cpu)
        return report

    @staticmethod
    def _landing_cpu(kernel, task):
        for cpu in kernel.topology.all_cpus():
            if task.can_run_on(cpu):
                return cpu
        return 0
