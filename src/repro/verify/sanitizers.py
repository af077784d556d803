"""Invariant sanitizers: runtime checkers for the properties Enoki's
safe-language discipline is supposed to guarantee.

The paper's safety story rests on a handful of invariants — the
``Schedulable`` token is linear, every task lives in exactly one
scheduler-visible state, the per-scheduler rwlock serialises upgrades
against dispatches, hint rings never lose entries silently.  The
framework *enforces* some of these (a double-consume raises) but others
can be violated silently: a shim bug that schedules a task without
spending its token crashes nothing and corrupts nothing visible — it
just breaks the proof system.  These sanitizers watch the unified trace
stream (plus a few direct state taps) and turn every such silent
violation into a :class:`Violation` record, the same way a race
detector turns a benign-looking interleaving into a report.

Two ways to use them:

* :class:`SanitizerSuite` — an :class:`~repro.obs.observer.Observer`
  subclass; ``attach`` it to a kernel and every trace event is audited
  live.  ``check()`` runs the final state scans and returns the
  violation list.
* :func:`check_kernel_state` — the pure state-scan subset (conservation,
  ring accounting, token liveness), usable at any quiescent point with
  no tracer attached.  CI wraps the tier-1 suite with it (see
  ``tests/conftest.py`` and the ``REPRO_SANITIZE`` env var).
"""

from dataclasses import dataclass

from repro.obs.observer import Observer
from repro.simkernel.task import TaskState


class SanitizerError(AssertionError):
    """Raised by :func:`assert_kernel_state` when an invariant broke."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    sanitizer: str          # "token" | "conservation" | "clock" | ...
    at_ns: int
    detail: str
    pid: int = -1
    cpu: int = -1

    def to_dict(self):
        return {
            "sanitizer": self.sanitizer,
            "at_ns": self.at_ns,
            "detail": self.detail,
            "pid": self.pid,
            "cpu": self.cpu,
        }

    def __str__(self):
        where = ""
        if self.pid >= 0:
            where += f" pid={self.pid}"
        if self.cpu >= 0:
            where += f" cpu={self.cpu}"
        return (f"[{self.at_ns / 1e6:10.3f} ms] {self.sanitizer}:"
                f"{where} {self.detail}")


# ----------------------------------------------------------------------
# pure state scans (shared by the suite and check_kernel_state)
# ----------------------------------------------------------------------

def conservation_violations(kernel, at_ns=None):
    """Every task must be in exactly one of: a run queue, running on a
    CPU, awaiting deferred placement, blocked, or dead."""
    out = []
    now = kernel.now if at_ns is None else at_ns

    def flag(detail, pid=-1, cpu=-1):
        out.append(Violation("conservation", now, detail, pid, cpu))

    # pid -> CPUs, from one pass over the run queues: the same lists as
    # ``kernel.queued_cpus(pid)`` / ``running_cpus(pid)``, in CPU order.
    queued_on, running_on = {}, {}
    for rq in kernel.rqs:
        for pid in rq.queued:
            queued_on.setdefault(pid, []).append(rq.cpu)
        if rq.current is not None:
            running_on.setdefault(rq.current.pid, []).append(rq.cpu)
    nowhere = []
    for pid, task in kernel.tasks.items():
        queued = queued_on.get(pid, nowhere)
        running = running_on.get(pid, nowhere)
        limbo = kernel.in_limbo(pid)
        state = task.state
        if len(queued) > 1:
            flag(f"task queued on {len(queued)} run queues {queued}",
                 pid=pid)
        if state is TaskState.DEAD:
            if queued or running or limbo:
                flag("dead task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
        elif state is TaskState.RUNNING:
            if len(running) != 1:
                flag(f"RUNNING task is current on {running} "
                     "(expected exactly one CPU)", pid=pid)
            elif running[0] != task.cpu:
                flag(f"RUNNING task thinks it is on cpu {task.cpu} but "
                     f"is current on cpu {running[0]}", pid=pid)
            if queued or limbo:
                flag(f"RUNNING task also queued={queued} limbo={limbo}",
                     pid=pid)
        elif state is TaskState.RUNNABLE:
            if running:
                flag(f"RUNNABLE task is current on cpu {running[0]}",
                     pid=pid)
            if limbo and queued:
                flag(f"RUNNABLE task both in limbo and queued on "
                     f"{queued}", pid=pid)
            if not limbo and len(queued) != 1:
                flag("RUNNABLE task lost: on no run queue and not in "
                     "limbo" if not queued else
                     f"RUNNABLE task queued on {queued}", pid=pid)
            if kernel.groups.parked_containers(pid):
                flag("RUNNABLE task still parked in throttled group(s) "
                     f"{kernel.groups.parked_containers(pid)}", pid=pid)
        elif state is TaskState.BLOCKED:
            if queued or running or limbo:
                flag(f"BLOCKED task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
        elif state is TaskState.THROTTLED:
            if queued or running or limbo:
                flag(f"THROTTLED task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
            containers = kernel.groups.parked_containers(pid)
            if len(containers) != 1:
                flag("THROTTLED task parked in "
                     f"{containers if containers else 'no'} group(s) "
                     "(expected exactly one)", pid=pid)
    for rq in kernel.rqs:
        for pid, task in rq.queued.items():
            if task.state is not TaskState.RUNNABLE:
                flag(f"run queue holds non-runnable task "
                     f"(state {task.state.name})", pid=pid, cpu=rq.cpu)
    return out


def group_bandwidth_violations(kernel, at_ns=None):
    """Hierarchical task-group invariants (group-bandwidth-conservation).

    * per-period consumption never exceeds the quota by more than the
      enforcement slack (ticks land per CPU, so an N-CPU machine can
      overrun by up to a tick-ish per CPU before the throttle bites —
      the same granularity real CFS bandwidth control exhibits);
    * the per-CPU runnable index matches a recount from task states;
    * a group's cumulative runtime equals the sum over its subtree's
      members (dead ones included) — runtime is never lost or invented;
    * a throttled group has no runnable or running subtree member.
    """
    out = []
    now = kernel.now if at_ns is None else at_ns
    groups = kernel.groups
    if not groups.has_groups():
        return out

    def flag(detail, pid=-1, cpu=-1):
        out.append(Violation("group_bandwidth", now, detail, pid, cpu))

    cfg = kernel.config
    nr_cpus = kernel.topology.nr_cpus
    slack = nr_cpus * (cfg.tick_period_ns + cfg.context_switch_ns
                       + cfg.timer_min_delay_ns)
    all_groups = groups.all_groups()

    # -- recount the per-CPU runnable index from task states -----------
    task_weight = {g.name: [0] * nr_cpus for g in all_groups}
    counted = {g.name: [0] * nr_cpus for g in all_groups}
    for pid, task in kernel.tasks.items():
        group = task.group
        accounted = (task.state is TaskState.RUNNING
                     or (task.state is TaskState.RUNNABLE and task.on_rq))
        if group is None:
            if task.group_cpu != -1:
                flag(f"ungrouped task has group_cpu {task.group_cpu}",
                     pid=pid)
            continue
        if accounted:
            if task.group_cpu != task.cpu:
                flag(f"runnable grouped task accounted on cpu "
                     f"{task.group_cpu}, lives on cpu {task.cpu}",
                     pid=pid, cpu=task.cpu)
            elif 0 <= task.group_cpu < nr_cpus:
                task_weight[group.name][task.group_cpu] += task.weight
                counted[group.name][task.group_cpu] += 1
        elif task.group_cpu != -1:
            flag(f"{task.state.name} grouped task still accounted on "
                 f"cpu {task.group_cpu}", pid=pid)

    for group in all_groups:
        for cpu in range(nr_cpus):
            expect_tw = task_weight[group.name][cpu]
            expect_nr = counted[group.name][cpu]
            expect_cw = 0
            for child in group.children:
                if child.nr_runnable[cpu] > 0:
                    expect_nr += 1
                    expect_cw += child.weight
            if group.task_weight[cpu] != expect_tw:
                flag(f"group {group.name!r} task_weight[{cpu}] is "
                     f"{group.task_weight[cpu]}, recount says "
                     f"{expect_tw}", cpu=cpu)
            if group.child_weight[cpu] != expect_cw:
                flag(f"group {group.name!r} child_weight[{cpu}] is "
                     f"{group.child_weight[cpu]}, recount says "
                     f"{expect_cw}", cpu=cpu)
            if group.nr_runnable[cpu] != expect_nr:
                flag(f"group {group.name!r} nr_runnable[{cpu}] is "
                     f"{group.nr_runnable[cpu]}, recount says "
                     f"{expect_nr}", cpu=cpu)

    # -- bandwidth, conservation, throttle containment -----------------
    for group in all_groups:
        if group.quota_ns:
            for label, consumed in (
                    ("current", group.period_consumed_ns),
                    ("max", group.max_period_consumed_ns)):
                if consumed > group.quota_ns + slack:
                    flag(f"group {group.name!r} {label} period "
                         f"consumption {consumed} exceeds quota "
                         f"{group.quota_ns} + slack {slack}")
        subtree_runtime = 0
        for node in group.iter_subtree():
            subtree_runtime += sum(
                t.sum_exec_runtime_ns for t in node.members.values())
        if subtree_runtime != group.total_runtime_ns:
            flag(f"group {group.name!r} runtime {group.total_runtime_ns}"
                 f" != subtree task runtime {subtree_runtime} "
                 "(runtime lost or invented)")
        if group.throttled:
            # RUNNING members are legal transiently: throttle marks the
            # group and kicks a resched, and the victim stays current
            # until that lands (as in CFS).  A *queued* member, though,
            # means the throttle failed to drain the run queues.
            for node in group.iter_subtree():
                for pid, task in node.members.items():
                    if (task.state is TaskState.RUNNABLE
                            and task.on_rq):
                        flag(f"throttled group {group.name!r} has "
                             f"queued member via {node.name!r}",
                             pid=pid)
    return out


def _enoki_shims(kernel):
    return [cls for _prio, cls in kernel._classes
            if getattr(cls, "lib", None) is not None
            and hasattr(cls, "tokens")]


def ring_violations(kernel, at_ns=None):
    """Hint-ring accounting: pushes = pops + overwrites + residual."""
    out = []
    now = kernel.now if at_ns is None else at_ns
    for shim in _enoki_shims(kernel):
        rings = list(shim.queues.user_queues.values())
        rings += list(shim.queues.rev_queues.values())
        for ring in rings:
            if not ring.accounting_ok():
                out.append(Violation(
                    "hint_ring", now,
                    f"ring {ring.name!r} accounting broken: "
                    f"{ring.accounting()}"))
    return out


def token_state_violations(kernel, at_ns=None):
    """Live tokens must name live tasks of the shim's own policy."""
    out = []
    now = kernel.now if at_ns is None else at_ns
    nr_cpus = kernel.topology.nr_cpus
    for shim in _enoki_shims(kernel):
        for pid in shim.tokens.live_pids():
            current = shim.tokens.peek(pid)
            if current is None:
                continue
            generation, cpu = current
            task = kernel.tasks.get(pid)
            if task is None or task.state is TaskState.DEAD:
                out.append(Violation(
                    "token", now,
                    f"live token (gen {generation}) for dead/unknown "
                    "task", pid=pid, cpu=cpu))
            elif not 0 <= cpu < nr_cpus:
                out.append(Violation(
                    "token", now,
                    f"live token names invalid cpu {cpu}", pid=pid))
    return out


def check_kernel_state(kernel):
    """All pure state-scan checks; returns the violation list."""
    violations = conservation_violations(kernel)
    violations += group_bandwidth_violations(kernel)
    violations += ring_violations(kernel)
    violations += token_state_violations(kernel)
    return violations


def assert_kernel_state(kernel):
    """Raise :class:`SanitizerError` when any state invariant broke."""
    violations = check_kernel_state(kernel)
    if violations:
        listing = "\n".join(f"  {v}" for v in violations[:10])
        raise SanitizerError(
            f"{len(violations)} kernel-state invariant violation(s):\n"
            f"{listing}"
        )


# ----------------------------------------------------------------------
# event-stream sanitizers
# ----------------------------------------------------------------------

class Sanitizer:
    """Base class: one invariant checker fed from the trace stream.

    ``KINDS`` declares the event kinds :meth:`on_event` consumes.  The
    default ``None`` means every kind, so a subclass that only overrides
    ``on_event`` sees the whole stream; an empty set means none.  A
    sanitizer whose kinds share no code overrides :meth:`route` to hand
    out one sink per kind instead.
    """

    name = "sanitizer"
    KINDS = None

    def __init__(self, suite):
        self.suite = suite

    def route(self, kind):
        """The sink for events of ``kind``: :meth:`on_event` or None."""
        wanted = self.KINDS is None or kind in self.KINDS
        return self.on_event if wanted else None

    def flag(self, detail, at_ns=0, pid=-1, cpu=-1):
        self.suite.record_violation(
            Violation(self.name, at_ns, detail,
                      pid if pid is not None else -1, cpu))

    def on_event(self, kind, t, cpu, pid, fields):
        """One trace event arrived (before ring-buffer filtering)."""

    def check(self, kernel):
        """End-of-run (or on-demand) state checks."""


class TokenSanitizer(Sanitizer):
    """Token discipline: no task runs on a core without spending a live
    ``Schedulable`` for that core; no double/stale consume; revoked
    tokens never spent."""

    name = "token"
    KINDS = frozenset({"token_issue", "token_consume", "token_revoke",
                       "dispatch"})

    def __init__(self, suite):
        super().__init__(suite)
        self._live = {}        # pid -> (generation, cpu)
        self._pending = {}     # pid -> (cpu, t) of the consume awaiting
        #                        its dispatch

    def on_event(self, kind, t, cpu, pid, fields):
        if kind == "token_issue":
            self._live[pid] = (fields.get("gen"), cpu)
        elif kind == "token_consume":
            live = self._live.get(pid)
            if live is None:
                self.flag("token consumed while none live "
                          "(double-consume or use-after-revoke)",
                          at_ns=t, pid=pid, cpu=cpu)
            elif live != (fields.get("gen"), cpu):
                self.flag(f"stale token consumed (gen {fields.get('gen')}"
                          f" on cpu {cpu}, live is gen {live[0]} on cpu "
                          f"{live[1]})", at_ns=t, pid=pid, cpu=cpu)
            self._live.pop(pid, None)
            self._pending[pid] = (cpu, t)
        elif kind == "token_revoke":
            self._live.pop(pid, None)
        elif kind == "dispatch":
            kernel = self.suite._kernel
            if kernel is None:
                return
            task = kernel.tasks.get(pid)
            if task is None or not self.suite.monitors_task(task):
                return
            pending = self._pending.pop(pid, None)
            if pending is None or pending != (cpu, t):
                self.flag(
                    "task dispatched without consuming a live "
                    "Schedulable for this core (token-discipline "
                    "violation)", at_ns=t, pid=pid, cpu=cpu)


class ConservationSanitizer(Sanitizer):
    """Task conservation, audited on every state-changing event."""

    name = "conservation"

    #: event kinds after which the full state scan runs
    KINDS = SCAN_KINDS = frozenset({
        "dispatch", "wakeup", "fork", "preempt", "migrate", "idle",
        "failover", "upgrade", "throttle", "unthrottle",
    })

    def on_event(self, kind, t, cpu, pid, fields):
        kernel = self.suite._kernel
        if kernel is None:
            return
        for violation in conservation_violations(kernel, at_ns=t):
            self.suite.record_violation(violation)

    def check(self, kernel):
        if kernel is None:
            return
        for violation in conservation_violations(kernel):
            self.suite.record_violation(violation)


class ClockSanitizer(Sanitizer):
    """Virtual time never runs backwards across the event stream."""

    name = "clock"

    def __init__(self, suite):
        super().__init__(suite)
        self._last_t = 0

    def on_event(self, kind, t, cpu, pid, fields):
        if t < self._last_t:
            self.flag(f"clock went backwards: {kind} at {t} ns after "
                      f"an event at {self._last_t} ns",
                      at_ns=t, pid=pid if pid is not None else -1,
                      cpu=cpu)
        else:
            self._last_t = t


class LockSanitizer(Sanitizer):
    """Held-lock and lock-order checking over spin/rw lock events.

    Spinlock acquisitions (``lock_acquire``/``lock_release`` from the
    libEnoki wrappers) are tracked per kernel thread; acquiring B while
    holding A records the order edge A->B, and any later edge that closes
    a cycle is flagged as a lock-order inversion — the classic ABBA
    deadlock a single serialised simulation run would never actually
    deadlock on, which is exactly why it needs a sanitizer.  The
    per-scheduler rwlock protocol (``rwlock_*``) is checked for
    writer/reader exclusion and balanced releases.
    """

    name = "lock"
    KINDS = frozenset({
        "lock_acquire", "lock_release",
        "rwlock_read_acquire", "rwlock_read_release",
        "rwlock_write_acquire", "rwlock_write_release",
    })

    def __init__(self, suite):
        super().__init__(suite)
        self._held = {}          # thread -> [lock_id, ...] in order
        self._edges = set()      # (lock_a, lock_b): a held while taking b
        self._rw = {}            # name -> [readers, writer_bool]

    def route(self, kind):
        """One sink per kind: the method named after it."""
        return getattr(self, kind) if kind in self.KINDS else None

    # -- spinlocks ----------------------------------------------------

    def _order_ok(self, new_edge):
        """False when adding ``new_edge`` closes a cycle."""
        a, b = new_edge
        # DFS from b: can we already reach a?
        stack, seen = [b], set()
        while stack:
            node = stack.pop()
            if node == a:
                return False
            if node in seen:
                continue
            seen.add(node)
            stack.extend(dst for (src, dst) in self._edges
                         if src == node)
        return True

    def lock_acquire(self, kind, t, cpu, pid, fields):
        lock = fields.get("lock")
        for holder, locks in self._held.items():
            if lock in locks:
                self.flag(f"lock {lock} acquired by thread {cpu} "
                          f"while held by thread {holder}",
                          at_ns=t, cpu=cpu)
        held = self._held.setdefault(cpu, [])
        for outer in held:
            edge = (outer, lock)
            if edge not in self._edges:
                if not self._order_ok(edge):
                    self.flag(
                        f"lock-order inversion: {outer} -> {lock} "
                        "closes a cycle in the acquisition graph",
                        at_ns=t, cpu=cpu)
                self._edges.add(edge)
        held.append(lock)

    def lock_release(self, kind, t, cpu, pid, fields):
        lock = fields.get("lock")
        held = self._held.get(cpu, [])
        if lock not in held:
            self.flag(f"lock {lock} released by thread {cpu} "
                      "which does not hold it", at_ns=t, cpu=cpu)
        else:
            held.remove(lock)

    # -- the per-scheduler quiesce rwlock ------------------------------

    def rwlock_read_acquire(self, kind, t, cpu, pid, fields):
        name = fields.get("lock", "?")
        state = self._rw.setdefault(name, [0, False])
        if state[1]:
            self.flag(f"rwlock {name!r}: read acquired while the "
                      "upgrade writer holds it", at_ns=t, cpu=cpu)
        state[0] += 1

    def rwlock_read_release(self, kind, t, cpu, pid, fields):
        name = fields.get("lock", "?")
        state = self._rw.setdefault(name, [0, False])
        if state[0] <= 0:
            self.flag(f"rwlock {name!r}: read release underflow",
                      at_ns=t, cpu=cpu)
        else:
            state[0] -= 1

    def rwlock_write_acquire(self, kind, t, cpu, pid, fields):
        name = fields.get("lock", "?")
        state = self._rw.setdefault(name, [0, False])
        if state[0] > 0 or state[1]:
            self.flag(f"rwlock {name!r}: write acquired with "
                      f"{state[0]} readers inside "
                      f"(writer={state[1]})", at_ns=t, cpu=cpu)
        state[1] = True

    def rwlock_write_release(self, kind, t, cpu, pid, fields):
        name = fields.get("lock", "?")
        state = self._rw.setdefault(name, [0, False])
        if not state[1]:
            self.flag(f"rwlock {name!r}: write release without "
                      "hold", at_ns=t, cpu=cpu)
        state[1] = False

    def check(self, kernel):
        for thread, locks in self._held.items():
            if locks:
                self.flag(f"thread {thread} still holds locks {locks} "
                          "at end of run", cpu=thread)
        for name, (readers, writer) in self._rw.items():
            if readers or writer:
                self.flag(f"rwlock {name!r} leaked: readers={readers} "
                          f"writer={writer}")


class GroupBandwidthSanitizer(Sanitizer):
    """Group-bandwidth-conservation, audited on every throttle-path
    event (throttle / unthrottle / quota_refill) and at end of run."""

    name = "group_bandwidth"

    #: event kinds after which the group scan runs
    KINDS = SCAN_KINDS = frozenset({"throttle", "unthrottle", "quota_refill"})

    def on_event(self, kind, t, cpu, pid, fields):
        kernel = self.suite._kernel
        if kernel is None:
            return
        for violation in group_bandwidth_violations(kernel, at_ns=t):
            self.suite.record_violation(violation)

    def check(self, kernel):
        if kernel is None:
            return
        for violation in group_bandwidth_violations(kernel):
            self.suite.record_violation(violation)


class HintRingSanitizer(Sanitizer):
    """Ring accounting (pushes = pops + overwrites + residual)."""

    name = "hint_ring"
    KINDS = frozenset()

    def check(self, kernel):
        if kernel is None:
            return
        for violation in ring_violations(kernel):
            self.suite.record_violation(violation)
        for violation in token_state_violations(kernel):
            self.suite.record_violation(violation)


DEFAULT_SANITIZERS = (
    TokenSanitizer,
    ConservationSanitizer,
    ClockSanitizer,
    LockSanitizer,
    GroupBandwidthSanitizer,
    HintRingSanitizer,
)


class SanitizerSuite(Observer):
    """An Observer whose event stream feeds the invariant sanitizers.

    Everything an :class:`~repro.obs.observer.Observer` does (trace
    retention, metrics, profilers, rwlock hooks) still works; on top,
    every event, retained or not, goes to the sanitizers that claim its
    kind, the shims' token registries are tapped so ``token_*`` events
    flow, and ``check()`` runs the final state scans.  Violations land
    in ``violations`` and in the registry's ``verify.*`` counters.
    """

    def __init__(self, capacity=200_000, kinds=None, registry=None,
                 sanitizers=DEFAULT_SANITIZERS):
        super().__init__(capacity, kinds=kinds, registry=registry)
        self.violations = []
        self.sanitizers = [cls(self) for cls in sanitizers]
        for sanitizer in self.sanitizers:
            self.add_route(sanitizer.route)
        self._tapped_registries = []

    @property
    def events_seen(self):
        """Events that came through the intake, retained or not."""
        return self.filtered + self.retained

    # -- wiring --------------------------------------------------------

    def observe_framework(self):
        super().observe_framework()
        kernel = self._kernel
        if kernel is None:
            return
        for shim in _enoki_shims(kernel):
            tokens = shim.tokens
            if tokens.on_event is None:
                tokens.on_event = self._token_hook
                self._tapped_registries.append(tokens)

    def detach(self):
        for tokens in self._tapped_registries:
            if tokens.on_event == self._token_hook:
                tokens.on_event = None
        self._tapped_registries = []
        super().detach()

    def monitors_task(self, task):
        """True when ``task`` is currently serviced by a live Enoki shim
        (so its dispatches must be token-backed).  Failed-over tasks are
        serviced by the fallback native class and carry no tokens."""
        kernel = self._kernel
        if kernel is None:
            return False
        try:
            cls = kernel.class_of(task)
        except Exception:
            return False
        return (getattr(cls, "lib", None) is not None
                and hasattr(cls, "tokens")
                and not getattr(cls, "failed", False))

    # -- event intake --------------------------------------------------

    def _token_hook(self, op, pid, cpu, generation):
        kernel = self._kernel
        if kernel is None:
            return
        self._hook("token_" + op, kernel.clock.now, cpu, pid, gen=generation)

    def record_violation(self, violation):
        self.violations.append(violation)
        self.registry.counter("verify.violations").inc()
        self.registry.counter("verify." + violation.sanitizer).inc()

    # -- results -------------------------------------------------------

    @property
    def ok(self):
        return not self.violations

    def check(self):
        """Run the final state scans; returns all violations so far."""
        for sanitizer in self.sanitizers:
            sanitizer.check(self._kernel)
        return self.violations

    def violation_report(self):
        if not self.violations:
            return "all invariants held"
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines.extend(f"  {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)
