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
from repro.simkernel.errors import SchedulingError
from repro.simkernel.task import TaskState
from repro.simkernel.tracing import field_index


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

    RUNNABLE, RUNNING = TaskState.RUNNABLE, TaskState.RUNNING
    THROTTLED, DEAD, NEW = TaskState.THROTTLED, TaskState.DEAD, TaskState.NEW
    # One pass over the run queues: pid -> CPUs (the same lists as
    # ``kernel.queued_cpus(pid)`` / ``running_cpus(pid)``, in CPU order),
    # the pids queued twice and the queued non-runnable tasks.  The clean
    # path calls nothing (keys are subscripted, ``twice`` is a dict).
    queued_on, running_on, twice, misqueued = {}, {}, {}, []
    for rq in kernel.rqs:
        cpu, queued, current = rq.cpu, rq.queued, rq.current
        for pid in queued:
            if pid in queued_on:
                queued_on[pid].append(cpu)
                twice[pid] = True
            else:
                queued_on[pid] = [cpu]
            if queued[pid].state is not RUNNABLE:
                misqueued.append((pid, queued[pid], cpu))
        if current is not None:
            if current.pid in running_on:
                running_on[current.pid].append(cpu)
            else:
                running_on[current.pid] = [cpu]
    limbo_pids, tasks = kernel._limbo, kernel.tasks
    by_name = kernel.groups._by_name    # name -> group, the root included
    nowhere = []
    parked_in = {}      # pid -> names of the group containers holding it
    for name in by_name:
        group = by_name[name]
        for pid in group.parked:
            parked_in[pid] = (parked_in[pid] if pid in parked_in
                              else nowhere) + [group.name]
    for pid in tasks:
        task = tasks[pid]
        limbo = pid in limbo_pids
        state = task.state
        if pid in twice:
            flag(f"task queued on {len(queued_on[pid])} run queues "
                 f"{queued_on[pid]}", pid=pid)
        # Each state tests its clean case first; strings are built only on
        # the way to a flag.
        if state is RUNNABLE:
            # on exactly one of (one run queue, limbo), nowhere else
            if ((pid in queued_on) != limbo and pid not in twice
                    and pid not in running_on and pid not in parked_in):
                continue
            queued = queued_on.get(pid, nowhere)
            running = running_on.get(pid, nowhere)
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
            if pid in parked_in:
                flag("RUNNABLE task still parked in throttled group(s) "
                     f"{parked_in[pid]}", pid=pid)
        elif state is RUNNING:
            if (pid in running_on and running_on[pid] == [task.cpu]
                    and pid not in queued_on and not limbo):
                continue
            queued = queued_on.get(pid, nowhere)
            running = running_on.get(pid, nowhere)
            if len(running) != 1:
                flag(f"RUNNING task is current on {running} "
                     "(expected exactly one CPU)", pid=pid)
            elif running[0] != task.cpu:
                flag(f"RUNNING task thinks it is on cpu {task.cpu} but "
                     f"is current on cpu {running[0]}", pid=pid)
            if queued or limbo:
                flag(f"RUNNING task also queued={queued} limbo={limbo}",
                     pid=pid)
        elif state is not NEW:
            # BLOCKED, THROTTLED, DEAD: on no run queue, CPU or limbo
            if limbo or pid in queued_on or pid in running_on:
                queued = queued_on.get(pid, nowhere)
                running = running_on.get(pid, nowhere)
                who = "dead" if state is DEAD else state.name
                flag(f"{who} task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
            # parked in exactly one group: one name, none past it
            if state is THROTTLED and (pid not in parked_in
                                       or parked_in[pid][1:]):
                containers = parked_in.get(pid)
                flag("THROTTLED task parked in "
                     f"{containers if containers else 'no'} group(s) "
                     "(expected exactly one)", pid=pid)
    for pid, task, cpu in misqueued:
        flag(f"run queue holds non-runnable task "
             f"(state {task.state.name})", pid=pid, cpu=cpu)
    return out


def group_bandwidth_violations(kernel, at_ns=None):
    """Hierarchical task-group invariants (group-bandwidth-conservation).

    * per-period consumption never exceeds the quota by more than the
      enforcement slack, :meth:`SimConfig.bandwidth_slack_ns`;
    * the per-CPU runnable index matches a recount from task states;
    * a group's cumulative runtime equals the sum over its subtree's
      members (dead ones included) — runtime is never lost or invented;
    * a throttled group has no runnable or running subtree member.
    """
    out = []
    now = kernel.now if at_ns is None else at_ns
    groups = kernel.groups
    if not groups.root.children:        # the root group alone
        return out

    def flag(detail, pid=-1, cpu=-1):
        out.append(Violation("group_bandwidth", now, detail, pid, cpu))

    nr_cpus = kernel.topology.nr_cpus
    cpus = range(nr_cpus)
    slack = kernel.config.bandwidth_slack_ns(nr_cpus)
    # name -> group in creation order: a parent precedes its children.
    # The clean path calls nothing: dicts are iterated by key and
    # subscripted, subtrees walked by hand.
    by_name = groups._by_name
    RUNNABLE, RUNNING = TaskState.RUNNABLE, TaskState.RUNNING

    # -- recount the per-CPU runnable index from task states -----------
    # group -> (task_weight, counted) rows, only for groups that have an
    # accounted task; every other group's rows are all zero.
    recount = {}
    tasks = kernel.tasks
    for pid in tasks:
        task = tasks[pid]
        group = task.group
        group_cpu = task.group_cpu
        if group is None:
            if group_cpu != -1:
                flag(f"ungrouped task has group_cpu {group_cpu}", pid=pid)
            continue
        state = task.state
        if state is RUNNING or (state is RUNNABLE and task.on_rq):
            if group_cpu != task.cpu:
                flag(f"runnable grouped task accounted on cpu "
                     f"{group_cpu}, lives on cpu {task.cpu}",
                     pid=pid, cpu=task.cpu)
            elif 0 <= group_cpu < nr_cpus:
                if group in recount:
                    rows = recount[group]
                else:
                    rows = recount[group] = ([0] * nr_cpus, [0] * nr_cpus)
                rows[0][group_cpu] += task.weight
                rows[1][group_cpu] += 1
        elif group_cpu != -1:
            flag(f"{state.name} grouped task still accounted on "
                 f"cpu {group_cpu}", pid=pid)

    zeros = [0] * nr_cpus
    for name in by_name:
        group = by_name[name]
        if group in recount:
            expect_tw, expect_nr = recount[group]
        else:
            expect_tw = expect_nr = zeros
        expect_cw = zeros
        if group.children:
            expect_nr, expect_cw = expect_nr[:], [0] * nr_cpus
            for child in group.children:
                for cpu in cpus:
                    if child.nr_runnable[cpu] > 0:
                        expect_nr[cpu] += 1
                        expect_cw[cpu] += child.weight
        if (group.task_weight == expect_tw and group.nr_runnable == expect_nr
                and group.child_weight == expect_cw):
            continue
        for cpu in cpus:
            if group.task_weight[cpu] != expect_tw[cpu]:
                flag(f"group {group.name!r} task_weight[{cpu}] is "
                     f"{group.task_weight[cpu]}, recount says "
                     f"{expect_tw[cpu]}", cpu=cpu)
            if group.child_weight[cpu] != expect_cw[cpu]:
                flag(f"group {group.name!r} child_weight[{cpu}] is "
                     f"{group.child_weight[cpu]}, recount says "
                     f"{expect_cw[cpu]}", cpu=cpu)
            if group.nr_runnable[cpu] != expect_nr[cpu]:
                flag(f"group {group.name!r} nr_runnable[{cpu}] is "
                     f"{group.nr_runnable[cpu]}, recount says "
                     f"{expect_nr[cpu]}", cpu=cpu)

    # Subtree runtime: each group's members' runtime, added to every
    # ancestor.  In creation order a group is reached before any of its
    # descendants has added to it, so its entry then holds its own.
    subtree = {}
    for name in by_name:
        group = by_name[name]
        members = group.members
        runtime = 0
        for pid in members:
            runtime += members[pid].sum_exec_runtime_ns
        subtree[group] = runtime
    for group in subtree:
        runtime, parent = subtree[group], group.parent
        if runtime:
            while parent is not None:
                subtree[parent] += runtime
                parent = parent.parent

    # -- bandwidth, conservation, throttle containment -----------------
    for name in by_name:
        group = by_name[name]
        if group.quota_ns:
            for label, consumed in (
                    ("current", group.period_consumed_ns),
                    ("max", group.max_period_consumed_ns)):
                if consumed > group.quota_ns + slack:
                    flag(f"group {group.name!r} {label} period "
                         f"consumption {consumed} exceeds quota "
                         f"{group.quota_ns} + slack {slack}")
        subtree_runtime = subtree[group]
        if subtree_runtime != group.total_runtime_ns:
            flag(f"group {group.name!r} runtime {group.total_runtime_ns}"
                 f" != subtree task runtime {subtree_runtime} "
                 "(runtime lost or invented)")
        if group.throttled:
            # RUNNING members are legal transiently: throttle marks the
            # group and kicks a resched, and the victim stays current
            # until that lands (as in CFS).  A *queued* member, though,
            # means the throttle failed to drain the run queues.  The
            # walk is ``iter_subtree``'s pre-order, on a stack of
            # ``(node, rest)`` pairs.
            stack = (group, ())
            while stack:
                node, stack = stack
                members = node.members
                for pid in members:
                    task = members[pid]
                    if task.state is RUNNABLE and task.on_rq:
                        flag(f"throttled group {group.name!r} has "
                             f"queued member via {node.name!r}",
                             pid=pid)
                for child in node.children[::-1]:
                    stack = (child, stack)
    return out


def _is_enoki_shim(cls):
    return getattr(cls, "lib", None) is not None and hasattr(cls, "tokens")


def _enoki_shims(kernel):
    return [cls for _prio, cls in kernel._classes if _is_enoki_shim(cls)]


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

    def on_event(self, kind, t, cpu, pid, cost, keys, values):
        """One trace event arrived (before ring-buffer filtering), its
        payload as the emit site's ``keys`` and ``values``."""

    def check(self, kernel):
        """End-of-run (or on-demand) state checks."""


class TokenSanitizer(Sanitizer):
    """Token discipline: no task runs on a core without spending a live
    ``Schedulable`` for that core; no double/stale consume; revoked
    tokens never spent.  A ``token_*`` event's generation is read at
    ``_GEN_AT``; the clean path calls nothing (dicts are tested,
    subscripted and ``del``-ed)."""

    name = "token"
    KINDS = frozenset({"token_issue", "token_consume", "token_revoke",
                       "dispatch"})

    def __init__(self, suite):
        super().__init__(suite)
        self._live = {}        # pid -> (generation, cpu)
        self._pending = {}     # pid -> (cpu, t) of the consume awaiting
        #                        its dispatch
        self._shim = {}        # sched class -> is an Enoki shim

    def on_event(self, kind, t, cpu, pid, cost, keys, values):
        if kind == "token_issue":
            self._live[pid] = (values[_GEN_AT] if values else None, cpu)
        elif kind == "token_consume":
            live = self._live
            if pid not in live:
                self.flag("token consumed while none live "
                          "(double-consume or use-after-revoke)",
                          at_ns=t, pid=pid, cpu=cpu)
            else:
                gen = values[_GEN_AT] if values else None
                if live[pid] != (gen, cpu):
                    self.flag(f"stale token consumed (gen {gen} on cpu "
                              f"{cpu}, live is gen {live[pid][0]} on cpu "
                              f"{live[pid][1]})", at_ns=t, pid=pid, cpu=cpu)
                del live[pid]
            self._pending[pid] = (cpu, t)
        elif kind == "token_revoke":
            if pid in self._live:
                del self._live[pid]
        elif kind == "dispatch":
            # Only a task a live Enoki shim services spends tokens: not
            # one of a native class, nor one failed over to the fallback.
            kernel = self.suite._kernel
            if kernel is None or pid not in kernel.tasks:
                return
            try:
                cls = kernel._class_cache[kernel.tasks[pid].policy]
            except SchedulingError:
                return              # an unregistered policy: no class
            shim = self._shim
            if cls not in shim:
                shim[cls] = _is_enoki_shim(cls)
            if not shim[cls] or cls.failed:
                return
            pending = self._pending
            if pid in pending:
                consumed = pending[pid]
                del pending[pid]
                if consumed == (cpu, t):
                    return
            self.flag(
                "task dispatched without consuming a live Schedulable "
                "for this core (token-discipline violation)",
                at_ns=t, pid=pid, cpu=cpu)


_GEN_AT = field_index("gen", TokenSanitizer.KINDS - {"dispatch"})


class _ScanSanitizer(Sanitizer):
    """Runs ``scan`` after each event of ``SCAN_KINDS`` and at the end."""

    def on_event(self, kind, t, cpu, pid, cost, keys, values):
        kernel = self.suite._kernel
        if kernel is not None:
            for violation in self.scan(kernel, at_ns=t):
                self.suite.record_violation(violation)

    def check(self, kernel):
        if kernel is not None:
            for violation in self.scan(kernel):
                self.suite.record_violation(violation)


class ConservationSanitizer(_ScanSanitizer):
    """Task conservation, audited on every state-changing event."""

    name = "conservation"
    scan = staticmethod(conservation_violations)
    KINDS = SCAN_KINDS = frozenset({
        "dispatch", "wakeup", "fork", "preempt", "migrate", "idle",
        "failover", "upgrade", "throttle", "unthrottle",
    })


class ClockSanitizer(Sanitizer):
    """Virtual time never runs backwards: flags what the intake finds."""

    name = "clock"
    KINDS = frozenset()

    def backwards(self, kind, t, cpu, pid, last_t):
        self.flag(f"clock went backwards: {kind} at {t} ns after "
                  f"an event at {last_t} ns", at_ns=t, pid=pid, cpu=cpu)


class _RwStates(dict):
    """rwlock name -> ``[readers, writer]``, made on first sight."""

    def __missing__(self, name):
        state = self[name] = [0, False]
        return state


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
        self._holds = {}         # lock_id -> its entries across _held
        self._edges = set()      # (lock_a, lock_b): a held while taking b
        self._rw = _RwStates()   # name -> [readers, writer_bool]

    def route(self, kind):
        """One sink per kind: the method named after it."""
        return getattr(self, kind) if kind in self.KINDS else None

    # -- spinlocks ----------------------------------------------------
    #
    # The sinks run on every watched crossing: the clean path looks up
    # by subscript only, and scans the holders only for a lock already
    # held somewhere.  Every lock and rwlock event names its lock at
    # ``_LOCK_AT``.

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

    def lock_acquire(self, kind, t, cpu, pid, cost, keys, values):
        lock = values[_LOCK_AT] if values else None
        holds = self._holds
        if lock in holds:
            holds[lock] += 1
            for holder, locks in self._held.items():
                if lock in locks:
                    self.flag(f"lock {lock} acquired by thread {cpu} "
                              f"while held by thread {holder}",
                              at_ns=t, cpu=cpu)
        else:
            holds[lock] = 1
        if cpu in self._held:
            held = self._held[cpu]
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
        else:
            self._held[cpu] = [lock]

    def lock_release(self, kind, t, cpu, pid, cost, keys, values):
        lock = values[_LOCK_AT] if values else None
        held = self._held[cpu] if cpu in self._held else ()
        if lock not in held:
            self.flag(f"lock {lock} released by thread {cpu} "
                      "which does not hold it", at_ns=t, cpu=cpu)
            return
        holds = self._holds
        if holds[lock] > 1:
            holds[lock] -= 1
            held.remove(lock)
        else:
            del holds[lock]
            if held[-1] == lock:
                del held[-1]    # the usual: its one hold, taken last
            else:
                held.remove(lock)

    # -- the per-scheduler quiesce rwlock ------------------------------

    def rwlock_read_acquire(self, kind, t, cpu, pid, cost, keys, values):
        name = values[_LOCK_AT] if values else "?"
        state = self._rw[name]
        if state[1]:
            self.flag(f"rwlock {name!r}: read acquired while the "
                      "upgrade writer holds it", at_ns=t, cpu=cpu)
        state[0] += 1

    def rwlock_read_release(self, kind, t, cpu, pid, cost, keys, values):
        name = values[_LOCK_AT] if values else "?"
        state = self._rw[name]
        if state[0] <= 0:
            self.flag(f"rwlock {name!r}: read release underflow",
                      at_ns=t, cpu=cpu)
        else:
            state[0] -= 1

    def rwlock_write_acquire(self, kind, t, cpu, pid, cost, keys, values):
        name = values[_LOCK_AT] if values else "?"
        state = self._rw[name]
        if state[0] > 0 or state[1]:
            self.flag(f"rwlock {name!r}: write acquired with "
                      f"{state[0]} readers inside "
                      f"(writer={state[1]})", at_ns=t, cpu=cpu)
        state[1] = True

    def rwlock_write_release(self, kind, t, cpu, pid, cost, keys, values):
        name = values[_LOCK_AT] if values else "?"
        state = self._rw[name]
        if not state[1]:
            self.flag(f"rwlock {name!r}: write release without "
                      "hold", at_ns=t, cpu=cpu)
        state[1] = False

    def check(self, kernel):
        now = kernel.now if kernel is not None else 0
        for thread, locks in self._held.items():
            if locks:
                self.flag(f"thread {thread} still holds locks {locks} "
                          "at end of run", at_ns=now, cpu=thread)
        for name, (readers, writer) in self._rw.items():
            if readers or writer:
                self.flag(f"rwlock {name!r} leaked: readers={readers} "
                          f"writer={writer}", at_ns=now)


_LOCK_AT = field_index("lock", LockSanitizer.KINDS)


class GroupBandwidthSanitizer(_ScanSanitizer):
    """Group-bandwidth-conservation, audited on every throttle-path
    event (throttle / unthrottle / quota_refill) and at end of run."""

    name = "group_bandwidth"
    scan = staticmethod(group_bandwidth_violations)
    KINDS = SCAN_KINDS = frozenset({"throttle", "unthrottle", "quota_refill"})


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
    kind (a backwards stamp to the :class:`ClockSanitizer`), the shims'
    token registries are tapped so ``token_*`` events flow, and
    ``check()`` runs the final state scans.  Violations land
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
                tokens.on_event = self._hook
                tokens.clock = kernel.clock
                self._tapped_registries.append(tokens)

    def detach(self):
        for tokens in self._tapped_registries:
            if tokens.on_event == self._hook:
                tokens.on_event = tokens.clock = None
        self._tapped_registries = []
        super().detach()

    # -- event intake --------------------------------------------------

    def _stamp_backwards(self, kind, t, cpu, pid):
        for sanitizer in self.sanitizers:
            if isinstance(sanitizer, ClockSanitizer):
                sanitizer.backwards(kind, t, cpu, pid, self._last_t)

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
