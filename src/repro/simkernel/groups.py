"""Hierarchical task groups with CPU bandwidth control.

A cgroup-like tree of :class:`TaskGroup` nodes, owned by the kernel core
(``kernel.groups``).  Each node carries a *weight* (its share against its
siblings, like ``cpu.weight``) and an optional bandwidth cap
(``quota_ns`` runnable nanoseconds per ``period_ns``, like
``cpu.cfs_quota_us``/``cpu.cfs_period_us``).  The model mirrors CFS
bandwidth control:

* **Runtime accounting** — every ``update_curr`` delta of a grouped task
  is charged up its ancestor chain.  A capped group's
  ``runtime_remaining_ns`` is decremented with debt carry: throttling
  happens when it crosses zero, and the replenishment adds ``quota_ns``
  back (clamped at ``quota_ns``), so granularity overrun in one period is
  paid back in the next.
* **Throttling** — when a capped group exhausts its runtime the whole
  subtree is dequeued: queued tasks are detached from their run queues
  (the owning scheduler class sees ``task_blocked``, which also revokes
  Enoki Schedulable tokens), running tasks are preempted off their CPUs,
  and everything is parked in the throttling group's own run-queue
  container (``TaskGroup.parked``).  Tasks that wake, spawn, or complete
  deferred placement into a throttled subtree park directly.
* **Replenishment** — a one-shot timer chain armed lazily at the first
  charge of each period refills the quota, emits a ``quota_refill`` trace
  event, and unthrottles the group; parked tasks re-enter through the
  normal wakeup placement path (``select_task_rq`` -> attach ->
  ``task_wakeup``), so scheduler classes and token discipline see a
  perfectly ordinary wakeup.  The chain re-arms only while the group is
  throttled or consuming, so ``run_until_idle`` still drains.
* **Hierarchical weight** — each node keeps a per-CPU runnable index
  (direct member weight + weights of children with runnable subtrees);
  a task's effective weight is its own weight scaled by
  ``group.weight / runnable_entity_weight`` at every level, which reduces
  to the classic flat ``group_shares`` formula for a one-level tree.
  Every write to a CPU's index bumps that CPU's ``index_gen``, and the
  weight is memoised on the task against it, so readers pay the chain
  walk when the index changed, not on every ``update_curr``.

Tasks with ``task.group is None`` belong to the implicit root group and
pay a single attribute test on the hot paths — the hierarchy is free for
flat workloads.
"""

from repro.simkernel.errors import SimError
from repro.simkernel.sched_class import DEFERRED_CPU, WF_FORK, WF_TTWU
from repro.simkernel.task import TaskState
from repro.simkernel.tracing import QUOTA_REFILL, THROTTLE, UNTHROTTLE

#: per-event state tests read module globals, not enum attributes
_RUNNABLE, _RUNNING, _THROTTLED = (
    TaskState.RUNNABLE, TaskState.RUNNING, TaskState.THROTTLED)

#: default replenishment period.  CFS defaults to 100 ms; simulated
#: episodes are tens of milliseconds long, so the default is scaled down
#: to keep several replenishments per episode.
DEFAULT_PERIOD_NS = 10_000_000

#: parked-entry origins: how the task left the runnable world, which
#: decides the hook used to re-admit it (``task_new`` for tasks parked at
#: birth, ``task_wakeup`` for everything else).
PARKED_NEW = "new"
PARKED_WAKE = "wake"


class TaskGroup:
    """One node of the group hierarchy."""

    __slots__ = (
        "name", "parent", "children", "weight", "policy",
        "quota_ns", "period_ns",
        "runtime_remaining_ns", "period_consumed_ns", "period_start_ns",
        "total_runtime_ns", "periods", "max_period_consumed_ns",
        "throttled", "throttle_count", "throttled_ns", "throttled_since_ns",
        "members", "parked",
        "task_weight", "child_weight", "nr_runnable",
        "_timer_armed", "_enforce_pending",
    )

    def __init__(self, name, parent, weight, quota_ns, period_ns,
                 policy, nr_cpus):
        self.name = name
        self.parent = parent
        self.children = []
        self.weight = weight
        #: optional policy id tasks spawned *into* this group should run
        #: under (composability: a group can host any registered scheduler
        #: class for its children).  None = inherit the spawner's default.
        self.policy = policy
        self.quota_ns = quota_ns
        self.period_ns = period_ns
        self.runtime_remaining_ns = quota_ns
        self.period_consumed_ns = 0
        self.period_start_ns = -1
        self.total_runtime_ns = 0
        self.periods = 0
        self.max_period_consumed_ns = 0
        self.throttled = False
        self.throttle_count = 0
        self.throttled_ns = 0
        self.throttled_since_ns = -1
        #: direct member tasks, pid -> TaskStruct (insertion-ordered for
        #: deterministic subtree walks; dead tasks are kept so subtree
        #: runtime conservation stays checkable)
        self.members = {}
        #: this node's run-queue container: tasks dequeued by *this*
        #: group's throttle, pid -> (task, origin)
        self.parked = {}
        # Per-CPU runnable index: direct member weight, runnable-child
        # weight, and the entity count that drives 0<->1 propagation.
        self.task_weight = [0] * nr_cpus
        self.child_weight = [0] * nr_cpus
        self.nr_runnable = [0] * nr_cpus
        self._timer_armed = False
        self._enforce_pending = False

    def iter_subtree(self):
        """Yield this group and every descendant (deterministic order)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def snapshot(self):
        """Per-group stats row (obs gauges)."""
        return {
            "weight": self.weight,
            "quota_ns": self.quota_ns,
            "period_ns": self.period_ns,
            "policy": self.policy,
            "total_runtime_ns": self.total_runtime_ns,
            "throttle_count": self.throttle_count,
            "throttled_ns": self.throttled_ns,
            "periods": self.periods,
            "max_period_consumed_ns": self.max_period_consumed_ns,
            "parked": len(self.parked),
            "throttled": self.throttled,
        }

    def __repr__(self):
        cap = (f", quota={self.quota_ns}/{self.period_ns}"
               if self.quota_ns else "")
        return f"TaskGroup({self.name!r}, weight={self.weight}{cap})"


class GroupManager:
    """The group tree plus every kernel-side hierarchy operation."""

    def __init__(self, kernel):
        self.k = kernel
        nr_cpus = kernel.topology.nr_cpus
        self.root = TaskGroup("root", None, 1024, 0, DEFAULT_PERIOD_NS,
                              None, nr_cpus)
        self._by_name = {"root": self.root}
        #: per-CPU generation of the runnable index (``task_weight`` /
        #: ``child_weight``): what a memoised effective weight is valid for
        self.index_gen = [0] * nr_cpus

    # ------------------------------------------------------------------
    # tree construction / lookup
    # ------------------------------------------------------------------

    def has_groups(self):
        return len(self._by_name) > 1

    def has(self, name):
        return name in self._by_name

    def group(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise SimError(f"unknown task group {name!r}") from None

    def all_groups(self):
        return self._by_name.values()

    def create(self, name, parent="root", weight=1024, quota_ns=0,
               period_ns=0, policy=None):
        """Create a group under ``parent`` (a name or a TaskGroup)."""
        if not name or name in self._by_name:
            raise SimError(f"bad or duplicate group name {name!r}")
        if weight <= 0:
            raise SimError(f"group {name!r}: weight must be > 0 "
                           f"(got {weight})")
        if quota_ns < 0 or period_ns < 0:
            raise SimError(f"group {name!r}: negative bandwidth params")
        parent_group = (parent if isinstance(parent, TaskGroup)
                        else self.group(parent))
        if period_ns == 0:
            period_ns = DEFAULT_PERIOD_NS
        group = TaskGroup(name, parent_group, int(weight), int(quota_ns),
                          int(period_ns), policy,
                          self.k.topology.nr_cpus)
        parent_group.children.append(group)
        self._by_name[name] = group
        return group

    def assign(self, task, group):
        """Attach a (new) task to a group.  Called once, at spawn."""
        if isinstance(group, str):
            group = self.group(group)
        task.group = group
        task.eff_weight_key = None
        group.members[task.pid] = task

    # ------------------------------------------------------------------
    # per-CPU runnable index
    # ------------------------------------------------------------------

    def account(self, task, cpu):
        """Count ``task``'s weight as runnable on ``cpu``."""
        group = task.group
        if group is None:
            return
        old = task.group_cpu
        if old == cpu:
            return
        if old >= 0:
            self._weight_sub(group, task.weight, old)
        task.group_cpu = cpu
        self._weight_add(group, task.weight, cpu)

    def unaccount(self, task):
        """Remove ``task``'s weight from the runnable index."""
        group = task.group
        if group is None or task.group_cpu < 0:
            return
        self._weight_sub(group, task.weight, task.group_cpu)
        task.group_cpu = -1

    def _weight_add(self, group, weight, cpu):
        self.index_gen[cpu] += 1
        node = group
        node.task_weight[cpu] += weight
        node.nr_runnable[cpu] += 1
        # Propagate the 0 -> 1 "this subtree became runnable" edge.
        while node.nr_runnable[cpu] == 1 and node.parent is not None:
            parent = node.parent
            parent.child_weight[cpu] += node.weight
            parent.nr_runnable[cpu] += 1
            node = parent

    def _weight_sub(self, group, weight, cpu):
        self.index_gen[cpu] += 1
        node = group
        node.task_weight[cpu] -= weight
        node.nr_runnable[cpu] -= 1
        while node.nr_runnable[cpu] == 0 and node.parent is not None:
            parent = node.parent
            parent.child_weight[cpu] -= node.weight
            parent.nr_runnable[cpu] -= 1
            node = parent

    def effective_weight(self, task, cpu):
        """Hierarchical load weight: the task's weight scaled by its
        group's share of the runnable competition at every level.

        Walks the chain and leaves the result on the task under
        ``(cpu, index_gen[cpu], task.weight)``; hot readers (CFS) compare
        that key themselves and call here only when it no longer holds.
        """
        group = task.group
        if group is None:
            return task.weight
        eff = weight = task.weight
        while group.parent is not None:
            inside = group.task_weight[cpu] + group.child_weight[cpu]
            if inside > 0:
                eff = eff * group.weight // inside
                if eff < 1:
                    eff = 1
            group = group.parent
        task.eff_weight = eff
        task.eff_weight_key = (cpu, self.index_gen[cpu], weight)
        return eff

    # ------------------------------------------------------------------
    # bandwidth: charge -> enforce -> throttle -> refill -> unthrottle
    # ------------------------------------------------------------------

    def charge(self, group, delta):
        """Charge ``delta`` runnable nanoseconds to a capped ``group``
        (``quota_ns > 0``).  ``DispatchEngine.update_curr`` walks the
        chain and adds an uncapped node's runtime itself."""
        group.total_runtime_ns += delta
        if not group._timer_armed:
            self._arm_period(group)
        group.period_consumed_ns += delta
        group.runtime_remaining_ns -= delta
        if (group.runtime_remaining_ns <= 0 and not group.throttled
                and not group._enforce_pending):
            # Enforcement is deferred one event (same virtual instant):
            # update_curr callers keep manipulating the current task after
            # charging, so parking it inline here would corrupt the
            # dispatch path mid-flight.
            group._enforce_pending = True
            self.k.events.after(0, self._enforce, group)

    def bandwidth_headroom(self, group):
        """Minimum runtime left across capped ancestors (None = uncapped)."""
        headroom = None
        node = group
        while node is not None:
            if node.quota_ns > 0:
                remaining = node.runtime_remaining_ns
                if headroom is None or remaining < headroom:
                    headroom = remaining
            node = node.parent
        return headroom

    def _arm_period(self, group):
        group._timer_armed = True
        group.period_start_ns = self.k.now
        self.k.timers.arm(group.period_ns,
                          lambda _t, g=group: self._refill(g),
                          tag=("group_period", group.name))

    def _enforce(self, group):
        group._enforce_pending = False
        if (group.throttled or group.quota_ns <= 0
                or group.runtime_remaining_ns > 0):
            return
        self.throttle(group)

    def throttle(self, group):
        """Dequeue the whole subtree: park queued tasks, preempt runners."""
        k = self.k
        group.throttled = True
        group.throttle_count += 1
        group.throttled_since_ns = k.now
        parked = 0
        resched_cpus = []
        for node in group.iter_subtree():
            for task in node.members.values():
                state = task.state
                if state is _RUNNABLE and task.on_rq:
                    cpu = task.cpu
                    k.rqs[cpu].detach(task)
                    k._class_cache[task.policy].task_blocked(task, cpu)
                    self.park(task, group)
                    parked += 1
                elif state is _RUNNING:
                    # Preempted off the CPU; the dispatcher parks it on
                    # the way out (it sees the throttled ancestor).
                    resched_cpus.append(task.cpu)
        if k.trace is not None:
            k.trace("throttle", k.now, -1, THROTTLE, group.name, parked,
                    len(resched_cpus), group.runtime_remaining_ns)
        for cpu in resched_cpus:
            k.dispatcher.resched_cpu(cpu)

    def park(self, task, group, origin=PARKED_WAKE):
        """Park a task (already off every run queue) in ``group``."""
        task.set_state(_THROTTLED)
        self.unaccount(task)
        if task.stats.wait_since_ns < 0:
            # Parked time is wait time: the task wants the CPU and the
            # bandwidth controller is making it wait.
            task.stats.wait_since_ns = self.k.now
        group.parked[task.pid] = (task, origin)

    def throttled_ancestor(self, task):
        """Topmost throttled group on the task's chain (None if none)."""
        group = task.group
        top = None
        while group is not None:
            if group.throttled:
                top = group
            group = group.parent
        return top

    def _refill(self, group):
        k = self.k
        group._timer_armed = False
        consumed = group.period_consumed_ns
        if consumed > group.max_period_consumed_ns:
            group.max_period_consumed_ns = consumed
        group.periods += 1
        group.period_consumed_ns = 0
        group.period_start_ns = -1
        group.runtime_remaining_ns = min(
            group.quota_ns, group.runtime_remaining_ns + group.quota_ns
        )
        if k.trace is not None:
            k.trace("quota_refill", k.now, -1, QUOTA_REFILL, group.name,
                    consumed, group.runtime_remaining_ns)
        if group.throttled:
            if group.runtime_remaining_ns > 0:
                self.unthrottle(group)
            else:
                # Deep debt (> one quota): stay throttled another period.
                self._arm_period(group)
        # Not throttled: the chain stays dark until the next charge
        # lazily re-arms it, so an idle kernel drains.

    def unthrottle(self, group):
        """Re-admit every parked task through the wakeup placement path."""
        k = self.k
        if not group.throttled:
            return
        group.throttled = False
        if group.throttled_since_ns >= 0:
            group.throttled_ns += k.now - group.throttled_since_ns
            group.throttled_since_ns = -1
        # Trace first, then drain the container one task at a time: any
        # event fired mid-drain (sanitizers scan on unthrottle) must
        # still see every not-yet-admitted task inside a container.
        if k.trace is not None:
            k.trace("unthrottle", k.now, -1, UNTHROTTLE, group.name,
                    len(group.parked))
        while group.parked:
            pid = next(iter(group.parked))
            task, origin = group.parked.pop(pid)
            if task.state is not _THROTTLED:
                continue
            other = self.throttled_ancestor(task)
            if other is not None:
                # Another group on this task's chain is still throttled:
                # hand the task over to that group's container.
                other.parked[task.pid] = (task, origin)
                continue
            self._admit(task, origin)

    def _admit(self, task, origin):
        """Place a released task exactly like a fresh wakeup (or fork,
        for tasks that were parked at birth and never saw ``task_new``)."""
        k = self.k
        task.set_state(_RUNNABLE)
        cls = k._class_cache[task.policy]
        origin_cpu = task.cpu if task.cpu >= 0 else 0
        flags = WF_FORK if origin == PARKED_NEW else WF_TTWU
        cpu = k.migration.invoke_select(cls, task, origin_cpu, flags, -1)
        hook = cls.task_new if origin == PARKED_NEW else cls.task_wakeup
        if cpu == DEFERRED_CPU:
            k._limbo.add(task.pid)
            hook(task, DEFERRED_CPU)
            return
        k._attach_runnable(task, cpu)
        hook(task, cpu)
        k.migration.kick_cpu_for_wakeup(task, cpu, None, cls)

    # ------------------------------------------------------------------
    # introspection (obs)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Per-group stats rows keyed by name (skips a bare root)."""
        if not self.has_groups():
            return {}
        return {name: group.snapshot()
                for name, group in self._by_name.items()}
