"""The kernel core facade: a simulated multicore machine.

This module plays the role of Linux's ``kernel/sched/core.c`` in the
reproduction, but — mirroring the decomposition the paper argues for in
section 3.1 (shim + library instead of one tangled ``sched_class`` core) —
the logic lives in four collaborating subsystems, each owning one concern:

* :class:`~repro.simkernel.interp.OpInterpreter` (``kernel.interp``) —
  program-op execution and cost charging.  Task programs are generators
  of ops (:mod:`repro.simkernel.program`); the interpreter runs one op at
  a time, charging each op's cost from the calibrated
  :class:`~repro.simkernel.config.SimConfig` before performing its effect.
* :class:`~repro.simkernel.dispatch.DispatchEngine`
  (``kernel.dispatcher``) — the schedule() path: ``balance`` then
  ``pick_next_task`` over the class stack, context switches, preemption,
  the periodic tick, and runtime accounting.
* :class:`~repro.simkernel.migration.MigrationService`
  (``kernel.migration``) — wakeup placement, the IPI/idle-exit cost
  model, and run-queue migration with failed-migration accounting.
* :class:`~repro.simkernel.lifecycle.LifecycleManager`
  (``kernel.lifecycle``) — pid allocation and fork placement.

``Kernel`` itself owns all shared state — run queues, the current task of
every CPU, the task table, the registered
:class:`~repro.simkernel.sched_class.SchedClass` stack — and keeps the
public API stable: schedulers, sanitizers, faults, and observers call the
same surface as before the decomposition.
"""

import random

from repro.simkernel.clock import Clock
from repro.simkernel.config import SimConfig
from repro.simkernel.dispatch import DispatchEngine
from repro.simkernel.errors import SchedulingError
from repro.simkernel.events import EventQueue
from repro.simkernel.groups import GroupManager
from repro.simkernel.interp import OpInterpreter
from repro.simkernel.lifecycle import LifecycleManager
from repro.simkernel.migration import MigrationService
from repro.simkernel.runqueue import KernelRunQueue
from repro.simkernel.stats import KernelStats
from repro.simkernel.task import TaskState
from repro.simkernel.timers import TimerService
from repro.simkernel.topology import Topology


class _ClassMap(dict):
    """``policy -> class``: a hit is a call-free subscript; a miss resolves
    the redirect or raises, and memoises.  Cleared on register / redirect."""

    def __init__(self, kernel):
        self.kernel = kernel

    def __missing__(self, policy):
        k = self.kernel
        cls = k._class_by_policy.get(k._policy_redirects.get(policy, policy))
        if cls is None:
            raise SchedulingError(f"unregistered policy {policy}")
        self[policy] = cls
        return cls


class Kernel:
    """A simulated multicore machine running a stack of scheduler classes."""

    def __init__(self, topology=None, config=None):
        self.topology = topology if topology is not None else Topology.small8()
        self.config = config if config is not None else SimConfig()
        self.clock = Clock()
        self.events = EventQueue(self.clock)
        self.timers = TimerService(self.events, self.config)
        self.timers.owner = self
        self.rqs = [KernelRunQueue(c) for c in self.topology.all_cpus()]
        self.stats = KernelStats(self.topology.nr_cpus)
        self.tasks = {}
        self._classes = []            # (priority, SchedClass), high prio first
        self._class_by_policy = {}
        self._class_priority = {}     # SchedClass -> priority
        self._policy_redirects = {}   # failed policy -> fallback policy
        self._class_cache = _ClassMap(self)   # policy -> resolved class
        self._limbo = set()           # pids awaiting deferred placement
        self._hint_handlers = {}      # policy -> handler object
        # Deterministic micro-jitter source (IRQ/C-state variance model).
        self._rng = random.Random(self.config.seed ^ 0x5EED)
        self.trace = None
        # Optional accounting sink (repro.obs.accounting).  Like ``trace``
        # it is a plain attribute read plus one ``is None`` test at each
        # hook site, so the shim's ``_quiet`` crossing pays nothing when
        # detached.
        self.accounting = None
        # The four subsystems; each owns behaviour, the facade owns state.
        self.interp = OpInterpreter(self)
        self.dispatcher = DispatchEngine(self)
        self.migration = MigrationService(self)
        self.lifecycle = LifecycleManager(self)
        # Hierarchical task groups + CPU bandwidth control.  Always
        # present; tasks with ``group is None`` live in the implicit root
        # group and pay nothing on the hot paths.
        self.groups = GroupManager(self)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_sched_class(self, sched_class, priority=0):
        """Register a scheduler class.  Higher priority classes are offered
        tasks first during pick, like Linux's class stacking."""
        if sched_class.policy in self._class_by_policy:
            raise SchedulingError(
                f"policy {sched_class.policy} already registered"
            )
        sched_class.attach_kernel(self)
        self._classes.append((priority, sched_class))
        self._classes.sort(key=lambda pc: -pc[0])
        self._class_by_policy[sched_class.policy] = sched_class
        self._class_priority[sched_class] = priority
        self._class_cache.clear()
        return sched_class

    def redirect_policy(self, policy, to_policy):
        """Route the class lookups of ``policy`` to another class.

        Scheduler failover uses this: tasks keep their policy number (so
        hint routing and watchdogs stay wired) but are serviced by the
        fallback class from now on.
        """
        if to_policy not in self._class_by_policy:
            raise SchedulingError(
                f"cannot redirect policy {policy} to unregistered "
                f"policy {to_policy}"
            )
        # Collapse chains so lookups stay one hop.
        resolved = self._policy_redirects.get(to_policy, to_policy)
        self._policy_redirects[policy] = resolved
        for src, dst in list(self._policy_redirects.items()):
            if dst == policy:
                self._policy_redirects[src] = resolved
        self._class_cache.clear()

    def set_trace(self, hook):
        """Install (or remove, with ``None``) the trace hook.

        ``trace`` stays a plain attribute — every hot emission site reads it
        directly with one ``is None`` test — but going through this setter
        lets scheduler classes that cache a fast-path flag (the Enoki-C
        shim's ``_quiet``, recomputed by ``refresh_mode()`` through
        ``on_trace_changed``) refresh it at attach/detach time.
        """
        self.trace = hook
        for _prio, cls in self._classes:
            on_changed = getattr(cls, "on_trace_changed", None)
            if on_changed is not None:
                on_changed()

    def register_hint_handler(self, policy, handler):
        """Route userspace hint ops for ``policy`` to ``handler``.

        The handler provides ``send_hint(task, payload)`` and
        ``drain_rev(task)``; the Enoki adapter installs one per scheduler.
        """
        self._hint_handlers[policy] = handler

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self):
        return self.clock.now

    def run_until(self, deadline_ns):
        self.events.run_until(deadline_ns)

    def run_for(self, delta_ns):
        self.events.run_until(self.clock.now + delta_ns)

    def run_until_idle(self, max_events=None):
        return self.events.run_until_idle(max_events)

    # ------------------------------------------------------------------
    # lifecycle (delegated)
    # ------------------------------------------------------------------

    def spawn(self, prog, name=None, policy=0, nice=0, allowed_cpus=None,
              origin_cpu=0, tgid=None, group=None):
        """Create and start a new task running ``prog`` (a generator fn).

        ``group`` (a name or :class:`~repro.simkernel.groups.TaskGroup`)
        places the task in the group hierarchy; None means the implicit
        root group.
        """
        return self.lifecycle.spawn(prog, name=name, policy=policy,
                                    nice=nice, allowed_cpus=allowed_cpus,
                                    origin_cpu=origin_cpu, tgid=tgid,
                                    group=group)

    # ------------------------------------------------------------------
    # wakeups and migration (delegated)
    # ------------------------------------------------------------------

    def wake_task(self, task, waker_cpu=None, sync=False,
                  charge_waker=False):
        """Try-to-wake-up: move a blocked task back onto a run queue."""
        return self.migration.wake_task(task, waker_cpu, sync, charge_waker)

    def place_task(self, pid, cpu, kicker_cpu=None):
        """Complete a deferred placement (asynchronous schedulers only)."""
        return self.migration.place_task(pid, cpu, kicker_cpu=kicker_cpu)

    def try_migrate(self, pid, dest_cpu, cls):
        """Move a queued (not running) task to ``dest_cpu``'s run queue."""
        return self.migration.try_migrate(pid, dest_cpu, cls)

    # ------------------------------------------------------------------
    # rescheduling (delegated)
    # ------------------------------------------------------------------

    def resched_cpu(self, cpu):
        """Request a reschedule of ``cpu`` (used by scheduler classes)."""
        self.dispatcher.resched_cpu(cpu)

    # ------------------------------------------------------------------
    # shared-state helpers used by the subsystems
    # ------------------------------------------------------------------

    def _attach_runnable(self, task, cpu):
        # ``self.rqs[cpu].attach(task)``, inline, with the same checks.
        queued = self.rqs[cpu].queued
        pid = task.pid
        if pid in queued:
            raise SchedulingError(f"pid {pid} double-attached to cpu {cpu}")
        if task.on_rq:
            raise SchedulingError(
                f"pid {pid} already on a run queue (cpu {task.cpu})")
        queued[pid] = task
        task.on_rq = True
        task.cpu = cpu
        now = self.clock.now
        task.last_enqueue_ns = now
        # Delay accounting: open the wait segment unless one is already
        # open (deferred-placement limbo opens it at wakeup time, before
        # the task reaches any run queue).
        if task.stats.wait_since_ns < 0:
            task.stats.wait_since_ns = now
        if task.group is not None:
            self.groups.account(task, cpu)
        acct = self.accounting
        if acct is not None:
            acct.note_enqueue(cpu, len(queued))

    # ------------------------------------------------------------------
    # queries used by scheduler classes and workloads
    # ------------------------------------------------------------------

    def current_pid(self, cpu):
        cur = self.rqs[cpu].current
        return cur.pid if cur is not None else None

    def alive_tasks(self):
        return [t for t in self.tasks.values()
                if t.state != TaskState.DEAD]
