"""The raw kernel scheduler-class interface.

This mirrors Linux's ``struct sched_class``: the kernel core calls these
hooks at well-defined points, and the class answers policy questions (where
to place a task, what to run next, what to migrate).  Native schedulers
(our CFS model, the ghOSt shim) implement this interface directly and are
*trusted*: a bad answer can corrupt the simulated kernel exactly as it
would the real one.  Enoki schedulers never see this interface — the
``repro.core.enoki_c`` adapter implements it on their behalf and translates
every call into a checked message (paper section 3.1).

Call-ordering contract (enforced by the kernel core, mirroring the paper's
walk-through in section 3.1):

* new task:     ``select_task_rq`` -> kernel attach -> ``task_new``
* wakeup:       ``select_task_rq`` -> kernel attach -> ``task_wakeup``
* block:        kernel detach -> ``task_blocked``
* yield:        ``task_yield`` (task stays attached)
* preempt:      ``task_preempt`` (task stays attached)
* schedule:     ``balance`` -> (kernel migration) -> ``pick_next_task``
* tick:         ``task_tick``
* migration:    kernel detach/attach -> ``migrate_task_rq``

Cost-model contract (who charges what, once).  The kernel core charges a
class's hooks as virtual time through exactly two reads:

* :meth:`SchedClass.pick_walk_cost_ns` — once per class the pick walk
  visits, *after* ``pick_next_task``: ``sched_balance_ns +
  sched_pick_ns`` plus whatever the class accrued since the last read
  (the Enoki shim's timer-arm and injected-hang extras);
* :meth:`SchedClass.hooks_cost_ns` — once per wakeup, fork
  (``select_task_rq`` + the state hook: ``n = 2``) and deschedule or
  preemption (``n = 1``): ``n * sched_queue_ns``.

Both are sums of :class:`~repro.simkernel.config.SimConfig` constants
resolved at ``attach_kernel`` (the config is frozen).  A class that costs
more per hook adds to the two constants there (ghOSt: one agent message
per hook); only the Enoki shim overrides the reads, to add what is not
constant — the recorder's per-hook overhead while it is active and the
one-shot upgrade blackout.  ``migrate_ns``, ``context_switch_ns`` and the
wakeup/idle-exit model are the dispatcher's and the migration service's,
not the class's.
"""

# Wake flags, mirroring the kernel's WF_*.
WF_FORK = 0x1
WF_SYNC = 0x2
WF_TTWU = 0x4
WF_EXEC = 0x8


class SchedClass:
    """Base scheduler class.  Subclass and override the policy hooks.

    ``kernel`` is attached before any hook runs; native classes may use the
    full kernel API (they are kernel code).
    """

    #: policy id tasks use to select this class (like SCHED_NORMAL etc.)
    policy = 0
    #: human-readable name for stats and logs
    name = "sched"

    def __init__(self):
        self.kernel = None

    # -- lifecycle --------------------------------------------------------

    def attach_kernel(self, kernel):
        """Called once at registration."""
        self.kernel = kernel
        cfg = kernel.config
        self._walk_cost_ns = cfg.sched_balance_ns + cfg.sched_pick_ns
        self._hook_cost_ns = cfg.sched_queue_ns

    def detach_kernel(self):
        self.kernel = None

    # -- cost model (contract in the module docstring) ---------------------

    def pick_walk_cost_ns(self):
        """Kernel time one pick-walk visit costs: ``balance`` +
        ``pick_next_task`` + extras accrued since the last read."""
        return self._walk_cost_ns

    def hooks_cost_ns(self, n):
        """Kernel time ``n`` placement / state-tracking hooks cost."""
        return n * self._hook_cost_ns

    # -- placement ---------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        """Choose the CPU whose run queue the task should be attached to.

        May return ``DEFERRED_CPU`` when the class places tasks
        asynchronously (the ghOSt model does); the kernel then parks the
        task until the class calls ``kernel.place_task``.
        """
        raise NotImplementedError

    # -- state tracking ------------------------------------------------------

    def task_new(self, task, cpu):
        """A new task was attached to ``cpu``'s run queue."""
        raise NotImplementedError

    def task_wakeup(self, task, cpu):
        """A woken task was attached to ``cpu``'s run queue."""
        raise NotImplementedError

    def task_blocked(self, task, cpu):
        """The task blocked and was detached from ``cpu``'s run queue."""
        raise NotImplementedError

    def task_yield(self, task, cpu):
        """The task called sched_yield(); it remains attached."""

    def task_preempt(self, task, cpu):
        """The task lost the CPU but remains runnable and attached."""

    def task_dead(self, pid):
        """The task exited; the class must drop all references."""

    def task_departed(self, task, cpu):
        """The task switched to a different policy; drop it."""

    def task_prio_changed(self, task, cpu):
        """The task's nice value changed."""

    def task_affinity_changed(self, task, cpu):
        """The task's allowed-CPU mask changed."""

    # -- core decisions --------------------------------------------------------

    def pick_next_task(self, cpu):
        """Return the pid to run next on ``cpu``, or None to idle / defer
        to a lower-priority class."""
        raise NotImplementedError

    def balance(self, cpu):
        """Offered a chance to pull work onto ``cpu``.

        Return a pid currently queued on *another* CPU that should be
        migrated here, or None.  The kernel performs the migration and
        calls ``migrate_task_rq`` (or ``balance_err`` on failure).
        """
        return None

    def balance_err(self, cpu, pid):
        """The requested migration could not be performed."""

    def migrate_task_rq(self, task, new_cpu):
        """The kernel moved the task to ``new_cpu``'s run queue."""

    def pick_err(self, cpu, pid):
        """The task returned by pick_next_task could not be scheduled."""

    # -- time ----------------------------------------------------------------

    def update_curr(self, task, delta_ns):
        """Runtime accounting: ``task`` just ran for ``delta_ns``."""

    def task_tick(self, cpu, task):
        """Periodic tick while ``task`` runs on ``cpu`` (task may be None
        when the CPU is idle)."""

    # -- wakeup preemption -----------------------------------------------------

    def wakeup_preempt(self, cpu, task):
        """Should the newly woken ``task`` preempt ``cpu``'s current task?

        Return ``"now"`` for immediate preemption, ``"tick"`` to preempt at
        the next timer tick (CFS's behaviour per the paper), or None.
        """
        return None


#: Sentinel returned by select_task_rq for deferred (asynchronous) placement.
DEFERRED_CPU = -1
