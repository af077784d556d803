"""The Enoki framework.

The layering mirrors the paper's Figure 1:

* :mod:`~repro.core.enoki_c` (``Enoki-C``) — compiled into the kernel,
  translates core-scheduler calls into *messages*, manages kernel state
  (run-queue membership, task runtimes, :class:`Schedulable` tokens) on the
  scheduler's behalf, and owns the hint/record infrastructure.
* :mod:`~repro.core.libenoki` (``libEnoki``) — linked with the scheduler,
  parses messages, dispatches to the :class:`EnokiScheduler` trait methods,
  wraps locks for record/replay, and guards dispatch with the per-scheduler
  read-write lock that live upgrade uses to quiesce.
* the scheduler itself — pure policy code written against
  :class:`~repro.core.trait.EnokiScheduler` (Table 1 of the paper).

Plus the framework services: :mod:`~repro.core.upgrade` (live upgrade),
:mod:`~repro.core.hints` (bidirectional user/kernel queues),
:mod:`~repro.core.record` and :mod:`~repro.core.replay`, and the
robustness layer: :mod:`~repro.core.failover` (fault containment and
scheduler failover) with :mod:`~repro.core.faults` (deterministic fault
injection).

Each name below loads its submodule on first use (:func:`repro.lazy_exports`), so
a session imports only the framework pieces it runs.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "enoki_c": "EnokiSchedClass",
    "errors": "EnokiError FailoverError FaultError InjectedFault QueueError "
              "ReplayMismatch TokenError UpgradeError",
    "failover": "CALLBACK_BUDGET_NS STRIKE_THRESHOLD ContainmentBoundary "
                "FailoverManager FailoverReport PanicRecord",
    "faults": "BUILTIN_PLANS FaultInjector FaultPlan FaultSpec",
    "hints": "RevMessage RingBuffer UserMessage",
    "record": "Recorder",
    "replay": "ReplayEngine load_trace",
    "schedulable": "Schedulable TokenRegistry",
    "trait": "EnokiScheduler",
    "upgrade": "UpgradeManager UpgradeReport",
    "watchdog": "SchedulerWatchdog WatchdogReport",
})
