"""Scheduler implementations.

Native (trusted, kernel-side) classes:

* :class:`~repro.schedulers.cfs.CfsSchedClass` — the Linux CFS baseline.
* :class:`~repro.schedulers.rt.RtSchedClass` — SCHED_FIFO/RR.
* :class:`~repro.schedulers.fifo_native.NativeFifoClass` — a minimal
  trusted FIFO, used by substrate tests and docs.
* :mod:`~repro.schedulers.ghost` — the ghOSt comparison model.

Enoki schedulers (implement :class:`repro.core.trait.EnokiScheduler` and
are loaded through the framework; the hand-written ones keep their tokens
in the :class:`~repro.schedulers.base.TokenQueue` and share the
:class:`~repro.schedulers.base.QueuePolicy` base class):

* :class:`~repro.schedulers.wfq.EnokiWfq` — weighted fair queuing
  (paper section 4.2.1).
* :class:`~repro.schedulers.fifo.EnokiFifo` — the paper's walk-through
  scheduler (section 3.1).
* :class:`~repro.schedulers.shinjuku.EnokiShinjuku` — section 4.2.2.
* :class:`~repro.schedulers.locality.EnokiLocality` — section 4.2.3.
* :class:`~repro.schedulers.arachne.EnokiCoreArbiter` — section 4.2.4.
* :class:`~repro.schedulers.nest.EnokiNest` — a Nest-style warm-core
  policy (the section 2 motivation, as an extension).
* :class:`~repro.schedulers.eevdf.EnokiEevdf` — EEVDF, the policy that
  replaced CFS in Linux 6.6, as a ~100-line trait implementation (the
  development-velocity thesis, demonstrated forward).
* :class:`~repro.schedulers.serverless.EnokiServerless` — an
  scx_serverless-style two-tier policy: short FaaS invocations run to
  completion, observed/declared long work is demoted to a fair backing
  queue.

Each name loads its module on first use (:func:`repro.lazy_exports`), so a
session imports only the schedulers it registers.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "arachne": "EnokiCoreArbiter",
    "cfs": "CfsSchedClass",
    "deadline": "DeadlineSchedClass",
    "eevdf": "EnokiEevdf",
    "fifo": "EnokiFifo",
    "fifo_native": "NativeFifoClass",
    "locality": "EnokiLocality",
    "nest": "EnokiNest",
    "rt": "RtSchedClass",
    "serverless": "EnokiServerless",
    "shinjuku": "EnokiShinjuku",
    "wfq": "EnokiWfq",
})
