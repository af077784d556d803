"""Scheduler implementations.

Every scheduler queues its waiting tasks in one format,
:class:`~repro.simkernel.runqueue.TokenQueue`: the native classes with
pids, the Enoki policies with their ``Schedulable`` tokens.

Native (trusted, kernel-side) classes:

* :class:`~repro.schedulers.cfs.CfsSchedClass` — the Linux CFS baseline.
* :class:`~repro.schedulers.fifo_native.NativeFifoClass` — a minimal
  trusted FIFO: ghOSt's agent class, and the class tests stack above and
  below CFS.
* :mod:`~repro.schedulers.ghost` — the ghOSt comparison model.

Enoki schedulers (implement :class:`repro.core.trait.EnokiScheduler` and
are loaded through the framework; the hand-written ones share the
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

Every scheduler is a row of :data:`repro.exp.builder.SCHEDULERS`, and
this package exports what each row registers.  Each name loads its module
on first use (:func:`repro.lazy_exports`), so a session imports only the
schedulers it registers.
"""

from repro import lazy_exports
from repro.exp.builder import SCHEDULERS

_PATHS = [row.path.split(":") for row in SCHEDULERS.values()]
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    module.rpartition(".")[2]: " ".join(n for m, n in _PATHS if m == module)
    for module, _ in _PATHS})
