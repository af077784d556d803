"""Live upgrade of a running Enoki scheduler (paper section 3.2).

The protocol, exactly as the paper lays it out:

1. quiesce the module — acquire the per-scheduler read-write lock in write
   mode, so no non-upgrade call can enter either module version;
2. call ``reregister_prepare`` on the old scheduler, which returns the
   state-passing structure;
3. call ``reregister_init`` on the new scheduler with that structure;
4. swap the dispatch pointer in Enoki-C and release the lock.

The virtual-time *pause* is modelled from the calibrated constants: a
per-CPU synchronisation cost (each CPU's in-flight read section must
drain — more cores, longer quiesce, which is why the paper measures
1.5 us on the 8-core box and ~10 us on the 80-core box) plus the fixed
pointer-swap cost plus a small per-transferred-task cost.  The blackout is
charged to the first dispatch after the upgrade, so workloads observe the
service interruption the same way section 5.7's instrumentation does.
"""

from dataclasses import dataclass

from repro.core.errors import UpgradeError
from repro.core.libenoki import LibEnoki
from repro.simkernel.tracing import (
    UPGRADE_ABORT, UPGRADE_COMPLETE, UPGRADE_PREPARE, UPGRADE_QUIESCE,
    UPGRADE_STEP)


@dataclass
class UpgradeReport:
    """What one live upgrade did and what it cost."""

    requested_at_ns: int
    completed_at_ns: int
    pause_ns: int
    transferred_state: bool
    transferred_tasks: int
    old_scheduler: str
    new_scheduler: str
    #: the new module's init failed; the old module kept running
    aborted: bool = False
    error: str = ""

    @property
    def pause_us(self):
        return self.pause_ns / 1_000.0


class UpgradeManager:
    """Performs live upgrades of the scheduler hosted by one Enoki-C shim."""

    def __init__(self, kernel, enoki_c):
        self.kernel = kernel
        self.enoki_c = enoki_c
        self.reports = []

    def upgrade_now(self, new_scheduler):
        """Perform the upgrade at the current virtual instant."""
        kernel = self.kernel
        shim = self.enoki_c
        old_lib = shim.lib
        old_scheduler = old_lib.scheduler

        if shim.recorder is not None and shim.recorder.active:
            # Paper section 3.4: "Enoki does not support upgrading the
            # scheduler during the record and replay process."
            raise UpgradeError(
                "cannot live-upgrade while the recorder is active; stop "
                "recording first"
            )
        if shim.failed:
            # The containment boundary failed this shim over before the
            # scheduled upgrade fired.  Swapping modules on a dead shim
            # would silently resurrect nothing (dispatches stay no-ops),
            # so the upgrade aborts cleanly instead.
            if kernel.trace is not None:
                kernel.trace("upgrade", kernel.now, -1, UPGRADE_ABORT,
                             "abort", "failed-over")
            report = UpgradeReport(
                requested_at_ns=kernel.now,
                completed_at_ns=kernel.now,
                pause_ns=0,
                transferred_state=False,
                transferred_tasks=0,
                old_scheduler=type(old_scheduler).__name__,
                new_scheduler=type(new_scheduler).__name__,
                aborted=True,
                error="scheduler already failed over; upgrade aborted",
            )
            self.reports.append(report)
            return report
        self._check_transfer_compat(old_scheduler, new_scheduler)

        # 1. Quiesce.  In the DES all reader sections have drained by the
        # time any event (including this one) runs, so the write acquire
        # must succeed instantly; its real-time cost is modelled below.
        if not old_lib.rwlock.try_acquire_write():
            raise UpgradeError(
                "could not quiesce: reader still inside the module"
            )
        if kernel.trace is not None:
            kernel.trace("upgrade", kernel.now, -1, UPGRADE_QUIESCE,
                         "quiesce", type(old_scheduler).__name__,
                         type(new_scheduler).__name__)
        abort_error = None
        try:
            # 2. Export state from the old version.
            state = old_lib.dispatch_locked("reregister_prepare", ())
            self._check_state_type(old_scheduler, state)
            if kernel.trace is not None:
                kernel.trace("upgrade", kernel.now, -1, UPGRADE_PREPARE,
                             "prepare", state is not None)

            try:
                # 3. Build the new module and import the state.  The token
                # registry and hint rings live in Enoki-C and survive the
                # swap, which is how Schedulables inside the transferred
                # state stay valid and how hint queues are "passed as part
                # of the shared state" (section 3.3).
                new_lib = LibEnoki(new_scheduler, enoki_c=shim,
                                   recorder=shim.recorder)
                new_lib.rwlock = old_lib.rwlock   # same quiesce domain
                new_lib.dispatch_locked(
                    "reregister_init", (state is not None,), extra=state)
                if kernel.trace is not None:
                    kernel.trace("upgrade", kernel.now, -1, UPGRADE_STEP,
                                 "init")

                # Hint queues are "passed as part of the shared state"
                # (section 3.3): the rings survive in Enoki-C, but the
                # incoming module has never seen them and would hand out
                # colliding ids for new processes.  Re-announce every
                # surviving ring and remap Enoki-C's table to the ids the
                # new module assigns.
                queue_table = self._reannounce_queues(shim, new_lib)

                # 4. Swap the dispatch pointer (and the queue table).
                shim.lib = new_lib
                shim.queues.rebind(*queue_table)
                shim.refresh_mode()
                if kernel.trace is not None:
                    kernel.trace("upgrade", kernel.now, -1, UPGRADE_STEP,
                                 "swap")
            except Exception as exc:
                # The incoming module failed to initialise.  Re-init the
                # old module with the state it exported and leave the
                # dispatch pointer unswapped: the upgrade aborts, the
                # machine keeps its working scheduler.
                abort_error = exc
                old_lib.dispatch_locked(
                    "reregister_init", (state is not None,), extra=state)
                if kernel.trace is not None:
                    kernel.trace("upgrade", kernel.now, -1, UPGRADE_ABORT,
                                 "abort", type(exc).__name__)
        finally:
            old_lib.rwlock.release_write()

        if abort_error is not None:
            pause_ns = self._pause_model(0)
            shim.note_upgrade_blackout(pause_ns)
            report = UpgradeReport(
                requested_at_ns=kernel.now,
                completed_at_ns=kernel.now + pause_ns,
                pause_ns=pause_ns,
                transferred_state=False,
                transferred_tasks=0,
                old_scheduler=type(old_scheduler).__name__,
                new_scheduler=type(new_scheduler).__name__,
                aborted=True,
                error=f"{type(abort_error).__name__}: {abort_error}",
            )
            self.reports.append(report)
            return report

        transferred_tasks = len(shim.tokens.live_pids())
        pause_ns = self._pause_model(transferred_tasks)
        shim.note_upgrade_blackout(pause_ns)
        if kernel.trace is not None:
            kernel.trace("upgrade", kernel.now, -1, UPGRADE_COMPLETE,
                         "complete", pause_ns, transferred_tasks)

        report = UpgradeReport(
            requested_at_ns=kernel.now,
            completed_at_ns=kernel.now + pause_ns,
            pause_ns=pause_ns,
            transferred_state=state is not None,
            transferred_tasks=transferred_tasks,
            old_scheduler=type(old_scheduler).__name__,
            new_scheduler=type(new_scheduler).__name__,
        )
        self.reports.append(report)
        return report

    def schedule_upgrade(self, new_scheduler_factory, at_ns):
        """Arrange an upgrade at a future virtual time.

        ``new_scheduler_factory`` is called at upgrade time so the incoming
        module is constructed fresh, like loading a new .ko.
        """
        def do_upgrade():
            self.upgrade_now(new_scheduler_factory())

        return self.kernel.events.at(at_ns, do_upgrade)

    # ------------------------------------------------------------------

    @staticmethod
    def _reannounce_queues(shim, new_lib):
        """Register every surviving hint ring with the incoming module.

        Returns ``(user_ids, rev_ids)``, each mapping a ring's current id
        to the id the new module assigned, ready for
        ``QueueRegistry.rebind`` at swap time.  Runs under the held write
        lock, so nothing can observe the half-built table.
        """
        registry = shim.queues
        user_ids = {
            old_id: new_lib.dispatch_locked("register_queue", (0,),
                                            extra=ring)
            for old_id, ring in registry.user_queues.items()
        }
        rev_ids = {
            old_id: new_lib.dispatch_locked("register_reverse_queue", (0,),
                                            extra=ring)
            for old_id, ring in registry.rev_queues.items()
        }
        return user_ids, rev_ids

    def _pause_model(self, transferred_tasks):
        cfg = self.kernel.config
        nr_cpus = self.kernel.topology.nr_cpus
        return (
            cfg.upgrade_swap_ns
            + cfg.upgrade_sync_per_cpu_ns * nr_cpus
            + cfg.upgrade_per_task_ns * transferred_tasks
        )

    @staticmethod
    def _check_transfer_compat(old_scheduler, new_scheduler):
        old_type = type(old_scheduler).TRANSFER_TYPE
        new_type = type(new_scheduler).TRANSFER_TYPE
        if old_type is not new_type:
            raise UpgradeError(
                "transfer-state type mismatch: outgoing "
                f"{type(old_scheduler).__name__} exports "
                f"{getattr(old_type, '__name__', None)!r} but incoming "
                f"{type(new_scheduler).__name__} expects "
                f"{getattr(new_type, '__name__', None)!r} "
                "(section 3.2: the structures must match)"
            )

    @staticmethod
    def _check_state_type(old_scheduler, state):
        expected = type(old_scheduler).TRANSFER_TYPE
        if state is None:
            return
        if expected is None or not isinstance(state, expected):
            raise UpgradeError(
                f"{type(old_scheduler).__name__}.reregister_prepare "
                f"returned {type(state).__name__}, not its declared "
                f"TRANSFER_TYPE"
            )
