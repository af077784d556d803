"""Deep-copy snapshot of a built session: ``capture`` + ``KernelImage.fork``.

Nothing under ``src/`` forks a session any more — a fresh build costs a
fifth of a fork (``exp.build_ms`` 0.08–0.16 ms against
``snapshot.fork_ms`` 0.58–0.85 ms) and is deterministic, so every
session is built from scratch.  This module remains for the one caller
it has, perfbench's ``sessions`` driver, which reports
``snapshot.capture_ms`` / ``snapshot.fork_ms`` through it (ROADMAP,
``[benchmark]`` follow-up, retires both together).

The capture contract (enforced by :func:`capture`):

* **pre-spawn** — ``kernel.tasks`` must be empty.  Task programs are live
  generators, which cannot be deep-copied; images are taken before any
  task exists.
* **quiescent** — the event queue must be empty.  Armed timer callbacks
  are closures over the original kernel's objects; ``deepcopy`` treats
  plain functions as atomic, so a copied armed timer would still poke the
  *original* machine.  Pre-spawn sessions are naturally quiescent.
* **unobserved** — no recorder, no trace hook, no fault injector, no
  scheduled upgrade.  Those attach per-run; each fork decorates itself.

A fork is a plain ``deepcopy``: a session holds no OS lock or
thread-local storage that would need a copy hook.
"""

from copy import deepcopy

from repro.simkernel.errors import SimError


class SnapshotError(SimError):
    """A session violated the snapshot capture contract."""


def _require(condition, why):
    if not condition:
        raise SnapshotError(f"session not snapshottable: {why}")


def capture(session):
    """Freeze ``session`` into a :class:`KernelImage`.

    Takes ownership: the captured session becomes the image's pristine
    master copy and must never be run by the caller afterwards (every
    fork is a deep copy of it, so running it would warm state into all
    future forks).
    """
    kernel = session.kernel
    _require(not kernel.tasks, "tasks already spawned (programs are "
             "live generators and cannot be copied)")
    _require(len(kernel.events) == 0, "event queue not quiescent "
             "(armed callbacks close over the original kernel)")
    _require(kernel.trace is None, "a trace hook is attached")
    _require(session.observer is None, "an observer is attached")
    _require(session.injector is None, "a fault injector is installed")
    _require(session.upgrades is None, "an upgrade is scheduled")
    shim = session.shim
    if shim is not None:
        lib = shim.lib
        _require(lib.recorder is None and lib.env.recorder is None,
                 "a recorder is attached")
        rwlock = lib.rwlock
        _require(not rwlock._readers and not rwlock._writer,
                 "scheduler rwlock held")
    return KernelImage(session)


class KernelImage:
    """A frozen, never-run session that forks byte-identical clones."""

    def __init__(self, session):
        self._session = session
        self.forks = 0

    def fork(self):
        """A fresh runnable session, byte-identical to every other fork."""
        clone = deepcopy(self._session)
        self.forks += 1
        return clone
