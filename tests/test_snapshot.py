"""Session snapshots: capture contract and fork fidelity.

A forked session is byte-identical to its siblings and behaviourally
identical to a fresh build, across every scheduler class — the
equivalence oracle is :func:`repro.verify.fuzz.state_digest`, the same
digest the fuzz differential oracles use.
"""

import pytest

from repro.core import Recorder
from repro.exp import KernelBuilder
from repro.simkernel.program import Run, Sleep
from repro.simkernel.snapshot import SnapshotError, capture
from repro.verify.fuzz import state_digest

#: every scheduler the builder registry knows
SCHEDULERS = ("wfq", "fifo", "eevdf", "shinjuku", "locality", "serverless")


def build_session(sched="wfq", recorder=None):
    return (KernelBuilder(topology="smp:2", seed=99)
            .with_native("cfs", policy=0, priority=5)
            .with_enoki(sched, policy=7, priority=10, recorder=recorder)
            .build())


def phased(run_ns):
    def program():
        for _ in range(3):
            yield Run(run_ns)
            yield Sleep(20_000)
    return program


def run_and_digest(session):
    """Spawn a small two-task mix, run to completion, digest the state."""
    session.spawn(phased(50_000), name="a", policy=7, origin_cpu=0)
    session.spawn(phased(40_000), name="b", policy=7, origin_cpu=1)
    session.kernel.run_until_idle()
    session.stop()
    return state_digest(session.kernel)


class TestCaptureContract:
    def test_capture_requires_pre_spawn(self):
        session = build_session()
        session.spawn(phased(10_000), name="t", policy=7, origin_cpu=0)
        with pytest.raises(SnapshotError, match="spawned"):
            capture(session)

    def test_capture_requires_quiescent_events(self):
        session = build_session()
        session.kernel.events.after(100, lambda: None)
        with pytest.raises(SnapshotError, match="quiescent"):
            capture(session)

    def test_capture_refuses_trace_hooks(self):
        session = build_session()
        session.kernel.trace = lambda *a, **k: None
        with pytest.raises(SnapshotError, match="trace"):
            capture(session)

    def test_capture_refuses_recorders(self):
        session = build_session(recorder=Recorder())
        with pytest.raises(SnapshotError, match="recorder"):
            capture(session)


class TestFork:
    def test_fork_disconnects_and_preserves_aliasing(self):
        image = capture(build_session())
        clone = image.fork()
        master = image._session
        # Disconnected: nothing in the clone reaches the master graph.
        assert clone.kernel is not master.kernel
        assert clone.shim.lib.env is not master.shim.lib.env
        assert clone.shim.lib.scheduler is not master.shim.lib.scheduler
        # Internal aliasing preserved: the clone is one connected machine.
        assert clone.kernel.clock is clone.kernel.events.clock
        assert clone.kernel.dispatcher.clock is clone.kernel.clock
        assert clone.shim.kernel is clone.kernel
        assert image.forks == 1

    @pytest.mark.parametrize("sched", SCHEDULERS)
    def test_forks_replay_identically(self, sched):
        """Two forks — and a fresh build — digest identically."""
        image = capture(build_session(sched))
        first = run_and_digest(image.fork())
        second = run_and_digest(image.fork())
        fresh = run_and_digest(build_session(sched))
        assert first == second == fresh
