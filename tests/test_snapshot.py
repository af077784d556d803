"""Warm-image snapshot/restore: capture contract and replay fidelity.

The snapshot subsystem's promise is strict: a forked session is
byte-identical to its siblings and behaviourally identical to a fresh
build, across every scheduler class — the equivalence oracle is
:func:`repro.verify.fuzz.state_digest`, the same digest the fuzz
differential oracles use.
"""

import pytest

from repro.core import Recorder
from repro.exp import KernelBuilder
from repro.simkernel.program import Run, Sleep
from repro.simkernel.snapshot import (
    ImageCache,
    SnapshotError,
    capture,
    snapshots_enabled,
)
from repro.verify.fuzz import episode_digest, state_digest

#: every scheduler the builder registry knows
SCHEDULERS = ("wfq", "fifo", "eevdf", "shinjuku", "locality", "serverless")


def build_session(sched="wfq", seed=99, recorder=None):
    return (KernelBuilder(topology="smp:2", seed=seed)
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
        assert clone.kernel.events.owner is clone.kernel
        assert image.forks == 1

    @pytest.mark.parametrize("sched", SCHEDULERS)
    def test_forks_replay_identically(self, sched):
        """Two forks — and a fresh build — digest identically."""
        image = capture(build_session(sched))
        first = run_and_digest(image.fork())
        second = run_and_digest(image.fork())
        fresh = run_and_digest(build_session(sched))
        assert first == second == fresh

    def test_fork_reseed_matches_fresh_build(self):
        """fork(seed=S) is equivalent to building from scratch with S."""
        image = capture(build_session(seed=1))
        forked = run_and_digest(image.fork(seed=123))
        fresh = run_and_digest(build_session(seed=123))
        assert forked == fresh
        assert image._session.kernel.config.seed == 1  # master untouched


class TestImageCache:
    def test_hits_misses_and_identical_forks(self):
        cache = ImageCache()
        one = cache.fork("k", build_session)
        two = cache.fork("k", build_session)
        assert cache.misses == 1 and cache.hits == 1
        assert run_and_digest(one) == run_and_digest(two)

    def test_lru_eviction(self):
        cache = ImageCache(capacity=2)
        cache.fork("a", build_session)
        cache.fork("b", build_session)
        cache.fork("a", build_session)     # refresh a
        cache.fork("c", build_session)     # evicts b, the LRU entry
        assert cache.misses == 3
        keys = {key for (key, _mode) in cache._images}
        assert keys == {"a", "c"}

    def test_keys_fold_in_events_mode(self, monkeypatch):
        cache = ImageCache()
        cache.fork("k", build_session)
        monkeypatch.setenv("REPRO_REFERENCE_EVENTS", "1")
        cache.fork("k", build_session)
        assert cache.misses == 2           # reference mode is its own image

    def test_opt_out_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SNAPSHOT", "1")
        assert not snapshots_enabled()
        monkeypatch.delenv("REPRO_NO_SNAPSHOT")
        assert snapshots_enabled()

    def test_fuzz_forks_match_build_from_scratch(self, monkeypatch):
        """Episodes on forked images — first fork and pure restore —
        digest the same as the ``REPRO_NO_SNAPSHOT=1`` control."""
        seeds = (1, 7, 42)
        monkeypatch.delenv("REPRO_NO_SNAPSHOT", raising=False)
        first = [episode_digest(seed) for seed in seeds]
        second = [episode_digest(seed) for seed in seeds]
        monkeypatch.setenv("REPRO_NO_SNAPSHOT", "1")
        control = [episode_digest(seed) for seed in seeds]
        assert first == second == control
