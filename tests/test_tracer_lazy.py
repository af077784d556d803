"""Property tests: the tracer's lazy ring equals an eager intake.

``SchedTracer._hook`` retains each emission as one flat tuple and builds
the canonical :class:`TraceEvent` only when ``events`` is read.  The
reference below is the eager intake it replaced — one ``TraceEvent`` per
retained emission, ``dropped`` counted at the append — behind the same
query helpers, so every read a caller can make is compared at random
points of random emission sequences.  Plain seeded ``random`` drives the
generation; failures print the seed.
"""

import gc
import random
from collections import deque

import pytest

from repro.obs import Observer
from repro.simkernel.tracing import SchedTracer, TraceEvent
from repro.verify import SanitizerSuite, generate_episode
from repro.verify.fuzz import _run_episode_session

N_CASES = 40
CAPACITY = 16

#: known kinds (none whose feeder needs a field of its own) and two the
#: taxonomy has never heard of
KINDS = ("dispatch", "idle", "wakeup", "enoki_msg", "hint_enqueue",
         "lock_acquire", "lock_release", "rwlock_read_acquire",
         "rwlock_read_release", "token_issue", "mystery", "rwlock_mystery")
FIELDS = ("lock", "gen", "wall_ns", "depth", "zeta", "alpha")
RETAINED = frozenset(KINDS[::2])


class EagerTracer(SchedTracer):
    """The reference intake: canonical form built at every emission."""

    def __init__(self, capacity, kinds=None):
        super().__init__(capacity, kinds=kinds)
        self._eager = deque(maxlen=capacity)
        self._dropped = 0

    events = property(lambda self: self._eager)
    dropped = property(lambda self: self._dropped)

    @property
    def events_seen(self):
        return self.filtered + self.dropped + len(self.events)

    def _hook(self, kind, t=0, cpu=-1, pid=None, cost=0, **fields):
        if self.kinds is not None and kind not in self.kinds:
            self.filtered += 1
        else:
            if len(self._eager) == self.capacity:
                self._dropped += 1
            self._eager.append(TraceEvent(
                t, kind, cpu, pid, cost,
                tuple(sorted(fields.items())) if fields else ()))


def emit(tracer, kind, t, cpu, pid=None, cost=0, **fields):
    """Feed one keyword-shaped emission to the positional intake."""
    tracer._hook(kind, t, cpu, tuple(fields), *fields.values(), pid=pid,
                 cost=cost)


def random_emission(rng, t):
    fields = {name: rng.randrange(100)
              for name in rng.sample(FIELDS, rng.randrange(5))}
    return dict(kind=rng.choice(KINDS), t=t, cpu=rng.randrange(2),
                pid=rng.choice((None, 1, 2)),
                cost=rng.choice((0, 0, 150)), **fields)


READS = {
    "events": lambda tracer: list(tracer.events),
    "dropped": lambda tracer: tracer.dropped,
    "filtered": lambda tracer: tracer.filtered,
    "events_seen": lambda tracer: tracer.events_seen,
    "summary": lambda tracer: tracer.summary(),
    "timeline": lambda tracer: tracer.timeline(cpu=0),
}


@pytest.mark.parametrize("kinds", [None, RETAINED],
                         ids=["unfiltered", "kinds-filter"])
@pytest.mark.parametrize("tracer_cls",
                         [SchedTracer, Observer, SanitizerSuite])
def test_lazy_ring_equals_eager_intake(tracer_cls, kinds):
    reads = sorted((name, read) for name, read in READS.items()
                   if hasattr(tracer_cls, name))
    for seed in range(N_CASES):
        rng = random.Random(seed)
        tracer = tracer_cls(CAPACITY, kinds=kinds)
        reference = EagerTracer(CAPACITY, kinds=kinds)
        # Most cases wrap the ring several times; a few never fill it.
        for t in range(rng.randrange(CAPACITY * 8)):
            emission = random_emission(rng, t)
            emit(tracer, **emission)
            reference._hook(**emission)
            if rng.random() < 0.15:
                name, read = rng.choice(reads)
                assert read(tracer) == read(reference), (seed, t, name)
        for name, read in reads:
            assert read(tracer) == read(reference), (seed, "end", name)
        assert all(type(e) is TraceEvent for e in tracer.events), seed


def test_raw_ring_is_bounded_by_capacity_without_a_read():
    tracer = SchedTracer(capacity=CAPACITY)
    for t in range(CAPACITY * 10):
        emit(tracer, "dispatch", t=t, cpu=0, pid=1, cost=5, prev=t)
        assert len(tracer._ring) <= CAPACITY
    assert tracer.dropped == CAPACITY * 9
    assert [e.t_ns for e in tracer.events] == list(
        range(CAPACITY * 9, CAPACITY * 10))


#: one emission of each shape the flat layout must round-trip
SHAPES = {
    "no-fields": dict(kind="dispatch", cpu=0, pid=1),
    "one-field": dict(kind="wakeup", cpu=1, pid=2, target=0),
    "several-fields": dict(kind="enoki_msg", cpu=0, pid=3, zeta=1,
                           msg="pick", alpha=None, depth=2),
    "cost-no-fields": dict(kind="idle", cpu=1, cost=150),
    "cost-and-fields": dict(kind="lock_acquire", cpu=0, cost=40,
                            lock="rq", wall_ns=7),
    "unknown-kind": dict(kind="mystery", cpu=0, pid=None, gen=4),
}


@pytest.mark.parametrize("kinds", [None, RETAINED],
                         ids=["unfiltered", "kinds-filter"])
@pytest.mark.parametrize("capacity", [len(SHAPES) * 3, 4],
                         ids=["no-wrap", "wrap"])
def test_each_emission_shape_equals_eager_intake(capacity, kinds):
    tracer = SchedTracer(capacity, kinds=kinds)
    reference = EagerTracer(capacity, kinds=kinds)
    for t, emission in enumerate(list(SHAPES.values()) * 2):
        emit(tracer, t=t, **emission)
        reference._hook(t=t, **emission)
    assert list(tracer.events) == list(reference.events)
    assert (tracer.dropped, tracer.filtered) == (reference.dropped,
                                                 reference.filtered)
    if capacity == 4:
        assert tracer.dropped > 0


def test_retained_entries_are_flat_and_untracked_by_the_gc():
    """A raw ring entry holds only atomic values, so the cyclic GC stops
    tracking it; a sink editing a dict it builds from the payload it is
    handed cannot reach it."""

    def editing_attach(kernel):
        suite = SanitizerSuite.attach(kernel)

        def clobber(kind, t, cpu, pid, cost, keys, values):
            fields = dict(zip(keys, values))
            fields.clear()
            fields["clobbered"] = True
        suite.add_route(lambda kind: clobber)
        return suite

    spec = generate_episode(0)
    _, suite, _ = _run_episode_session(spec, SanitizerSuite.attach)
    _, edited, _ = _run_episode_session(spec, editing_attach)
    gc.collect()
    assert len(suite._ring) > 100
    for entry in suite._ring:
        assert type(entry) is tuple, entry
        assert not gc.is_tracked(entry), entry

    def deterministic(events):      # ``wall_ns`` is host time
        return [e._replace(args=tuple(a for a in e.args
                                      if a[0] != "wall_ns"))
                for e in events]
    assert deterministic(edited.events) == deterministic(suite.events)
    assert any(e.args for e in suite.events)
