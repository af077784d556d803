"""Property tests: the tracer's lazy ring equals an eager intake.

``SchedTracer._hook`` retains what it was handed and builds the
canonical :class:`TraceEvent` only when ``events`` is read.  The
reference below is the eager intake it replaced — one ``TraceEvent`` per
retained emission, ``dropped`` counted at the append — behind the same
query helpers, so every read a caller can make is compared at random
points of random emission sequences.  Plain seeded ``random`` drives the
generation; failures print the seed.
"""

import random
from collections import deque

import pytest

from repro.obs import Observer
from repro.simkernel.tracing import SchedTracer, TraceEvent
from repro.verify import SanitizerSuite

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
            tracer._hook(**emission)
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
        tracer._hook("dispatch", t=t, cpu=0, pid=1, cost=5, prev=t)
        assert len(tracer._ring) <= CAPACITY
    assert tracer.dropped == CAPACITY * 9
    assert [e.t_ns for e in tracer.events] == list(
        range(CAPACITY * 9, CAPACITY * 10))
