"""Property-based tests for the drop-new ring buffer and hint accounting.

Plain seeded ``random`` drives the generation (no extra dependencies):
each property runs against many random operation sequences, checking the
ring against a straightforward reference model and the accounting
invariant the verify sanitizers rely on —

    pushed == popped + residual

under any interleaving of push/pop/drain.
Failures print the seed, so any counterexample is a one-number repro.
"""

import random

from repro.core.hints import RingBuffer
from repro.exp import KernelBuilder
from repro.simkernel import SimConfig
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, RecvHints, SendHint, Sleep

POLICY = 7
N_CASES = 60
OPS_PER_CASE = 300


class _ModelRing:
    """The obviously-correct reference implementation."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []
        self.pushed = self.popped = self.dropped = 0

    def push(self, entry):
        if len(self.entries) >= self.capacity:
            self.dropped += 1
            return False
        self.entries.append(entry)
        self.pushed += 1
        return True

    def pop(self):
        if self.entries:
            self.popped += 1
            return self.entries.pop(0)
        return None

    def drain(self, limit=None):
        take = len(self.entries) if limit is None else min(
            limit, len(self.entries))
        out, self.entries = self.entries[:take], self.entries[take:]
        self.popped += len(out)
        return out


def _run_case(rng):
    capacity = rng.randint(1, 8)
    ring = RingBuffer(capacity)
    model = _ModelRing(capacity)
    for step in range(OPS_PER_CASE):
        op = rng.random()
        if op < 0.55:
            value = rng.randrange(1_000_000)
            assert ring.push(value) == model.push(value)
        elif op < 0.8:
            assert ring.pop() == model.pop()
        else:
            limit = rng.choice((None, 1, 2, capacity, capacity * 2))
            assert ring.drain(limit) == model.drain(limit)
        # The two invariants, checked after EVERY operation:
        assert ring.peek_all() == model.entries
        assert ring.accounting_ok(), (ring.accounting(), step)
    ledger = ring.accounting()
    assert ledger["pushed"] == model.pushed
    assert ledger["popped"] == model.popped
    assert ledger["dropped"] == model.dropped


class TestRingBufferProperties:
    def test_drop_new_matches_model(self):
        for case in range(N_CASES):
            seed = 1_000 + case
            _run_case(random.Random(seed))

    def test_drop_new_never_loses_accepted_entries(self):
        for case in range(N_CASES):
            rng = random.Random(4_000 + case)
            capacity = rng.randint(1, 6)
            ring = RingBuffer(capacity)
            accepted = [v for v in (rng.randrange(1_000) for _ in range(20))
                        if ring.push(v)]
            assert ring.drain() == accepted


class TestKernelHintAccounting:
    """End-to-end: random hint storms through a tiny ring must keep the
    push/pop/drop ledger balanced."""

    def _storm(self, seed):
        rng = random.Random(seed)
        config = SimConfig(ring_buffer_capacity=rng.randint(1, 4))
        session = (KernelBuilder("smp:2", config)
                   .with_enoki("fifo", policy=POLICY).build())
        kernel, shim = session.kernel, session.shim

        def chatty(n_hints, burst_ns):
            def prog():
                for i in range(n_hints):
                    yield Run(burst_ns)
                    yield SendHint({"tid": None, "seq": i}, policy=POLICY)
                    if i % 3 == 2:
                        yield RecvHints()
                    yield Sleep(usecs(rng.randint(5, 50)))
            return prog

        for i in range(rng.randint(2, 5)):
            kernel.spawn(chatty(rng.randint(1, 12),
                                usecs(rng.randint(10, 200))),
                         policy=POLICY, origin_cpu=i % 2)
        kernel.run_until_idle()
        rings = (list(shim.queues.user_queues.values())
                 + list(shim.queues.rev_queues.values()))
        assert rings, "no hint traffic generated"
        for ring in rings:
            assert ring.accounting_ok(), ring.accounting()

    def test_drop_new_hint_storm(self):
        for case in range(12):
            self._storm(5_000 + case)
