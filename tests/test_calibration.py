"""Calibration anchors: the cost model must keep reproducing the paper's
Table 3 CFS column (and the WFQ deltas) on the sched-pipe benchmark.

If these fail after a substrate change, either re-tune SimConfig or update
EXPERIMENTS.md — silent drift would quietly invalidate every other
experiment's comparisons.
"""

import pytest

from repro.exp import KernelBuilder
from repro.workloads.pipe_bench import run_pipe_benchmark

POLICY = 7


def pipe_latency(enoki=False, same_core=False, rounds=1500):
    builder = KernelBuilder("small8").with_native("cfs")
    if enoki:
        builder.with_enoki("wfq", policy=POLICY)
    session = builder.build()
    result = run_pipe_benchmark(session.kernel, policy=session.policy,
                                rounds=rounds, same_core=same_core)
    return result.latency_us_per_message


class TestTable3Anchors:
    """Paper Table 3: CFS 3.0 (one core) / 3.6 (two cores) us per message;
    Enoki WFQ 3.6 / 4.0."""

    def test_cfs_one_core(self):
        assert pipe_latency(enoki=False, same_core=True) == \
            pytest.approx(3.0, rel=0.15)

    def test_cfs_two_cores(self):
        assert pipe_latency(enoki=False, same_core=False) == \
            pytest.approx(3.6, rel=0.15)

    def test_wfq_one_core(self):
        assert pipe_latency(enoki=True, same_core=True) == \
            pytest.approx(3.6, rel=0.15)

    def test_wfq_two_cores(self):
        assert pipe_latency(enoki=True, same_core=False) == \
            pytest.approx(4.0, rel=0.15)

    def test_enoki_overhead_band(self):
        """Section 5.2: Enoki adds ~0.4-0.6 us per message over CFS
        (framework dispatch overhead, four-plus invocations per schedule)."""
        one_core_delta = (pipe_latency(enoki=True, same_core=True)
                          - pipe_latency(enoki=False, same_core=True))
        two_core_delta = (pipe_latency(enoki=True, same_core=False)
                          - pipe_latency(enoki=False, same_core=False))
        assert 0.2 <= one_core_delta <= 0.8
        assert 0.1 <= two_core_delta <= 0.8

    def test_two_cores_slower_than_one(self):
        """Cross-core wakeups (IPI + idle exit) cost more than same-core
        context switches for this synchronous workload."""
        assert (pipe_latency(enoki=False, same_core=False)
                > pipe_latency(enoki=False, same_core=True))
