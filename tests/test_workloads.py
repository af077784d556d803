"""Unit/integration tests for the workload generators themselves."""

import os
import subprocess
import sys

import pytest

from repro.core import EnokiSchedClass
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.shinjuku import EnokiShinjuku
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.workloads.apps import ALL_PROFILES, AppProfile, run_app
from repro.workloads.batch import start_batch_app
from repro.workloads.fairness import (
    run_fair_share,
    run_placement,
    run_weighted_share,
)
from repro.workloads.memcached import run_memcached_threads
from repro.workloads.pipe_bench import run_pipe_benchmark
from repro.workloads.rocksdb import run_rocksdb
from repro.workloads.schbench import run_schbench


def cfs_kernel(nr_cpus=8):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    return kernel


class TestPipeBench:
    def test_measures_positive_latency(self):
        kernel = cfs_kernel()
        result = run_pipe_benchmark(kernel, 0, rounds=100)
        assert result.latency_us_per_message > 0
        assert result.measured_messages == 200

    def test_one_core_pins_both_tasks(self):
        kernel = cfs_kernel()
        run_pipe_benchmark(kernel, 0, rounds=50, same_core=True)
        pipe_tasks = [t for t in kernel.tasks.values()
                      if t.name.startswith("pipe-")]
        assert all(t.cpu == 0 for t in pipe_tasks)

    def test_pin_two_cores(self):
        kernel = cfs_kernel()
        run_pipe_benchmark(kernel, 0, rounds=50, pin_two_cores=True)
        cpus = {t.cpu for t in kernel.tasks.values()
                if t.name.startswith("pipe-")}
        assert cpus == {0, 1}

    @pytest.mark.parametrize("kwargs", [{"rounds": -3},
                                        {"warmup_rounds": -1}])
    def test_negative_round_counts_are_refused_before_running(self, kwargs):
        # The sender and receiver loops would disagree on the count: the
        # sender blocked on its reply for ever.
        kernel = cfs_kernel()
        with pytest.raises(ValueError, match="must be >= 0"):
            run_pipe_benchmark(kernel, 0, **kwargs)
        assert not kernel.tasks

    def test_zero_rounds_measure_nothing(self):
        result = run_pipe_benchmark(cfs_kernel(), 0, rounds=0)
        assert result.measured_messages == 0
        assert result.latency_us_per_message == 0.0


class TestSchbench:
    def test_collects_samples(self):
        kernel = cfs_kernel()
        result = run_schbench(kernel, 0, message_threads=1,
                              workers_per_thread=2,
                              warmup_ns=msecs(10), duration_ns=msecs(60))
        assert len(result.samples_us) > 5
        assert result.p99_us >= result.p50_us

    def test_deterministic_given_seed(self):
        def run():
            kernel = cfs_kernel()
            return run_schbench(kernel, 0, message_threads=2,
                                workers_per_thread=2, seed=11,
                                warmup_ns=msecs(10),
                                duration_ns=msecs(60)).samples_us

        assert run() == run()


class TestRocksDb:
    def test_offered_vs_completed(self):
        kernel = cfs_kernel()
        result = run_rocksdb(kernel, 0, offered_rps=20_000,
                             duration_ns=msecs(80), warmup_ns=msecs(10))
        assert result.completed > 0
        assert result.completed <= result.offered + 50
        assert result.p99_us >= result.p50_us

    def test_range_queries_excluded_from_get_latency(self):
        kernel = cfs_kernel()
        result = run_rocksdb(kernel, 0, offered_rps=20_000,
                             duration_ns=msecs(80), warmup_ns=msecs(10))
        # 10ms range queries would dominate if merged in; GET latencies
        # must stay far below the range service time.
        assert result.p50_us < 10_000


class TestBatchApp:
    def test_cpu_share_measured(self):
        kernel = cfs_kernel()
        app = start_batch_app(kernel, 0, cpus=(0, 1), nice=19)
        kernel.run_for(msecs(20))
        share = app.cpu_share()
        assert 1.5 < share <= 2.05
        app.stop()
        kernel.run_until_idle()

    def test_batch_yields_to_high_priority_class(self):
        kernel = cfs_kernel()
        sched = EnokiShinjuku(8, 8, worker_cpus=[0, 1])
        EnokiSchedClass.register(kernel, sched, 8, priority=20)
        app = start_batch_app(kernel, 0, cpus=(0, 1), nice=19)
        from repro.simkernel.program import Run

        def hog_prog():
            yield Run(msecs(10))

        hog = kernel.spawn(hog_prog, policy=8,
                           allowed_cpus=frozenset({0}))
        kernel.run_for(msecs(10))
        app.stop()
        kernel.run_until_idle()
        # The Shinjuku-class task got its CPU time despite the batch app.
        assert hog.sum_exec_runtime_ns >= msecs(9)


class TestMemcached:
    def test_thread_pool_serves_requests(self):
        kernel = cfs_kernel()
        result = run_memcached_threads(kernel, 0, offered_rps=50_000,
                                       duration_ns=msecs(60),
                                       warmup_ns=msecs(10))
        assert result.completed > 0
        assert result.p99_us > 0


class TestApps:
    def test_every_profile_runs(self):
        # A scaled-down sanity pass over each pattern type.
        seen_patterns = set()
        for profile in ALL_PROFILES:
            if profile.pattern in seen_patterns:
                continue
            seen_patterns.add(profile.pattern)
            small = AppProfile(
                name=profile.name, suite=profile.suite,
                pattern=profile.pattern, unit=profile.unit,
                higher_is_better=profile.higher_is_better,
                threads=profile.threads, phases=min(profile.phases, 4),
                work_ns=min(profile.work_ns, usecs(100)),
                jitter=profile.jitter, scale=profile.scale,
            )
            kernel = cfs_kernel()
            result = run_app(kernel, 0, small)
            assert result.score > 0, profile.pattern
        assert seen_patterns == {"barrier", "embarrass", "forkjoin",
                                 "pipeline", "server"}

    def test_profile_census(self):
        assert len(ALL_PROFILES) == 36
        assert sum(1 for p in ALL_PROFILES if p.suite == "nas") == 9
        assert sum(1 for p in ALL_PROFILES if p.suite == "phoronix") == 27

    def test_deterministic_scores(self):
        profile = ALL_PROFILES[0]
        scores = []
        for _ in range(2):
            kernel = cfs_kernel()
            scores.append(run_app(kernel, 0, profile, seed=5).score)
        assert scores[0] == scores[1]

    def test_scores_do_not_depend_on_the_hash_seed(self):
        """One profile of each pattern, scored in two processes whose
        ``hash(str)`` differs: the per-profile jitter stream must not be
        salted with it (one process cannot see that)."""
        script = (
            "from repro.workloads.apps import ALL_PROFILES, run_app\n"
            "from repro.exp import KernelBuilder\n"
            "seen = set()\n"
            "for profile in ALL_PROFILES:\n"
            "    if profile.pattern not in seen:\n"
            "        seen.add(profile.pattern)\n"
            "        kernel = KernelBuilder().with_native('cfs').build()"
            ".kernel\n"
            "        print(profile.name, run_app(kernel, 0, profile).score)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True, timeout=120,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hash_seed}).stdout
            for hash_seed in ("1", "2")]
        assert len(outputs[0].splitlines()) == 5
        assert outputs[0] == outputs[1]


class TestFairnessWorkload:
    def test_colocation_ratio_about_5x(self):
        kernel = cfs_kernel()
        spread = run_fair_share(kernel, 0, work_ns=msecs(50))
        kernel = cfs_kernel()
        packed = run_fair_share(kernel, 0, work_ns=msecs(50),
                                one_core=True)
        ratio = (max(packed.finish_times_ns.values())
                 / max(spread.finish_times_ns.values()))
        assert 4.0 < ratio < 6.0

    def test_weighted_low_priority_finishes_last(self):
        kernel = cfs_kernel()
        out = run_weighted_share(kernel, 0, work_ns=msecs(50))
        low = out.finish_times_ns["weighted-4"]
        assert all(low >= v for v in out.finish_times_ns.values())

    def test_placement_keeps_one_task_per_core(self):
        kernel = cfs_kernel()
        out = run_placement(kernel, 0, work_ns=msecs(20))
        times = list(out.finish_times_ns.values())
        assert max(times) - min(times) < msecs(5)

    def test_wfq_matches_cfs_on_fairness(self):
        """The appendix's headline: Enoki WFQ behaves like a WFQ."""
        def with_wfq():
            kernel = Kernel(Topology.small8(), SimConfig())
            kernel.register_sched_class(CfsSchedClass(policy=0),
                                        priority=5)
            EnokiSchedClass.register(kernel, EnokiWfq(8, 7), 7,
                                     priority=10)
            return kernel

        kernel = with_wfq()
        spread = run_fair_share(kernel, 7, work_ns=msecs(50))
        kernel = with_wfq()
        packed = run_fair_share(kernel, 7, work_ns=msecs(50),
                                one_core=True)
        ratio = (max(packed.finish_times_ns.values())
                 / max(spread.finish_times_ns.values()))
        assert 4.0 < ratio < 6.0
        # Co-located tasks finish together (fair sharing).
        spreads = packed.finish_times_ns.values()
        assert max(spreads) - min(spreads) < msecs(20)


class TestSeedDeterminism:
    """Every generator must be a pure function of its seed: identical
    seeds give byte-identical samples, different seeds diverge.  (The
    FaaS sampler's version of this lives in test_faas.py.)"""

    def test_hackbench_is_seed_free_deterministic(self):
        from repro.workloads.hackbench import run_hackbench

        a = run_hackbench(cfs_kernel(), 0, groups=2, fds=3, loops=10)
        b = run_hackbench(cfs_kernel(), 0, groups=2, fds=3, loops=10)
        assert a.elapsed_ns == b.elapsed_ns
        assert a.messages_per_second == b.messages_per_second

    def test_schbench_seeds_diverge(self):
        def run(seed):
            return run_schbench(cfs_kernel(), 0, message_threads=2,
                                workers_per_thread=2, seed=seed,
                                warmup_ns=msecs(10),
                                duration_ns=msecs(60)).samples_us

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_memcached_deterministic_given_seed(self):
        def run(seed):
            return run_memcached_threads(
                cfs_kernel(), 0, offered_rps=50_000, seed=seed,
                duration_ns=msecs(60), warmup_ns=msecs(10)).latencies_us

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_rocksdb_deterministic_given_seed(self):
        def run(seed):
            return run_rocksdb(
                cfs_kernel(), 0, offered_rps=20_000, seed=seed,
                duration_ns=msecs(80),
                warmup_ns=msecs(10)).get_latencies_us

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestHackbench:
    def test_all_messages_drain(self):
        from repro.workloads.hackbench import run_hackbench

        kernel = cfs_kernel()
        result = run_hackbench(kernel, 0, groups=2, fds=3, loops=10)
        assert result.total_messages == 2 * 3 * 3 * 10
        assert result.elapsed_ns > 0
        assert result.messages_per_second > 0

    def test_scales_with_message_count(self):
        from repro.workloads.hackbench import run_hackbench

        small = run_hackbench(cfs_kernel(), 0, groups=1, fds=2, loops=5)
        large = run_hackbench(cfs_kernel(), 0, groups=2, fds=4, loops=20)
        assert large.elapsed_ns > small.elapsed_ns

    def test_runs_under_enoki_wfq(self):
        from repro.core import EnokiSchedClass
        from repro.schedulers.wfq import EnokiWfq
        from repro.workloads.hackbench import run_hackbench

        kernel = cfs_kernel()
        EnokiSchedClass.register(kernel, EnokiWfq(8, 7), 7, priority=20)
        result = run_hackbench(kernel, 7, groups=2, fds=3, loops=10)
        assert result.total_messages == 180
