"""Property tests for the FaaS trace sampler and behaviour tests for
the serverless scheduler (the ISSUE's production-scale workload pair).

Sampler tests are pure statistics on :class:`FaasSampler` — no kernel.
Scheduler tests drive :func:`run_faas` (or hand-rolled programs) under
:class:`EnokiServerless` and assert on its classification counters and
the kernel's per-task stats.
"""

import hashlib
import statistics
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import UpgradeManager
from repro.exp import KernelBuilder
from repro.schedulers.serverless import SHORT, EnokiServerless
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.task import TaskState
from repro.simkernel.timers import Timer
from repro.workloads.faas import FAAS_BASE_OPTIONS, FaasSampler, run_faas
from tests.call_census import CallCensus

POLICY = 7


def make(nr_cpus=4, **sched_kwargs):
    session = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
               .with_enoki("serverless", policy=POLICY, **sched_kwargs)
               .build())
    return session.kernel, session.shim, session.shim.scheduler


class TestFaasSampler:
    def test_same_seed_same_trace(self):
        a = FaasSampler(seed=42).generate(4_000)
        b = FaasSampler(seed=42).generate(4_000)
        assert a == b

    def test_base_trace_is_pinned(self):
        """The draw order (gap, function, service per invocation) and
        every float expression behind the ``faas`` bench trace, pinned
        byte for byte."""
        options = {key: value for key, value in FAAS_BASE_OPTIONS.items()
                   if key not in ("cold_start_us", "max_workers",
                                  "hint_fraction")}
        trace = FaasSampler(2024, **options).generate(2000)
        assert hashlib.sha256(repr(trace).encode()).hexdigest() == (
            "4ff817a7915b6f841c7d1abb4e38da12"
            "d670fe264c912886f7a090133112431b")

    def test_different_seed_different_trace(self):
        a = FaasSampler(seed=42).generate(1_000)
        b = FaasSampler(seed=43).generate(1_000)
        assert a != b

    def test_interarrival_mean_matches_offered_rate(self):
        rps = 20_000.0
        trace = FaasSampler(seed=7, offered_rps=rps).generate(20_000)
        mean_gap = (trace[-1][0] - trace[0][0]) / (len(trace) - 1)
        assert 1e9 / rps * 0.95 < mean_gap < 1e9 / rps * 1.05

    def test_durations_are_bimodal(self):
        trace = FaasSampler(seed=7).generate(20_000)
        shorts = [svc for _, _, svc, is_long in trace if not is_long]
        longs = [svc for _, _, svc, is_long in trace if is_long]
        assert shorts and longs
        # Two well-separated modes: ~150us handlers vs ~10ms jobs.
        assert statistics.median(shorts) < usecs(1_000)
        assert statistics.median(longs) > msecs(5)
        assert statistics.median(longs) > 10 * statistics.median(shorts)
        # Everything respects the 1us service floor.
        assert min(svc for _, _, svc, _ in trace) >= 1_000

    def test_zipf_popularity_skew(self):
        sampler = FaasSampler(seed=7, functions=64, zipf_s=1.1)
        counts = Counter(fid for _, fid, _, _ in sampler.generate(40_000))
        total = sum(counts.values())
        top8 = sum(count for _, count in counts.most_common(8))
        # A Zipf(1.1) head: 8/64 functions carry most of the traffic.
        assert top8 > 0.5 * total
        # And rank 1 (func_id 0) is the hottest function of all.
        assert counts.most_common(1)[0][0] == 0

    def test_long_functions_are_the_unpopular_tail(self):
        sampler = FaasSampler(seed=7, functions=64,
                              long_function_fraction=0.125)
        long_ids = {p.func_id for p in sampler.profiles if p.is_long}
        assert long_ids == set(range(56, 64))
        long_weight = sum(p.weight for p in sampler.profiles if p.is_long)
        assert long_weight < 0.1 * sampler.total_weight

    def test_burst_windows_multiply_rate(self):
        sampler = FaasSampler(seed=7, offered_rps=10_000.0,
                              burst_factor=3.0,
                              burst_every_ns=msecs(100),
                              burst_len_ns=msecs(10))
        assert sampler.rate_at(msecs(5)) == 30_000.0
        assert sampler.rate_at(msecs(50)) == 10_000.0
        assert sampler.rate_at(msecs(105)) == 30_000.0

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            FaasSampler(seed=0, functions=0)
        with pytest.raises(ValueError):
            FaasSampler(seed=0, offered_rps=0)


class TestRunFaas:
    def run_small(self, seed=3, **kwargs):
        kernel, _, _ = make(nr_cpus=4)
        options = dict(offered_rps=8_000, functions=16, max_workers=16,
                       warmup_ns=msecs(10), duration_ns=msecs(60),
                       seed=seed)
        options.update(kwargs)
        result = run_faas(kernel, POLICY, **options)
        return kernel, result

    def test_task_conservation(self):
        """Every invocation that arrives completes; every container
        drains.  Runs under REPRO_SANITIZE=1 in CI, so the substrate's
        invariant checkers see the whole episode."""
        kernel, result = self.run_small()
        assert result.offered > 0
        assert result.completed == result.offered
        workers = [t for t in kernel.tasks.values()
                   if t.name.startswith("faas-w")]
        assert len(workers) == result.warm_pool
        assert all(t.state is TaskState.DEAD for t in workers)

    def test_deterministic_given_seed(self):
        _, a = self.run_small(seed=9)
        _, b = self.run_small(seed=9)
        assert a.short_latencies_ns == b.short_latencies_ns
        assert a.long_latencies_ns == b.long_latencies_ns
        assert a.cold_starts == b.cold_starts

    def test_hints_reach_the_scheduler(self):
        kernel, _, sched = make(nr_cpus=4)
        run_faas(kernel, POLICY, offered_rps=8_000, functions=16,
                 max_workers=16, warmup_ns=msecs(10),
                 duration_ns=msecs(60), hint_fraction=1.0, seed=3)
        counters = sched.counters
        assert counters["hint_short"] + counters["hint_long"] > 0

    def test_prewarmed_pool_avoids_cold_starts(self):
        _, cold = self.run_small(prewarm=0)
        _, warm = self.run_small(prewarm=16)
        assert warm.cold_starts == 0
        assert warm.warm_pool == 16
        assert cold.cold_starts >= 0


def short_prog(bursts=20, work=usecs(200), sleep=usecs(100)):
    def prog():
        for _ in range(bursts):
            yield Run(work)
            yield Sleep(sleep)
    return prog


def long_prog(work=msecs(5)):
    def prog():
        yield Run(work)
    return prog


class TestServerlessScheduler:
    def test_shorts_run_to_completion_preempt_free(self):
        """A genuine short burst is never interrupted: the guard timer
        fires at the promotion threshold, which shorts finish under."""
        kernel, _, sched = make(nr_cpus=2)
        tasks = [kernel.spawn(short_prog(), policy=POLICY,
                              name=f"short-{i}", origin_cpu=i % 2)
                 for i in range(4)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        assert all(t.stats.preemptions == 0 for t in tasks)
        assert sched.counters["short_picks"] > 0
        assert sched.counters["demotions"] == 0

    def test_undeclared_long_is_demoted(self):
        kernel, _, sched = make(nr_cpus=1)
        long_task = kernel.spawn(long_prog(), policy=POLICY, name="long")
        kernel.spawn(short_prog(), policy=POLICY, name="short")
        kernel.run_until_idle()
        assert sched.counters["demotions"] >= 1
        # The masquerading long paid at least one guard-timer preemption.
        assert long_task.stats.preemptions >= 1

    def test_hinted_long_skips_the_trial_run(self):
        """The declared-duration fast path: a task that announces a long
        expected runtime is classified LONG before it ever runs, so the
        demotion (misclassification) path stays cold."""
        kernel, _, sched = make(nr_cpus=2)

        def declared_long():
            yield SendHint({"expected_ns": msecs(5)}, policy=POLICY)
            yield Run(msecs(5))

        kernel.spawn(declared_long, policy=POLICY, name="declared")
        kernel.run_until_idle()
        assert sched.counters["hint_long"] == 1
        assert sched.counters["demotions"] == 0

    def test_hinted_short_counted(self):
        kernel, _, sched = make(nr_cpus=1)

        def declared_short():
            yield SendHint({"expected_ns": usecs(100)}, policy=POLICY)
            yield Run(usecs(100))

        kernel.spawn(declared_short, policy=POLICY, name="declared")
        kernel.run_until_idle()
        assert sched.counters["hint_short"] == 1
        assert sched.counters["hint_long"] == 0

    def test_foreign_hint_payloads_ignored(self):
        """The fuzzer sends arbitrary hint payloads; parse_hint must not
        crash or misclassify on them."""
        kernel, _, sched = make(nr_cpus=1)

        def noisy():
            yield SendHint({"tid": None, "seq": 1}, policy=POLICY)
            yield SendHint("not-a-dict", policy=POLICY)
            yield SendHint({"expected_ns": "soon"}, policy=POLICY)
            yield Run(usecs(50))

        task = kernel.spawn(noisy, policy=POLICY, name="noisy")
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert sched.counters["hint_short"] == 0
        assert sched.counters["hint_long"] == 0

    def test_short_wakeup_preempts_running_long(self):
        kernel, _, sched = make(nr_cpus=1)
        kernel.spawn(long_prog(work=msecs(20)), policy=POLICY,
                     name="long")

        def late_short():
            yield Sleep(msecs(4))
            yield Run(usecs(100))

        short = kernel.spawn(late_short, policy=POLICY, name="short")
        kernel.run_until_idle()
        assert sched.counters["wakeup_preempts"] >= 1
        # The short finished long before the 20ms job could have.
        assert short.stats.finished_ns < msecs(19)

    def test_classification_resets_per_wake_episode(self):
        """A worker that served a long invocation goes back to SHORT
        after blocking — the next (short) invocation on the same task
        must not inherit the LONG class."""
        kernel, _, sched = make(nr_cpus=1)

        def long_then_short():
            yield Run(msecs(5))      # demoted mid-run
            yield Sleep(usecs(100))  # episode ends, class resets
            yield Run(usecs(100))    # short again

        task = kernel.spawn(long_then_short, policy=POLICY, name="mixed")
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        assert sched.counters["demotions"] == 1
        assert sched.classes == {}

    def test_live_upgrade_mid_episode_loses_no_invocations(self):
        """Enoki's headline feature on the new scheduler: replace the
        serverless module mid-trace, state transfers, nothing is lost."""
        kernel, shim, old_sched = make(nr_cpus=4)
        manager = UpgradeManager(kernel, shim)
        new_sched = EnokiServerless(4, POLICY)
        kernel.events.after(msecs(30),
                            lambda: manager.upgrade_now(new_sched))
        result = run_faas(kernel, POLICY, offered_rps=8_000,
                          functions=16, max_workers=16,
                          warmup_ns=msecs(10), duration_ns=msecs(60),
                          hint_fraction=0.5, seed=3)
        assert result.completed == result.offered > 0
        assert new_sched.generation == old_sched.generation + 1
        assert shim.lib.scheduler is new_sched
        workers = [t for t in kernel.tasks.values()
                   if t.name.startswith("faas-w")]
        assert all(t.state is TaskState.DEAD for t in workers)

    def test_failover_to_cfs_mid_episode_loses_no_invocations(self):
        """Containment path: the serverless module is torn down mid-trace
        and its tasks requeued into native CFS — every in-flight
        invocation still completes."""
        kernel, shim, _ = make(nr_cpus=4)
        kernel.events.after(
            msecs(30),
            lambda: shim.containment.engage_failover(reason="test"))
        result = run_faas(kernel, POLICY, offered_rps=8_000,
                          functions=16, max_workers=16, prewarm=16,
                          warmup_ns=msecs(10), duration_ns=msecs(60),
                          seed=3)
        assert shim.failed
        assert result.completed == result.offered > 0
        workers = [t for t in kernel.tasks.values()
                   if t.name.startswith("faas-w")]
        assert len(workers) == 16
        assert all(t.state is TaskState.DEAD for t in workers)

    def test_failover_leaves_no_live_resched_timer(self):
        """Failover cancels the dead module's resched timers (one per
        CPU, re-armed in place): none is left to fire on its behalf."""
        kernel, shim, _ = make(nr_cpus=4)
        live = []

        def resched_timers():
            tags = [args[0].tag for *_entry, args in kernel.events.pending()
                    if args and isinstance(args[0], Timer)]
            return [tag for tag in tags
                    if isinstance(tag, tuple) and tag[0] == "enoki-resched"]

        def failover():
            live.append(len(resched_timers()))
            shim.containment.engage_failover(reason="test")
            live.append(len(resched_timers()))

        kernel.events.after(msecs(30), failover)
        result = run_faas(kernel, POLICY, offered_rps=8_000,
                          functions=16, max_workers=16, prewarm=16,
                          warmup_ns=msecs(10), duration_ns=msecs(60),
                          hint_fraction=0.5, seed=3)
        assert result.completed == result.offered > 0
        assert live[0] > 0 and live[1] == 0, live

    def test_serverless_beats_cfs_p99_under_contention(self):
        """The paper-style claim, scaled down to test size: under a
        contended mixed short/long trace the serverless policy's short
        p99 beats CFS's."""
        def run(serverless):
            if serverless:
                kernel, _, _ = make(nr_cpus=4)
                policy = POLICY
            else:
                kernel = (KernelBuilder("smp:4").with_native("cfs")
                          .build().kernel)
                policy = 0
            return run_faas(kernel, policy, offered_rps=7_500,
                            functions=32, max_workers=32,
                            warmup_ns=msecs(20), duration_ns=msecs(200),
                            seed=11)

        enoki, cfs = run(True), run(False)
        assert enoki.completed == cfs.completed > 0
        assert enoki.p99_us < cfs.p99_us


def reference_select(sched, prev_cpu, allowed_cpus):
    """The placement the free-CPU scan must reproduce: a free
    ``prev_cpu``, else the least loaded candidate, queued plus running
    (the lowest CPU on a tie)."""
    candidates = (list(allowed_cpus) if allowed_cpus is not None
                  else list(range(sched.nr_cpus)))
    short, long_, current = (sched.short_queues.cpus,
                             sched.long_queues.cpus, sched.current)
    if (prev_cpu in candidates and prev_cpu not in current
            and not short[prev_cpu] and not long_[prev_cpu]):
        return prev_cpu
    best = best_load = None
    for cpu in candidates:
        load = len(short[cpu]) + len(long_[cpu]) + (cpu in current)
        if (best_load is None or load < best_load
                or (load == best_load and cpu < best)):
            best, best_load = cpu, load
    return best


@st.composite
def placements(draw):
    """Per-CPU short and long depths (mostly empty), the running CPUs,
    ``prev_cpu`` and ``allowed_cpus``."""
    nr_cpus = draw(st.integers(1, 8))
    cpus = st.integers(0, nr_cpus - 1)
    depths = st.lists(st.sampled_from((0, 0, 1, 3)), min_size=nr_cpus,
                      max_size=nr_cpus)
    return (nr_cpus, draw(depths), draw(depths), draw(st.frozensets(cpus)),
            draw(cpus), draw(st.none() | st.frozensets(cpus)))


class TestQuietPath:
    @settings(max_examples=300, deadline=None)
    @given(placements())
    def test_placement_matches_the_min_load_scan(self, case):
        nr_cpus, shorts, longs, running, prev_cpu, allowed = case
        _, _, sched = make(nr_cpus=nr_cpus)
        pid = 1_000
        for cpu in range(nr_cpus):
            for _ in range(shorts[cpu]):
                pid += 1
                sched.short_queues.push_back(cpu, pid, None)
            for _ in range(longs[cpu]):
                pid += 1
                sched.long_queues.push(cpu, pid, pid, None)
        for cpu in running:
            pid += 1
            sched.current[cpu] = (pid, SHORT)
        assert (sched.select_task_rq(1, prev_cpu, prev_cpu, 0, allowed)
                == reference_select(sched, prev_cpu, allowed))

    def test_bookkeeping_calls_no_builtin_on_a_clean_episode(self):
        """The hooks every invocation passes through several times
        test, subscript and ``del``: on a clean FaaS episode with hints
        they make no builtin call of their own."""
        hooks = (EnokiServerless._observe, EnokiServerless._enqueue,
                 EnokiServerless.select_task_rq, EnokiServerless.task_wakeup,
                 EnokiServerless.task_blocked, EnokiServerless.task_preempt,
                 EnokiServerless.pick_next_task, EnokiServerless.task_tick)
        kernel, _, sched = make(nr_cpus=4)
        with CallCensus(*hooks) as census:
            result = run_faas(kernel, POLICY, offered_rps=8_000,
                              functions=16, max_workers=16,
                              warmup_ns=msecs(10), duration_ns=msecs(60),
                              hint_fraction=0.5, seed=3)
        assert result.completed == result.offered > 0
        assert sched.counters["demotions"] and sched.counters["hint_long"]
        assert census.builtins == []
        entered = [census.entered[hook.__qualname__] for hook in hooks]
        assert min(entered) > 100, census.entered
