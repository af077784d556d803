"""Tests for the unified observability layer (repro.obs)."""

import json

import pytest

from repro.core import EnokiSchedClass
from repro.obs import (
    CallbackProfiler,
    Histogram,
    MetricsRegistry,
    Observer,
    chrome_trace,
    ftrace_lines,
)
from repro.obs.metrics import (Gauge, _bucket_bounds, _bucket_index,
                               merge_histogram_snapshots,
                               merge_registry_snapshots)
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import WAKEUP_SAMPLE_CAP, TaskStats
from repro.simkernel.tracing import SchedTracer

POLICY = 7


def wfq_kernel(nr_cpus=8):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
    EnokiSchedClass.register(kernel, EnokiWfq(nr_cpus, POLICY), POLICY,
                             priority=10)
    return kernel


def sleeper(bursts=50, run_us=30, sleep_us=10):
    def prog():
        for _ in range(bursts):
            yield Run(usecs(run_us))
            yield Sleep(usecs(sleep_us))
    return prog


def run_observed(nr_cpus=8, tasks=6, **spawn_kw):
    kernel = wfq_kernel(nr_cpus)
    observer = Observer.attach(kernel)
    for i in range(tasks):
        kernel.spawn(sleeper(), name=f"t{i}", policy=POLICY,
                     origin_cpu=i % nr_cpus, **spawn_kw)
    kernel.run_until_idle()
    return kernel, observer


class TestBucketing:
    def test_index_is_monotone_and_bounds_invert(self):
        previous = -1
        for value in list(range(0, 300)) + [10**3, 10**6, 10**9, 10**12]:
            index = _bucket_index(value)
            assert index >= previous
            previous = index
            lower, upper = _bucket_bounds(index)
            assert lower <= value < upper

    def test_record_buckets_where_bucket_index_says(self):
        # Histogram.record carries the index arithmetic inline.
        for value in list(range(0, 300)) + [10**3, 10**6, 10**9, 10**12]:
            hist = Histogram("h")
            hist.record(value)
            assert hist.buckets == {_bucket_index(value): 1}

    def test_small_values_are_exact(self):
        for value in range(16):
            assert _bucket_bounds(_bucket_index(value)) == (value, value + 1)

    def test_relative_error_bounded(self):
        # 8 sub-buckets per octave => bucket width <= value / 8.
        for value in (17, 100, 12_345, 10**7, 10**10):
            lower, upper = _bucket_bounds(_bucket_index(value))
            assert (upper - lower) <= value / 8 + 1


class TestHistogram:
    def test_percentiles_within_bucket_tolerance(self):
        hist = Histogram("t")
        samples = list(range(1, 10_001))      # uniform 1..10000
        for sample in samples:
            hist.record(sample)
        for p in (50, 90, 99, 99.9):
            exact = p / 100 * len(samples)
            got = hist.percentile(p)
            assert got == pytest.approx(exact, rel=1 / 8)

    def test_extremes_and_empty(self):
        hist = Histogram("t")
        assert hist.percentile(50) == 0.0
        hist.record(42)
        assert hist.percentile(0) == 42
        assert hist.percentile(100) == 42
        assert hist.min == hist.max == 42
        assert hist.mean == 42

    def test_percentile_clamped_to_observed_range(self):
        hist = Histogram("t")
        hist.record(1000)
        hist.record(1001)
        for p in (1, 50, 99, 99.9):
            assert 1000 <= hist.percentile(p) <= 1001

    def test_quantiles_monotone(self):
        hist = Histogram("t")
        for sample in (1, 5, 7, 100, 2_000, 2_000, 55_000, 10**6):
            hist.record(sample)
        q = hist.quantiles()
        assert q["p50"] <= q["p90"] <= q["p99"] <= q["p999"]

    def test_registry_get_or_create_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        assert registry.counter("c").value == 3
        registry.gauge("g").set(7)
        registry.histogram("h").record(5)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 3
        assert snap["gauges"]["g"]["value"] == 7
        assert snap["histograms"]["h"]["count"] == 1
        json.dumps(snap)                      # must be JSON-serialisable
        assert "c" in registry.render()

    def test_empty_histogram_stats_are_zero(self):
        hist = Histogram("t")
        assert hist.count == 0
        assert hist.mean == 0.0
        for p in (0, 50, 100):
            assert hist.percentile(p) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == []

    def test_p0_p100_are_exact_bounds(self):
        hist = Histogram("t")
        for sample in (3, 9_000, 123_456):
            hist.record(sample)
        assert hist.percentile(0) == 3
        assert hist.percentile(100) == 123_456
        assert hist.percentile(-5) == 3        # clamped below
        assert hist.percentile(250) == 123_456  # clamped above

    def test_merge_with_disjoint_buckets(self):
        low = Histogram("low")
        high = Histogram("high")
        for sample in (1, 2, 3):
            low.record(sample)
        for sample in (10**6, 2 * 10**6):
            high.record(sample)
        low.merge(high)
        assert low.count == 5
        assert low.min == 1 and low.max == 2 * 10**6
        assert low.percentile(0) == 1
        assert low.percentile(100) == 2 * 10**6
        # Every bucket of both parents survives in the merge.
        assert len(low.snapshot()["buckets"]) == 5

    def test_snapshot_merge_matches_live_merge_and_is_associative(self):
        parts = []
        for seed, samples in enumerate(((5, 70, 900), (70, 12_000),
                                        (900, 900, 31))):
            hist = Histogram(f"h{seed}")
            for sample in samples:
                hist.record(sample)
            parts.append(hist)
        combined = Histogram("all")
        for hist in parts:
            for_merge = hist.copy()
            combined.merge(for_merge)
        a, b, c = (h.snapshot() for h in parts)
        left = merge_histogram_snapshots(merge_histogram_snapshots(a, b), c)
        right = merge_histogram_snapshots(a, merge_histogram_snapshots(b, c))
        assert left == right == combined.snapshot()

    def test_gauge_watermarks(self):
        gauge = Gauge("g")
        assert gauge.snapshot() == {"value": 0, "min": 0, "max": 0}
        gauge.set(5)
        gauge.set(-2)
        gauge.add(10)
        snap = gauge.snapshot()
        assert snap == {"value": 8, "min": -2, "max": 8}

    def test_registry_snapshot_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("shared").inc(2)
        b.counter("shared").inc(5)
        a.counter("only-a").inc(1)
        a.gauge("g").set(3)
        b.gauge("g").set(9)
        a.histogram("h").record(10)
        b.histogram("h").record(5_000)
        merged = merge_registry_snapshots(a.snapshot(), b.snapshot())
        assert merged["counters"]["shared"] == 7
        assert merged["counters"]["only-a"] == 1
        assert merged["gauges"]["g"]["value"] == 12
        assert merged["gauges"]["g"]["min"] == 3   # min of the shard mins
        assert merged["gauges"]["g"]["max"] == 9
        assert merged["histograms"]["h"]["count"] == 2
        json.dumps(merged)


class TestChromeExport:
    def test_round_trip_is_valid_monotone_json(self, tmp_path):
        _kernel, observer = run_observed()
        out = tmp_path / "trace.json"
        observer.export_chrome(out)
        document = json.loads(out.read_text())
        events = document["traceEvents"]
        assert events
        timestamps = [e["ts"] for e in events if e["ph"] != "M"]
        assert timestamps == sorted(timestamps)
        kinds = {e["name"] for e in events if e["ph"] == "i"}
        assert "enoki_msg" in kinds
        assert "wakeup" in kinds
        assert "lock_acquire" in kinds
        assert any(e["ph"] == "X" for e in events)   # CPU slices
        # every X slice has non-negative duration
        assert all(e["dur"] >= 0 for e in events if e["ph"] == "X")
        # per-CPU thread metadata is present
        assert any(e["ph"] == "M" and e["name"] == "thread_name"
                   for e in events)

    def test_slices_use_task_names(self):
        kernel, observer = run_observed(tasks=2)
        document = chrome_trace(observer.events,
                                task_names={p: t.name
                                            for p, t in kernel.tasks.items()})
        names = {e["name"] for e in document["traceEvents"]
                 if e["ph"] == "X"}
        assert "t0" in names

    def test_ftrace_lines_shape(self):
        _kernel, observer = run_observed(tasks=2)
        lines = list(ftrace_lines(observer.events))
        assert lines
        assert any("enoki_msg" in line for line in lines)
        assert all("[" in line and "]" in line for line in lines)

    def test_equal_timestamp_events_export_in_emission_order(self):
        from repro.simkernel.tracing import TraceEvent

        events = [
            TraceEvent(t_ns=1000, kind="wakeup", cpu=0, pid=1),
            TraceEvent(t_ns=1000, kind="dispatch", cpu=0, pid=1),
            TraceEvent(t_ns=1000, kind="enoki_msg", cpu=0, pid=1),
            TraceEvent(t_ns=2000, kind="idle", cpu=0),
        ]
        document = chrome_trace(events)
        emitted = [e for e in document["traceEvents"] if e["ph"] != "M"]
        # all three t=1000 entries share ts=1.0; the sequence tiebreaker
        # keeps emission order (wakeup, then the slice the dispatch
        # opened, then the message) instead of slices-first construction
        # order
        assert [e["name"] for e in emitted] == \
            ["wakeup", "pid-1", "enoki_msg"]


class TestCallbackProfiler:
    def test_totals_consistent_across_layers(self):
        kernel, observer = run_observed()
        profiler = observer.profilers[POLICY]
        # per-hook sums equal the totals
        assert profiler.total_calls() == sum(
            p.count for p in profiler.hooks.values())
        assert profiler.total_virtual_ns() == sum(
            p.virtual_ns for p in profiler.hooks.values())
        # the trace saw exactly the same dispatches with the same costs
        msgs = observer.events_of_kind("enoki_msg")
        assert len(msgs) == profiler.total_calls()
        assert sum(e.cost_ns for e in msgs) == profiler.total_virtual_ns()
        # scheduler callback time is overhead, a fraction of busy time
        busy = kernel.stats.busy_ns_total()
        assert 0 < profiler.total_virtual_ns() < busy
        assert profiler.total_wall_ns() > 0
        assert "pick_next_task" in profiler.hooks

    def test_publish_merges_into_registry(self):
        _kernel, observer = run_observed()
        registry = observer.collect()
        profiler = observer.profilers[POLICY]
        prefix = f"enoki.policy{POLICY}"
        assert (registry.counter(f"{prefix}.calls.total").value
                == profiler.total_calls())
        hist = registry.histogram(f"{prefix}.wall_ns.pick_next_task")
        assert hist.count == profiler.hooks["pick_next_task"].count
        assert registry.gauge("kernel.busy_ns_total").value == \
            _kernel.stats.busy_ns_total()

    def test_collect_is_idempotent(self):
        """``report()`` calls ``collect()``, so stats followed by an
        export used to double the wakeup-latency histogram and the
        per-callback call counters."""
        kernel, observer = run_observed()
        first = observer.collect().snapshot()
        samples = sum(len(t.stats.wakeup_latencies)
                      for t in kernel.tasks.values())
        assert first["histograms"]["task.wakeup_latency_ns"]["count"] \
            == samples > 0
        observer.report()
        assert observer.collect().snapshot() == first

    def test_uninstall_restores_fast_path(self):
        kernel = wfq_kernel()
        shim = next(c for _p, c in kernel._classes if c.policy == POLICY)
        profiler = CallbackProfiler().install(shim)
        assert shim.profiler is profiler
        profiler.uninstall()
        assert shim.profiler is None

    def test_report_renders_percentile_table(self):
        _kernel, observer = run_observed()
        report = observer.report()
        assert "per-callback profile" in report
        assert "pick_next_task" in report
        assert "wall p99" in report


class TestNullHookFastPath:
    def test_virtual_time_identical_with_and_without_observer(self):
        kernel_plain = wfq_kernel()
        for i in range(6):
            kernel_plain.spawn(sleeper(), name=f"t{i}", policy=POLICY,
                               origin_cpu=i % 8)
        kernel_plain.run_until_idle()

        kernel_observed, observer = run_observed()
        # tracing/profiling charge no virtual cost: identical end times
        assert kernel_plain.now == kernel_observed.now
        assert observer.events

    def test_detach_unwinds_every_hook(self):
        kernel, observer = run_observed()
        shim = next(c for _p, c in kernel._classes if c.policy == POLICY)
        observer.detach()
        assert kernel.trace is None
        assert shim.profiler is None
        assert shim.lib.rwlock.on_event is None


class TestKernelEventSources:
    def test_failed_migration_counted_and_traced(self):
        kernel, observer = run_observed(nr_cpus=2, tasks=2)
        cls = next(c for _p, c in kernel._classes if c.policy == POLICY)
        before = kernel.stats.failed_migrations
        assert not kernel.try_migrate(999_999, dest_cpu=1, cls=cls)
        assert kernel.stats.failed_migrations == before + 1
        failed = observer.events_of_kind("migrate_failed")
        assert failed
        assert failed[-1].arg("reason") == "not-runnable"

    def test_timer_and_lock_events_present(self):
        _kernel, observer = run_observed()
        summary = observer.summary()
        assert summary.get("timer_fire", 0) > 0
        assert summary.get("lock_acquire", 0) > 0
        assert summary.get("lock_acquire") == summary.get("lock_release")
        assert summary.get("rwlock_read_acquire", 0) > 0

    def test_event_counters_track_summary(self):
        _kernel, observer = run_observed()
        for kind, count in observer.summary().items():
            assert observer.registry.counter("events." + kind).value >= count


class TestTimelineWraparound:
    def test_wrapped_ring_starts_at_first_retained_event(self):
        tracer = SchedTracer(capacity=4)
        # 10 alternating dispatch/idle events on cpu 0, 1000ns apart
        for i in range(10):
            kind = "dispatch" if i % 2 == 0 else "idle"
            tracer._hook(kind, t=i * 1000, cpu=0, pid=i if kind == "dispatch"
                         else None)
        assert tracer.dropped == 6
        spans = tracer.timeline(cpu=0)
        # nothing may be attributed before the oldest retained event
        assert spans[0][0] >= tracer.events[0].t_ns

    def test_unwrapped_ring_still_starts_at_zero(self):
        tracer = SchedTracer(capacity=100)
        tracer._hook("dispatch", t=5000, cpu=0, pid=1)
        tracer._hook("idle", t=9000, cpu=0)
        spans = tracer.timeline(cpu=0)
        assert spans[0] == (0, 5000, None)


class TestWakeupLatencyRetention:
    def test_samples_bounded_with_drop_counter(self):
        stats = TaskStats(sample_cap=8)
        for i in range(20):
            stats.note_wakeup_latency(i, keep_samples=True)
        assert len(stats.wakeup_latencies) == 8
        assert stats.wakeup_samples_dropped == 12
        assert stats.wakeup_latencies[-1] == 19      # newest retained
        assert min(stats.wakeup_latencies) == 12     # oldest retained

    def test_default_cap_is_generous(self):
        stats = TaskStats()
        assert stats.wakeup_latencies.maxlen == WAKEUP_SAMPLE_CAP
