"""Tests for delay accounting, the telemetry sampler, and SLO monitors.

Covers the inline (trace-free) accounting path end to end: every
nanosecond of a task's life lands in exactly one of run/wait/sleep/block,
the sampler's windows tile the episode, SLO violations surface as trace
events and counters, and sharded snapshots merge to the combined totals.
"""

import json

from repro.exp import KernelBuilder
from repro.exp.bench import run_spec
from repro.exp.spec import ScenarioSpec
from repro.obs import Observer
from repro.obs.accounting import (KernelAccounting,
                                  merge_accounting_snapshots,
                                  task_delay_row)
from repro.obs.telemetry import (SLOMonitor, SLOTarget, TelemetrySampler,
                                 TIMESERIES_COLUMNS, build_report,
                                 latency_heatmap, render_report_markdown,
                                 render_top_frame, timeseries_csv)
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState
from repro.workloads.pipe_bench import run_pipe_benchmark

POLICY = 7


def wfq_session(nr_cpus=8):
    from repro.exp.spec import parse_topology
    return (KernelBuilder(topology=parse_topology(f"smp:{nr_cpus}"))
            .with_native("cfs", policy=0, priority=5)
            .with_enoki("wfq", policy=POLICY, priority=10).build())


def spawn_hogs(session, count, loops=40):
    def hog():
        for _ in range(loops):
            yield Run(usecs(30))
            yield Sleep(usecs(10))
    for i in range(count):
        session.spawn(hog, name=f"hog-{i}",
                      allowed_cpus={0, 1, 2, 3}, origin_cpu=i % 4)


def pipe_episode(rounds=200, hogs=4, telemetry_ns=None, slos=()):
    session = wfq_session()
    if telemetry_ns:
        session.attach_telemetry(telemetry_ns, slos=slos)
    spawn_hogs(session, hogs)
    result = run_pipe_benchmark(session.kernel, session.policy,
                                rounds=rounds)
    session.stop()
    return session, result


class TestDelayAccounting:
    def test_components_sum_to_span_for_dead_tasks(self):
        session, _result = pipe_episode(rounds=150, hogs=3)
        kernel = session.kernel
        assert kernel.tasks
        for task in kernel.tasks.values():
            assert task.state == TaskState.DEAD
            row = task_delay_row(task, kernel.now)
            total = (row["run_ns"] + row["wait_ns"]
                     + row["sleep_ns"] + row["block_ns"])
            assert total == row["span_ns"], row["name"]
            assert row["timeslices"] > 0
            assert row["run_ns"] == task.sum_exec_runtime_ns

    def test_live_task_components_cover_span(self):
        session = wfq_session()
        spawn_hogs(session, 2, loops=10_000)
        kernel = session.kernel
        for _ in range(4_000):          # stop mid-episode, tasks alive
            if not kernel.events.step():
                break
        assert any(t.state != TaskState.DEAD for t in kernel.tasks.values())
        for task in kernel.tasks.values():
            row = task_delay_row(task, kernel.now)
            total = (row["run_ns"] + row["wait_ns"]
                     + row["sleep_ns"] + row["block_ns"])
            # A dispatch in flight books its context-switch cost at
            # dispatch time (wait closes at the *future* start), so live
            # tasks can be off by a couple of switch costs either way.
            assert abs(row["span_ns"] - total) <= usecs(50)

    def test_sleep_and_block_separated(self):
        session, _result = pipe_episode(rounds=150, hogs=3)
        kernel = session.kernel
        rows = {t.name: task_delay_row(t, kernel.now)
                for t in kernel.tasks.values()}
        # Hogs only ever Sleep voluntarily; the pipe ends block on a
        # condition (involuntary), so the two land in different buckets.
        assert rows["hog-0"]["sleep_ns"] > 0
        assert rows["hog-0"]["block_ns"] == 0
        assert rows["pipe-sender"]["block_ns"] > 0
        assert rows["pipe-sender"]["sleep_ns"] == 0

    def test_hot_path_has_no_accounting_attached(self):
        session, _result = pipe_episode(rounds=50, hogs=0)
        assert session.kernel.accounting is None

    def test_steals_counted_on_destination_cpu(self):
        session, _result = pipe_episode(rounds=200, hogs=6)
        stats = session.kernel.stats
        total_steals = sum(c.steals for c in stats.cpus)
        assert total_steals == stats.total_migrations

    def test_snapshot_merges_to_combined_totals(self):
        # Two disjoint shards vs their merge: machine counters sum,
        # task/CPU rows concatenate, histogram counts add.
        snaps = []
        for hogs in (2, 5):
            session, _result = pipe_episode(
                rounds=120, hogs=hogs, telemetry_ns=usecs(500))
            snaps.append(session.telemetry.accounting.snapshot())
        merged = merge_accounting_snapshots(snaps[0], snaps[1])
        for key in merged["machine"]:
            assert merged["machine"][key] == (snaps[0]["machine"][key]
                                             + snaps[1]["machine"][key])
        assert len(merged["tasks"]) == (len(snaps[0]["tasks"])
                                        + len(snaps[1]["tasks"]))
        assert len(merged["cpus"]) == 16
        assert merged["wakeup_latency"]["count"] == (
            snaps[0]["wakeup_latency"]["count"]
            + snaps[1]["wakeup_latency"]["count"])
        for policy in merged["run_ns_by_policy"]:
            assert merged["run_ns_by_policy"][policy] == (
                snaps[0]["run_ns_by_policy"].get(policy, 0)
                + snaps[1]["run_ns_by_policy"].get(policy, 0))
        json.dumps(merged)


class TestTelemetrySampler:
    def test_windows_tile_the_episode(self):
        interval = usecs(500)
        session, _result = pipe_episode(rounds=200, hogs=4,
                                        telemetry_ns=interval)
        windows = list(session.telemetry.windows)
        assert len(windows) >= 2
        for window in windows[:-1]:
            assert window["end_ns"] % interval == 0
            assert window["span_ns"] == interval
        # Windows are contiguous from t=0 to the final flush.
        assert windows[0]["start_ns"] == 0
        for before, after in zip(windows, windows[1:]):
            assert after["start_ns"] == before["end_ns"]
            assert after["index"] == before["index"] + 1
        assert windows[-1]["end_ns"] == session.kernel.now

    def test_window_deltas_sum_to_cumulative_totals(self):
        session, _result = pipe_episode(rounds=200, hogs=4,
                                        telemetry_ns=usecs(500))
        windows = list(session.telemetry.windows)
        stats = session.kernel.stats
        assert sum(w["machine"]["wakeups"] for w in windows) == \
            stats.total_wakeups
        assert sum(w["machine"]["switches"] for w in windows) == \
            sum(c.switches for c in stats.cpus)
        assert sum(w["machine"]["busy_ns"] for w in windows) == \
            stats.busy_ns_total()
        acct = session.telemetry.accounting
        assert sum(w["wakeup_latency"]["count"] for w in windows) == \
            acct.wakeup_latency.count

    def test_sampler_does_not_perturb_scheduling(self):
        baseline, result_a = pipe_episode(rounds=150, hogs=4)
        sampled, result_b = pipe_episode(rounds=150, hogs=4,
                                         telemetry_ns=usecs(250))
        # The trailing window tick may advance virtual time past the
        # last task's death, but no scheduling decision may change.
        assert result_a.latency_us_per_message == \
            result_b.latency_us_per_message
        for pid, task in baseline.kernel.tasks.items():
            other = sampled.kernel.tasks[pid]
            assert task.sum_exec_runtime_ns == other.sum_exec_runtime_ns
            assert task.stats.wait_ns == other.stats.wait_ns

    def test_sampler_self_cancels_so_run_until_idle_drains(self):
        session, _result = pipe_episode(rounds=50, hogs=0,
                                        telemetry_ns=usecs(100))
        # run_pipe_benchmark calls run_until_idle internally; reaching
        # here at all proves the periodic chain stopped re-arming.
        assert session.telemetry._timer is None

    def test_retention_ring_drops_oldest(self):
        session = wfq_session()
        session.attach_telemetry(usecs(50), retain=4)
        spawn_hogs(session, 2)
        session.kernel.run_until_idle()
        session.stop()
        sampler = session.telemetry
        assert sampler.dropped > 0
        windows = list(sampler.windows)
        assert len(windows) == 4
        assert windows[0]["index"] == sampler.dropped
        assert sampler.summary()["windows"] == \
            sampler.dropped + len(windows)

    def test_summary_series_shapes_align(self):
        session, _result = pipe_episode(rounds=120, hogs=2,
                                        telemetry_ns=usecs(500))
        summary = session.telemetry.summary()
        series = summary["series"]
        n = summary["windows"]
        assert n == len(series["end_ns"]) == len(series["utilisation"]) \
            == len(series["wakeup_p99_ns"]) == len(series["runnable"])
        json.dumps(summary)


class TestSLOMonitor:
    def test_violations_traced_and_counted(self):
        session = wfq_session()
        observer = session.attach_observer()
        session.attach_telemetry(
            usecs(500),
            slos=({"name": "tight", "metric": "wakeup_p99_ns", "max": 1},
                  {"name": "loose", "metric": "rq_depth_max", "max": 999}))
        spawn_hogs(session, 4)
        run_pipe_benchmark(session.kernel, session.policy, rounds=150)
        session.stop()
        monitor = session.telemetry.monitor
        summary = monitor.summary()
        by_name = {t["name"]: t for t in summary["targets"]}
        assert not by_name["tight"]["met"]
        assert by_name["tight"]["violations"] > 0
        assert by_name["loose"]["met"]
        traced = observer.events_of_kind("slo_violation")
        assert len(traced) == by_name["tight"]["violations"]
        assert dict(traced[0].args)["slo"] == "tight"
        registry = observer.registry.snapshot()
        assert registry["counters"]["slo.violations"] == \
            by_name["tight"]["violations"]
        assert registry["counters"]["slo.traced.tight"] == \
            by_name["tight"]["violations"]

    def test_min_bound_and_missing_metric(self):
        target = SLOTarget("floor", "utilisation", min=0.5)
        violation = target.check({"utilisation": 0.2})
        assert violation["kind"] == "min" and violation["bound"] == 0.5
        assert target.check({"utilisation": 0.9}) is None
        assert target.check({}) is None

    def test_monitor_without_kernel_trace_still_counts(self):
        monitor = SLOMonitor(
            [{"name": "cap", "metric": "runnable", "max": 1}])

        class NullTraceKernel:
            trace = None
        monitor.evaluate(NullTraceKernel(), 0, usecs(1), {"runnable": 5})
        assert monitor.violations_by_slo["cap"] == 1


class TestDerivedViews:
    def test_timeseries_csv_shape(self):
        session, _result = pipe_episode(rounds=120, hogs=2,
                                        telemetry_ns=usecs(500))
        csv = timeseries_csv(list(session.telemetry.windows))
        lines = csv.strip().split("\n")
        assert lines[0] == ",".join(TIMESERIES_COLUMNS)
        assert len(lines) == 1 + len(session.telemetry.windows)
        for line in lines[1:]:
            assert len(line.split(",")) == len(TIMESERIES_COLUMNS)

    def test_heatmap_grid_is_rectangular_and_conserves_counts(self):
        session, _result = pipe_episode(rounds=150, hogs=3,
                                        telemetry_ns=usecs(500))
        windows = list(session.telemetry.windows)
        grid = latency_heatmap(windows)
        assert len(grid["rows"]) == len(windows) == \
            len(grid["window_end_ns"])
        width = len(grid["octave_upper_bounds_ns"])
        assert all(len(row) == width for row in grid["rows"])
        assert sum(sum(row) for row in grid["rows"]) == \
            sum(w["wakeup_latency"]["count"] for w in windows)

    def test_top_frame_renders_cpus_and_tasks(self):
        session, _result = pipe_episode(rounds=150, hogs=3,
                                        telemetry_ns=usecs(1000))
        frame = render_top_frame(list(session.telemetry.windows)[0])
        assert "util" in frame and "top tasks" in frame
        assert frame.count("\n") >= 8 + 3   # header + 8 cpus + tasks

    def test_build_report_json_and_markdown(self):
        slos = ({"name": "p99", "metric": "wakeup_p99_ns",
                 "max": 1_000_000},)
        session, result = pipe_episode(rounds=150, hogs=3,
                                       telemetry_ns=usecs(500), slos=slos)
        report = build_report(session.kernel, session.telemetry,
                              meta={"workload": "pipe"})
        for key in ("machine", "cpus", "tasks", "windows", "heatmap",
                    "slo", "telemetry", "wakeup_latency"):
            assert key in report, key
        assert report["episode"]["simulated_ns"] == session.kernel.now
        for row in report["tasks"]:
            total = (row["run_ns"] + row["wait_ns"]
                     + row["sleep_ns"] + row["block_ns"])
            assert total == row["span_ns"]
        json.dumps(report)
        markdown = render_report_markdown(report)
        assert "## per-task delay accounting" in markdown
        assert "## SLO verdicts" in markdown
        assert "pipe-sender" in markdown


class TestSpecAndBenchIntegration:
    def test_spec_round_trips_telemetry_fields(self):
        spec = ScenarioSpec(
            name="t", sched="wfq", workload="pipe",
            telemetry_ns=usecs(500),
            slos=({"name": "p99", "metric": "wakeup_p99_ns",
                   "max": 10_000_000},))
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone.telemetry_ns == spec.telemetry_ns
        assert clone.slos == spec.slos
        assert clone.spec_hash() == spec.spec_hash()

    def test_spec_hash_stable_without_telemetry(self):
        # Pre-telemetry specs must keep their dict shape (and therefore
        # their bench-cache keys): the new fields only appear when set.
        spec = ScenarioSpec(name="t", sched="wfq", workload="pipe")
        assert "telemetry_ns" not in spec.to_dict()
        assert "slos" not in spec.to_dict()

    def test_run_spec_embeds_telemetry_summary(self):
        spec = ScenarioSpec(
            name="t", sched="wfq", workload="pipe",
            workload_options={"rounds": 120}, telemetry_ns=usecs(500),
            slos=({"name": "p99", "metric": "wakeup_p99_ns",
                   "max": 10_000_000},))
        metrics = run_spec(spec)
        telemetry = metrics["telemetry"]
        assert telemetry["windows"] > 0
        assert telemetry["slo"]["targets"][0]["name"] == "p99"
        json.dumps(metrics)


class TestCliSurfaces:
    def test_top_no_clear(self, capsys):
        from repro.cli import main
        assert main(["top", "--rounds", "80", "--hogs", "2",
                     "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "episode done:" in out
        assert "top tasks" in out

    def test_report_json_and_csv(self, tmp_path, capsys):
        from repro.cli import main
        csv_path = tmp_path / "series.csv"
        assert main(["report", "--rounds", "80", "--hogs", "2",
                     "--json", "--csv", str(csv_path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "repro.obs report"
        assert report["tasks"]
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("index,start_ns,end_ns")
        assert len(lines) == 1 + len(report["windows"])

    def test_report_markdown_default(self, capsys):
        from repro.cli import main
        assert main(["report", "--rounds", "80", "--hogs", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# repro.obs report")

    def test_stats_json(self, capsys):
        from repro.cli import main
        assert main(["stats", "--rounds", "80", "--hogs", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["latency_us_per_message"] > 0
        assert "metrics" in payload and "events" in payload
        gauge = payload["metrics"]["gauges"]["kernel.now_ns"]
        assert set(gauge) == {"value", "min", "max"}
