"""Command-line entry point.

Usage::

    python -m repro list                 # commands and paper artefacts
    python -m repro bench                # every table and figure of the
                                         # paper -> BENCH_paper.json
    python -m repro bench table3         # one artefact: its table, the
                                         # paper's row, a verdict per claim
    python -m repro faas --load 15000
    python -m repro trace --export chrome out.json
    python -m repro stats

``repro bench`` is the one way to run an experiment: the catalogue in
:mod:`repro.exp.paper` names each artefact of the paper's evaluation.
"""

import argparse
import json
import sys

from repro.analysis.tables import render_table
from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs

POLICY = 7


def positive_int(text):
    """argparse type of the count and length options: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text):
    """argparse type of ``--hogs`` and ``--upgrade-at``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _wfq_session(topology=None):
    return (KernelBuilder(topology=topology)
            .with_native("cfs", policy=0, priority=5)
            .with_enoki("wfq", policy=POLICY, priority=10).build())


def cmd_faas(args):
    from repro.exp.bench import FAAS_BASE_OPTIONS, FAAS_SLOS
    from repro.workloads.faas import run_faas

    rows = []
    slo_reports = []
    for name in ("CFS", "Enoki-Serverless"):
        builder = (KernelBuilder(seed=args.seed)
                   .with_native("cfs", policy=0, priority=5))
        if name != "CFS":
            builder.with_enoki("serverless", policy=POLICY, priority=10)
        session = builder.build()
        session.attach_telemetry(msecs(10), slos=FAAS_SLOS)
        result = run_faas(session.kernel, session.policy,
                          offered_rps=args.load,
                          duration_ns=msecs(args.duration_ms),
                          warmup_ns=msecs(50), seed=args.seed,
                          scheduler_name=name, **FAAS_BASE_OPTIONS)
        session.stop()
        monitor = session.telemetry.monitor
        if monitor is not None:
            slo_reports.append((name, monitor.summary()))
        rows.append([name, result.p50_us, result.p99_us, result.p999_us,
                     f"{result.throughput_rps:,.0f}",
                     result.cold_starts, result.completed])
    print(render_table(
        f"FaaS trace at {args.load} invocations/s "
        f"(short-invocation latency, us)",
        ["scheduler", "p50", "p99", "p99.9", "rps", "cold", "completed"],
        rows))
    for name, summary in slo_reports:
        for target in summary["targets"]:
            state = ("met" if not target["violations"]
                     else f"{target['violations']} violation(s)")
            print(f"SLO[{name}] {target['name']}: {state}")
    return 0


def _observed_pipe_run(rounds, hogs, capacity):
    """Run the pipe workload (plus optional background hogs that force
    work stealing) on an Enoki WFQ kernel with the Observer attached."""
    from repro.simkernel.clock import usecs
    from repro.simkernel.program import Run, Sleep
    from repro.workloads.pipe_bench import run_pipe_benchmark

    session = _wfq_session()
    observer = session.attach_observer(capacity=capacity)

    def hog():
        for _ in range(200):
            yield Run(usecs(40))
            yield Sleep(usecs(15))

    # Background load pinned to half the cores builds uneven queues, so
    # the trace also shows balancing: steals (migrate) and rejections.
    # The hogs live in a bandwidth-capped task group, so the episode also
    # exercises throttle/refill and the per-group metrics.
    session.kernel.groups.create("hogs", quota_ns=usecs(1000),
                                 period_ns=usecs(2000))
    for i in range(hogs):
        session.spawn(hog, name=f"hog-{i}", group="hogs",
                      allowed_cpus={0, 1, 2, 3}, origin_cpu=i % 4)
    result = run_pipe_benchmark(session.kernel, session.policy,
                                rounds=rounds)
    return session.kernel, observer, result


def cmd_trace(args):
    kernel, observer, result = _observed_pipe_run(
        args.rounds, args.hogs, args.capacity)
    if args.export == "chrome":
        observer.export_chrome(args.output)
    else:
        observer.export_ftrace(args.output)
    summary = observer.summary()
    rows = [[kind, count] for kind, count in sorted(summary.items())]
    rows.append(["(dropped)", observer.dropped])
    print(render_table(
        f"trace of sched-pipe + {args.hogs} hogs "
        f"({result.latency_us_per_message:.2f} us/msg)",
        ["event kind", "count"], rows))
    print(f"wrote {args.export} trace to {args.output}")
    return 0


def cmd_stats(args):
    _kernel, observer, result = _observed_pipe_run(
        args.rounds, args.hogs, args.capacity)
    if args.json:
        observer.collect()
        print(json.dumps({
            "latency_us_per_message": result.latency_us_per_message,
            "events": dict(sorted(observer.summary().items())),
            "dropped_events": observer.dropped,
            "metrics": observer.registry.snapshot(),
        }, indent=2, sort_keys=True))
        return 0
    print(f"sched-pipe + {args.hogs} hogs: "
          f"{result.latency_us_per_message:.2f} us/msg")
    print(observer.report())
    return 0


#: default SLO targets for the telemetry CLI surfaces — generous bounds
#: that hold on a healthy kernel, so violations mean something changed
DEFAULT_SLOS = (
    {"name": "p99-wakeup", "metric": "wakeup_p99_ns", "max": 1_000_000},
    {"name": "rq-depth", "metric": "rq_depth_max", "max": 64},
)


def _telemetry_pipe_run(rounds, hogs, interval_us, on_window=None,
                        top_k=5, slos=DEFAULT_SLOS):
    """The pipe + background-hogs episode with continuous telemetry
    attached (inline accounting, windowed sampler, SLO monitors)."""
    from repro.simkernel.clock import usecs
    from repro.simkernel.program import Run, Sleep
    from repro.workloads.pipe_bench import run_pipe_benchmark

    session = _wfq_session()
    session.attach_telemetry(usecs(interval_us), slos=slos,
                             on_window=on_window, top_k=top_k)

    def hog():
        for _ in range(200):
            yield Run(usecs(40))
            yield Sleep(usecs(15))

    # Same bandwidth-capped hog group as ``repro stats``: the telemetry
    # windows then carry a per-group section (shares, throttles).
    session.kernel.groups.create("hogs", quota_ns=usecs(1000),
                                 period_ns=usecs(2000))
    for i in range(hogs):
        session.spawn(hog, name=f"hog-{i}", group="hogs",
                      allowed_cpus={0, 1, 2, 3}, origin_cpu=i % 4)
    result = run_pipe_benchmark(session.kernel, session.policy,
                                rounds=rounds)
    session.stop()
    return session, result


def cmd_top(args):
    from repro.obs.telemetry import render_top_frame

    clear = (not args.no_clear) and sys.stdout.isatty()
    frames = [0]

    def show(window):
        frames[0] += 1
        if clear:
            sys.stdout.write("\x1b[2J\x1b[H")
        print(render_top_frame(window))
        if not clear:
            print()

    session, result = _telemetry_pipe_run(
        args.rounds, args.hogs, args.interval_us,
        on_window=show, top_k=args.tasks)
    sampler = session.telemetry
    slo = sampler.monitor.summary() if sampler.monitor else None
    violations = (sum(t["violations"] for t in slo["targets"])
                  if slo else 0)
    print(f"episode done: {frames[0]} windows "
          f"@ {args.interval_us} us, "
          f"{result.latency_us_per_message:.2f} us/msg, "
          f"{violations} SLO violation(s)")
    return 0


def cmd_report(args):
    from repro.obs.telemetry import (build_report, render_report_markdown,
                                     timeseries_csv)

    session, result = _telemetry_pipe_run(
        args.rounds, args.hogs, args.interval_us)
    report = build_report(session.kernel, session.telemetry, meta={
        "workload": "pipe+hogs",
        "rounds": args.rounds,
        "hogs": args.hogs,
        "interval_us": args.interval_us,
        "latency_us_per_message": result.latency_us_per_message,
    })
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(timeseries_csv(list(session.telemetry.windows)))
        if not args.json:
            print(f"wrote time-series CSV to {args.csv}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(render_report_markdown(report))
    return 0


def _chaos_run(plan, rounds, hogs):
    """Run the pipe workload under one fault plan; returns an outcome dict.

    The harness is the full containment stack: injector on the shim,
    containment boundary with CFS as the fallback class, and a watchdog
    escalating ``lost_task`` findings into failover — the only way tasks a
    buggy module silently dropped (e.g. via a corrupted token's pnt_err)
    ever get rescued.
    """
    from repro.simkernel.clock import usecs
    from repro.simkernel.program import Run, SendHint, Sleep
    from repro.simkernel.task import TaskState
    from repro.workloads.pipe_bench import run_pipe_benchmark

    session = _wfq_session()
    kernel, policy = session.kernel, session.policy
    injector = session.install_faults(plan)
    watchdog = session.watchdog

    upgrades = None
    if any(spec.callback == "reregister_init" for spec in plan.specs):
        upgrades = session.schedule_upgrade(at_ns=usecs(800))

    def hog():
        # Bursts longer than the 1 ms tick period so task_tick traffic
        # exists for the tick-targeting plans to hit.
        for i in range(20):
            yield Run(usecs(1_200))
            if i % 5 == 0:
                yield SendHint({"tid": None, "seq": i}, policy=policy)
            yield Sleep(usecs(200))

    for i in range(hogs):
        session.spawn(hog, name=f"hog-{i}",
                      allowed_cpus={0, 1, 2, 3}, origin_cpu=i % 4)
    result = run_pipe_benchmark(kernel, policy, rounds=rounds)
    session.stop()

    from repro.verify import check_kernel_state

    lost = [pid for pid, task in kernel.tasks.items()
            if task.state is not TaskState.DEAD]
    violations = check_kernel_state(kernel)
    boundary = session.shim.containment
    report = boundary.failover_report
    return {
        "fired": sum(injector.summary().values()),
        "panics": len(boundary.panics),
        "strikes": boundary.strikes,
        "bad_responses": boundary.bad_responses,
        "failover": (f"-> policy {report.to_policy} "
                     f"({report.transferred} tasks)" if report else "no"),
        "findings": len(watchdog.report.findings),
        "upgrade": ("aborted" if upgrades and upgrades.reports
                    and upgrades.reports[0].aborted else
                    "ok" if upgrades and upgrades.reports else "-"),
        "lost": len(lost),
        "violations": [str(v) for v in violations],
        "latency_us": result.latency_us_per_message,
    }


def cmd_chaos(args):
    from repro.core import FaultPlan

    if args.list:
        print("built-in fault plans:")
        for name in FaultPlan.builtin_names():
            print(f"  {name:16s} {FaultPlan.builtin(name).description}")
        return 0
    names = (FaultPlan.builtin_names() if args.plan == "all"
             else [args.plan])
    rows, outcomes = [], {}
    lost_total = violation_total = 0
    for name in names:
        plan = FaultPlan.builtin(name).with_seed(args.seed)
        outcome = _chaos_run(plan, rounds=args.rounds, hogs=args.hogs)
        outcomes[name] = outcome
        lost_total += outcome["lost"]
        violation_total += len(outcome["violations"])
        rows.append([name, outcome["fired"], outcome["panics"],
                     outcome["failover"], outcome["findings"],
                     outcome["upgrade"], outcome["lost"],
                     len(outcome["violations"]),
                     f"{outcome['latency_us']:.2f}"])
    ok = not lost_total and not violation_total
    if args.json:
        print(json.dumps({"ok": ok, "seed": args.seed,
                          "lost": lost_total,
                          "violations": violation_total,
                          "plans": outcomes}, indent=2))
        return 0 if ok else 1
    print(render_table(
        f"chaos: sched-pipe + {args.hogs} hogs under fault injection "
        f"(seed {args.seed})",
        ["plan", "fired", "panics", "failover", "findings", "upgrade",
         "lost", "sanitize", "us/msg"], rows))
    if not ok:
        print(f"FAIL: {lost_total} task(s) lost, "
              f"{violation_total} invariant violation(s)")
        return 1
    print("all plans contained: every task completed, invariants held")
    return 0


def cmd_fuzz(args):
    from repro.verify import fuzz_run, load_artifact, run_episode

    if args.repro:
        spec, payload = load_artifact(args.repro)
        result = run_episode(spec)
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            print(f"replaying reproducer (seed {spec.seed}, "
                  f"{spec.sched}, {len(spec.tasks)} tasks)")
            for violation in result.violations:
                print(f"  {violation}")
            print("violation reproduced" if not result.ok
                  else "episode passed: the defect is gone")
        # A reproducer that still fails exits 1, same as the fuzz run
        # that produced it — so CI can bisect with the artifact alone.
        return 0 if result.ok else 1

    progress = None
    if not args.json:
        def progress(index, result):
            if not result.ok:
                print(f"episode {index} (seed {result.spec.seed}): "
                      f"{len(result.violations)} violation(s)")
    report = fuzz_run(args.episodes, args.seed, sched=args.sched,
                      bug=args.bug, on_episode=progress)

    artifact = None
    if report.failures and args.out:
        from repro.verify import shrink_episode, write_artifact
        failure = report.failures[0]
        shrunk = shrink_episode(failure.spec, failure)
        artifact = write_artifact(args.out, shrunk)

    if args.json:
        payload = report.to_dict()
        payload["artifact"] = artifact
        print(json.dumps(payload, indent=2))
        return 0 if report.ok else 1
    summary = report.to_dict()
    print(f"{args.episodes} episodes (master seed {args.seed}): "
          f"{len(report.failures)} failing, "
          f"{summary['replay_checked']} replay-checked, "
          f"{summary['control_checked']} control-checked, "
          f"{summary['faults_fired']} faults fired")
    for failure in report.failures[:5]:
        print(f"  seed {failure.spec.seed} ({failure.spec.sched}):")
        for violation in failure.violations[:3]:
            print(f"    {violation}")
    if artifact:
        print(f"shrunk reproducer written to {artifact}")
    if not report.ok:
        print("FAIL: invariant violations found")
        return 1
    print("all invariants held across every episode")
    return 0


def _metric_headline(metrics):
    """The one number worth a table cell, per workload."""
    if "tenants" in metrics:
        return "shares " + "/".join(
            f"{row['share'] * 100:.0f}%"
            for _, row in sorted(metrics["tenants"].items()))
    for key, fmt in (("latency_us_per_message", "{:.2f} us/msg"),
                     ("p99_us", "p99 {:.1f} us"),
                     ("max_finish_ns", "max finish {:.3f} s"),
                     ("elapsed_ns", "{:.1f} ms")):
        if key in metrics:
            value = metrics[key]
            if key in ("max_finish_ns",):
                value = value / 1e9
            elif key == "elapsed_ns":
                value = value / 1e6
            return fmt.format(value)
    return "-"


def cmd_bench(args):
    from repro.exp.bench import (faas_specs, multitenant_specs, run_sweep,
                                 smoke_specs)
    from repro.exp.paper import (CATALOGUE, catalogue_specs, report,
                                 results_by_name)

    artefacts = []
    if args.faas or args.multitenant or args.smoke:
        if args.artefact:
            print(f"repro bench: {args.artefact!r} names a paper artefact; "
                  "it cannot be combined with --smoke, --faas or "
                  "--multitenant", file=sys.stderr)
            return 2
        if args.faas:
            name = "faas"
            specs = faas_specs(args.seed,
                               headline_invocations=args.faas_invocations)
        elif args.multitenant:
            name, specs = "multitenant", multitenant_specs(args.seed)
        else:
            name, specs = "smoke", smoke_specs(args.seed)
    else:
        if args.artefact and args.artefact not in CATALOGUE:
            print(f"repro bench: unknown artefact {args.artefact!r}; the "
                  f"catalogue: {', '.join(CATALOGUE)}", file=sys.stderr)
            return 2
        names = [args.artefact] if args.artefact else list(CATALOGUE)
        artefacts = [CATALOGUE[n] for n in names]
        name, specs = args.artefact or "paper", catalogue_specs(names)
    name = args.name or name
    payload = run_sweep(specs, name, workers=args.workers,
                        cache_dir=args.cache_dir, out_dir=args.out_dir,
                        use_cache=not args.no_cache)
    results = results_by_name(payload)
    reports = [report(artefact, results) for artefact in artefacts]
    status = 0 if all(holds for _, holds in reports) else 1
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return status
    meta = payload["meta"]
    if artefacts:
        print("\n\n".join(text for text, _ in reports) + "\n")
    else:
        rows = [[r["name"], r["spec"]["sched"], r["spec"]["workload"],
                 _metric_headline(r["metrics"]),
                 f"{r['metrics'].get('simulated_ns', 0) / 1e6:.1f}"]
                for r in payload["results"]]
        print(render_table(
            f"bench sweep '{name}' ({len(specs)} scenarios, "
            f"{meta['workers']} workers)",
            ["scenario", "sched", "workload", "headline", "sim ms"], rows))
    rate = meta["sim_ns_per_wall_s"]
    print(f"wall {meta['wall_s']:.2f}s, {meta['cache_hits']} cached / "
          f"{meta['executed']} executed"
          + (f", {rate:,.0f} sim-ns per wall-second" if rate else ""))
    print(f"wrote BENCH_{name}.json")
    if status:
        print("FAIL: a claim of the paper does not hold on this tree")
    return status


def _cluster_spec_from_args(args):
    from repro.core.faults import FaultPlan
    from repro.exp import ClusterSpec

    fault_plan = None
    if args.faults and args.faults != "none":
        fault_plan = FaultPlan.fleet(args.faults).to_dict()
    upgrade = None
    if args.upgrade != "none":
        upgrade = {"at_round": args.upgrade_at, "mode": args.upgrade}
    return ClusterSpec(
        name="cli-cluster",
        machines=args.machines,
        topology=args.topology,
        seed=args.seed,
        sched=args.sched,
        round_ns=args.round_ns,
        max_rounds=args.rounds,
        requests={"count": args.requests, "work_ns": args.work_ns},
        fault_plan=fault_plan,
        upgrade=upgrade,
    )


def _print_cluster_result(metrics, seed):
    router = metrics["router"]
    health = metrics["health"]
    membership = {m: g["membership"]
                  for m, g in health["machines"].items()}
    rows = [[p["machine"], p["state"],
             membership.get(p["machine"],
                            membership.get(str(p["machine"]), "?")),
             p["boots"], p["dispatched"], p["completed"],
             p.get("panics", 0), p.get("failovers", 0)]
            for p in metrics["per_machine"]]
    print(render_table(
        f"cluster seed={seed}: {metrics['machines']} machines, "
        f"{metrics['rounds']} rounds",
        ["m", "state", "member", "boots", "disp", "done", "panics",
         "failovers"], rows))
    print(f"requests: {router['completed']}/{router['admitted']} "
          f"completed, {router['shed']} shed, "
          f"{router['lost_to_dead']} lost to dead machines, "
          f"{router['retries']} retries, {router['timeouts']} timeouts, "
          f"{router['hedges']} hedges, "
          f"{router['duplicate_completions']} duplicates deduped")
    print(f"latency: p50 {router['latency_p50_ns'] / 1e6:.2f} ms, "
          f"p99 {router['latency_p99_ns'] / 1e6:.2f} ms")
    for event in health["events"]:
        print(f"health: round {event['round']:4d} machine "
              f"{event['machine']} {event['action']} ({event['reason']})")
    rolling = metrics.get("rolling_upgrade")
    if rolling:
        print(f"rolling upgrade [{rolling['mode']}]: {rolling['verdict']}")
        slo = rolling.get("slo")
        if slo:
            state = "met" if slo["met"] else "VIOLATED"
            print(f"fleet SLO {slo['metric']}: {state} "
                  f"({slo['value'] / 1e6:.2f} ms vs bound "
                  f"{slo['bound'] / 1e6:.2f} ms)")
    invariant = metrics["invariant"]
    if invariant["exactly_once"]:
        print("exactly-once invariant: OK")
    else:
        print(f"exactly-once invariant: VIOLATED "
              f"({len(invariant['violations'])} finding(s))")
        for violation in invariant["violations"]:
            print(f"  - {violation['detail']}")


def cmd_cluster(args):
    from repro.exp.bench import derive_seed, run_sweep

    base = _cluster_spec_from_args(args)
    if args.seeds > 1:
        # Seed sweep: shard fleet episodes over the bench fork pool
        # (spec-hash caching included — fleet params are in the hash).
        specs = [base.with_seed(derive_seed(args.seed, i))
                 .to_scenario_spec() for i in range(args.seeds)]
        payload = run_sweep(specs, args.name, workers=args.workers,
                            cache_dir=args.cache_dir,
                            out_dir=args.out_dir,
                            use_cache=not args.no_cache)
        results = payload["results"]
    else:
        from repro.cluster import run_cluster_spec
        results = [{"metrics": run_cluster_spec(base),
                    "spec": {"seed": args.seed}}]
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    failures = 0
    for result in results:
        if not args.json:
            _print_cluster_result(result["metrics"],
                                  result["spec"]["seed"])
            print()
        if not result["metrics"]["invariant"]["exactly_once"]:
            failures += 1
    if failures:
        print(f"{failures}/{len(results)} episode(s) violated the "
              "exactly-once invariant")
        return 1
    return 0


EXPERIMENTS = {
    "bench": (cmd_bench, "the paper's tables and figures (all, or one "
                         "named artefact) on the sharded, cached runner; "
                         "exit 1 if a claim fails"),
    "cluster": (cmd_cluster, "fault-tolerant simulated fleet: N kernels "
                             "behind a retrying router with health-driven "
                             "eviction and rolling upgrades"),
    "faas": (cmd_faas, "serverless/FaaS trace quick run: CFS vs the "
                       "Enoki serverless scheduler + SLO verdicts"),
    "trace": (cmd_trace, "capture a full-stack trace and export it "
                         "(chrome/ftrace)"),
    "stats": (cmd_stats, "metrics registry + per-callback latency "
                         "percentiles"),
    "top": (cmd_top, "live schedstat view: per-CPU bars, SLO status, "
                     "busiest tasks per telemetry window"),
    "report": (cmd_report, "delay-accounting + time-series episode "
                           "report (markdown, --json, --csv)"),
    "chaos": (cmd_chaos, "deterministic fault injection: run built-in "
                         "fault plans under containment"),
    "fuzz": (cmd_fuzz, "seeded simulation fuzzing under the invariant "
                       "sanitizers and differential oracles"),
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list experiments")

    p = sub.add_parser("faas", help=EXPERIMENTS["faas"][1])
    p.add_argument("--load", type=positive_int, default=18_000,
                   help="offered invocations per second")
    p.add_argument("--duration-ms", type=positive_int, default=400)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("trace", help=EXPERIMENTS["trace"][1])
    p.add_argument("--export", choices=["chrome", "ftrace"],
                   default="chrome")
    p.add_argument("--rounds", type=positive_int, default=500)
    p.add_argument("--hogs", type=non_negative_int, default=12,
                   help="background tasks that force work stealing")
    p.add_argument("--capacity", type=positive_int, default=500_000,
                   help="trace ring-buffer capacity (events)")
    p.add_argument("output", nargs="?", default="trace.json")

    p = sub.add_parser("stats", help=EXPERIMENTS["stats"][1])
    p.add_argument("--rounds", type=positive_int, default=500)
    p.add_argument("--hogs", type=non_negative_int, default=12)
    p.add_argument("--capacity", type=positive_int, default=500_000)
    p.add_argument("--json", action="store_true",
                   help="machine-readable registry snapshot on stdout")

    p = sub.add_parser("top", help=EXPERIMENTS["top"][1])
    p.add_argument("--rounds", type=positive_int, default=500)
    p.add_argument("--hogs", type=non_negative_int, default=12)
    p.add_argument("--interval-us", type=positive_int, default=1000,
                   help="telemetry window length (simulated microseconds)")
    p.add_argument("--tasks", type=positive_int, default=5,
                   help="busiest tasks shown per frame")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of redrawing in place")

    p = sub.add_parser("report", help=EXPERIMENTS["report"][1])
    p.add_argument("--rounds", type=positive_int, default=500)
    p.add_argument("--hogs", type=non_negative_int, default=12)
    p.add_argument("--interval-us", type=positive_int, default=1000,
                   help="telemetry window length (simulated microseconds)")
    p.add_argument("--json", action="store_true",
                   help="full report as JSON instead of markdown")
    p.add_argument("--csv", metavar="PATH",
                   help="also export the per-window time series as CSV")

    p = sub.add_parser("chaos", help=EXPERIMENTS["chaos"][1])
    p.add_argument("--plan", default="all",
                   help="built-in plan name, or 'all' (default)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=positive_int, default=600)
    p.add_argument("--hogs", type=non_negative_int, default=6)
    p.add_argument("--list", action="store_true",
                   help="list built-in fault plans and exit")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")

    p = sub.add_parser("fuzz", help=EXPERIMENTS["fuzz"][1])
    p.add_argument("--episodes", type=positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sched",
                   choices=["wfq", "fifo", "eevdf", "serverless"],
                   help="pin every episode to one scheduler")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary on stdout")
    p.add_argument("--out", metavar="PATH",
                   help="shrink the first failure and write a "
                        "reproducer artifact here")
    p.add_argument("--repro", metavar="PATH",
                   help="re-run a reproducer artifact instead of fuzzing")
    # Test-only: plant a known defect so the suite can prove the
    # sanitizers catch it (see tests/test_cli.py).
    p.add_argument("--bug", default="", help=argparse.SUPPRESS)

    p = sub.add_parser("cluster", help=EXPERIMENTS["cluster"][1])
    p.add_argument("--machines", type=positive_int, default=8)
    p.add_argument("--topology", default="smp:4",
                   help="per-machine topology template")
    p.add_argument("--sched", default="wfq",
                   help="Enoki scheduler every machine runs")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seeds", type=positive_int, default=1,
                   help="sweep this many derived seeds through the "
                        "bench fork pool")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="process-pool size for --seeds sweeps")
    p.add_argument("--faults", default="none",
                   help="fleet fault plan: "
                        "machine-crash | machine-stall | machine-loss | "
                        "double-crash | noisy-module | none")
    p.add_argument("--rounds", type=positive_int, default=400,
                   help="max cluster rounds (hard episode bound)")
    p.add_argument("--round-ns", type=positive_int, default=1_000_000)
    p.add_argument("--requests", type=positive_int, default=400)
    p.add_argument("--work-ns", type=positive_int, default=200_000)
    p.add_argument("--upgrade", default="bad-dispatch",
                   choices=("none", "good", "bad-init", "bad-dispatch"),
                   help="rolling-upgrade demo: canary first, automatic "
                        "rollback on regression (default injects a "
                        "bad module to show the rollback)")
    p.add_argument("--upgrade-at", type=non_negative_int, default=40,
                   help="cluster round the canary upgrade starts at")
    p.add_argument("--name", default="cluster",
                   help="payload name for --seeds sweeps")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cache-dir", default=".bench-cache")
    p.add_argument("--no-cache", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="print full episode payloads instead of tables")

    p = sub.add_parser("bench", help=EXPERIMENTS["bench"][1])
    p.add_argument("artefact", nargs="?",
                   help="one artefact of the paper catalogue (see `repro "
                        "list`); default: all of them, written to "
                        "BENCH_paper.json")
    p.add_argument("--smoke", action="store_true",
                   help="tiny CI-sized sweep instead of the catalogue")
    p.add_argument("--faas", action="store_true",
                   help="FaaS table: serverless vs the field under "
                        "sweeping load + a production-scale headline "
                        "pair (writes BENCH_faas.json)")
    p.add_argument("--faas-invocations", type=positive_int, default=1_000_000,
                   help="invocation count of the --faas headline episode")
    p.add_argument("--multitenant", action="store_true",
                   help="noisy-neighbour table: three tenants in "
                        "weighted, bandwidth-capped task groups across "
                        "schedulers (writes BENCH_multitenant.json)")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="process-pool size; results are identical at "
                        "any worker count")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of the --smoke, --faas and "
                        "--multitenant sweeps (per-spec seeds are derived "
                        "from it); the paper catalogue is recorded at "
                        "SimConfig().seed")
    p.add_argument("--name", default="",
                   help="payload name (writes BENCH_<name>.json)")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cache-dir", default=".bench-cache")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate, ignore cached results")
    p.add_argument("--json", action="store_true",
                   help="print the full payload instead of the table")

    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        from repro.exp.paper import CATALOGUE
        print("experiments:")
        for name, (_fn, help_text) in EXPERIMENTS.items():
            print(f"  {name:10s} {help_text}")
        print("paper artefacts (repro bench <artefact>):")
        for name, artefact in CATALOGUE.items():
            print(f"  {name:16s} {artefact.title}")
        return 0
    return EXPERIMENTS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
