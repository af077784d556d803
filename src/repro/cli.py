"""Command-line entry point.

Usage::

    python -m repro list                 # commands and paper artefacts
    python -m repro bench                # every table and figure of the
                                         # paper -> BENCH_paper.json
    python -m repro bench table3         # one artefact: its table, the
                                         # paper's row, a verdict per claim
    python -m repro faas --load 15000
    python -m repro trace                # observed episode: markdown
                                         # report (--json, --csv, --live)
    python -m repro trace out.json       # ... and its Perfetto trace

``repro bench`` is the one way to run an experiment: the catalogue in
:mod:`repro.exp.paper` names each artefact of the paper's evaluation.

Every verb's ``--json`` prints one sorted-key JSON document and exits
with the status the same run has without it; a usage error exits 2.
"""

import argparse
import json
import sys

from repro.analysis.tables import render_table
from repro.exp import KernelBuilder
from repro.simkernel.clock import msecs

POLICY = 7


class UsageError(Exception):
    """A verb was given a name it does not know (or a damaged reproducer):
    ``main`` prints ``repro <verb>: <message>`` to stderr and exits 2."""


def positive_int(text):
    """argparse type of the count and length options: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text):
    """argparse type of ``--hogs``: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _wfq_session(topology=None):
    return (KernelBuilder(topology=topology)
            .with_native("cfs", policy=0, priority=5)
            .with_enoki("wfq", policy=POLICY, priority=10).build())


def cmd_faas(args):
    from repro.exp.bench import run_spec
    from repro.exp.spec import ScenarioSpec
    from repro.workloads.faas import FAAS_BASE_OPTIONS, FAAS_SLOS

    options = {**FAAS_BASE_OPTIONS, "offered_rps": args.load,
               "duration_ns": msecs(args.duration_ms),
               "warmup_ns": msecs(50)}
    # ``repro bench faas``'s runner: the spec names telemetry and SLOs.
    payload = {}
    for name, sched in (("CFS", "cfs"), ("Enoki-Serverless", "serverless")):
        payload[name] = run_spec(ScenarioSpec(
            sched=sched, seed=args.seed, workload="faas",
            workload_options=options, telemetry_ns=msecs(10),
            slos=FAAS_SLOS))
    # The payload carries an empty percentile as None; the table, nan.
    rows = [[name, *(float("nan") if metrics[key] is None else metrics[key]
                     for key in ("p50_us", "p99_us", "p999_us")),
             f"{metrics['throughput_rps']:,.0f}",
             metrics["cold_starts"], metrics["completed"]]
            for name, metrics in payload.items()]
    lines = [render_table(
        f"FaaS trace at {args.load} invocations/s "
        f"(short-invocation latency, us)",
        ["scheduler", "p50", "p99", "p99.9", "rps", "cold", "completed"],
        rows)]
    lines += [f"SLO[{name}] {target['name']}: "
              + ("met" if not target["violations"]
                 else f"{target['violations']} violation(s)")
              for name, metrics in payload.items()
              for target in metrics["telemetry"]["slo"]["targets"]]
    return payload, "\n".join(lines), 0


#: trace ring capacity of ``repro trace``; the default episode emits
#: ~162k events and drops none (the report carries the dropped count)
TRACE_CAPACITY = 500_000

#: SLO targets of ``repro trace``.  The default episode does not meet
#: them: wakeups into the bandwidth-capped ``hogs`` group wait for its
#: quota refill, so ``p99-wakeup`` is violated in 90 of 195 windows at
#: 12 hogs (176 of 327 at 20).  At ``--rounds 200 --hogs 4`` both hold.
DEFAULT_SLOS = (
    {"name": "p99-wakeup", "metric": "wakeup_p99_ns", "max": 1_000_000},
    {"name": "rq-depth", "metric": "rq_depth_max", "max": 64},
)


def _observed_pipe_run(rounds, hogs, interval_us, on_window=None):
    """Run the pipe workload plus background hogs on an Enoki WFQ kernel
    with the Observer and continuous telemetry (inline accounting,
    windowed sampler, SLO monitors) attached; they share one registry."""
    from repro.simkernel.clock import usecs
    from repro.simkernel.program import Run, Sleep
    from repro.workloads.pipe_bench import run_pipe_benchmark

    session = _wfq_session()
    session.attach_observer(capacity=TRACE_CAPACITY)
    session.attach_telemetry(usecs(interval_us), slos=DEFAULT_SLOS,
                             on_window=on_window)

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
    session.stop()
    return session, result


def cmd_trace(args):
    from repro.obs.telemetry import (build_report, render_report_markdown,
                                     render_top_frame, timeseries_csv)

    show = None
    if args.live:
        clear = sys.stdout.isatty()

        def show(window):
            if clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(render_top_frame(window))
            if not clear:
                print()

    session, result = _observed_pipe_run(
        args.rounds, args.hogs, args.interval_us, on_window=show)
    observer, sampler = session.observer, session.telemetry
    if args.path:
        if args.path.endswith(".json"):
            observer.export_chrome(args.path)
        else:
            observer.export_ftrace(args.path)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(timeseries_csv(list(sampler.windows)))
    if args.live:
        return None, None, 0
    report = build_report(session.kernel, sampler, meta={
        "workload": "pipe+hogs",
        "rounds": args.rounds,
        "hogs": args.hogs,
        "interval_us": args.interval_us,
        "latency_us_per_message": result.latency_us_per_message,
    })
    report["events"] = dict(sorted(observer.summary().items()))
    report["dropped_events"] = observer.dropped
    report["metrics"] = observer.collect().snapshot()
    return report, render_report_markdown(report), 0


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
        plans = {name: FaultPlan.builtin(name).description
                 for name in FaultPlan.builtin_names()}
        return plans, "built-in fault plans:\n" + "\n".join(
            f"  {name:16s} {text}" for name, text in plans.items()), 0
    names = (FaultPlan.builtin_names() if args.plan == "all"
             else [args.plan])
    outcomes = {name: _chaos_run(FaultPlan.builtin(name).with_seed(args.seed),
                                 rounds=args.rounds, hogs=args.hogs)
                for name in names}
    lost_total = sum(o["lost"] for o in outcomes.values())
    violation_total = sum(len(o["violations"]) for o in outcomes.values())
    ok = not lost_total and not violation_total
    payload = {"ok": ok, "seed": args.seed, "lost": lost_total,
               "violations": violation_total, "plans": outcomes}
    rows = [[name, o["fired"], o["panics"], o["failover"], o["findings"],
             o["upgrade"], o["lost"], len(o["violations"]),
             f"{o['latency_us']:.2f}"] for name, o in outcomes.items()]
    table = render_table(
        f"chaos: sched-pipe + {args.hogs} hogs under fault injection "
        f"(seed {args.seed})",
        ["plan", "fired", "panics", "failover", "findings", "upgrade",
         "lost", "sanitize", "us/msg"], rows)
    verdict = ("all plans contained: every task completed, invariants held"
               if ok else f"FAIL: {lost_total} task(s) lost, "
               f"{violation_total} invariant violation(s)")
    return payload, f"{table}\n{verdict}", 0 if ok else 1


def cmd_fuzz(args):
    from repro.verify import (SCHEDULER_NAMES, ArtifactError, fuzz_run,
                              load_artifact, run_episode)

    if args.sched is not None and args.sched not in SCHEDULER_NAMES:
        raise UsageError(f"unknown --sched {args.sched!r}; the fuzz pool: "
                         f"{', '.join(SCHEDULER_NAMES)}")
    if args.repro:
        try:
            spec, _payload = load_artifact(args.repro)
        except ArtifactError as exc:
            raise UsageError(exc) from exc
        result = run_episode(spec)
        lines = [f"replaying reproducer (seed {spec.seed}, "
                 f"{spec.sched}, {len(spec.tasks)} tasks)"]
        lines += [f"  {violation}" for violation in result.violations]
        lines.append("violation reproduced" if not result.ok
                     else "episode passed: the defect is gone")
        # A reproducer that still fails exits 1, same as the fuzz run
        # that produced it — so CI can bisect with the artifact alone.
        return result.to_dict(), "\n".join(lines), 0 if result.ok else 1

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

    payload = report.to_dict()
    payload["artifact"] = artifact
    lines = [f"{args.episodes} episodes (master seed {args.seed}): "
             f"{len(report.failures)} failing, "
             f"{payload['replay_checked']} replay-checked, "
             f"{payload['control_checked']} control-checked, "
             f"{payload['faults_fired']} faults fired"]
    for failure in report.failures[:5]:
        lines.append(f"  seed {failure.spec.seed} ({failure.spec.sched}):")
        lines += [f"    {violation}" for violation in failure.violations[:3]]
    if artifact:
        lines.append(f"shrunk reproducer written to {artifact}")
    lines.append("all invariants held across every episode" if report.ok
                 else "FAIL: invariant violations found")
    return payload, "\n".join(lines), 0 if report.ok else 1


def cmd_bench(args):
    from repro.exp.bench import run_sweep
    from repro.exp.paper import (CATALOGUE, catalogue_specs, report,
                                 results_by_name)

    if args.artefact and args.artefact not in CATALOGUE:
        raise UsageError(f"unknown artefact {args.artefact!r}; the "
                         f"catalogue: {', '.join(CATALOGUE)}")
    names = [args.artefact] if args.artefact else list(CATALOGUE)
    name = args.artefact or "paper"
    payload = run_sweep(catalogue_specs(names), name, workers=args.workers,
                        cache_dir=args.cache_dir, out_dir=args.out_dir,
                        use_cache=not args.no_cache)
    results = results_by_name(payload)
    reports = [report(CATALOGUE[n], results) for n in names]
    status = 0 if all(holds for _, holds in reports) else 1
    meta = payload["meta"]
    rate = meta["sim_ns_per_wall_s"]
    lines = ["\n\n".join(text for text, _ in reports) + "\n",
             f"wall {meta['wall_s']:.2f}s, {meta['cache_hits']} cached / "
             f"{meta['executed']} executed"
             + (f", {rate:,.0f} sim-ns per wall-second" if rate else "")]
    times = meta["cell_wall_s"]
    slowest = sorted(((times[r["spec_hash"]], r["name"])
                      for r in payload["results"]
                      if r["spec_hash"] in times), reverse=True)[:5]
    if slowest:
        lines.append("slowest cells (as last run): " + ", ".join(
            f"{cell} {wall_s:.1f}s" for wall_s, cell in slowest))
    lines.append(f"wrote BENCH_{name}.json")
    if status:
        lines.append("FAIL: a claim of the paper does not hold on this tree")
    return payload, "\n".join(lines), status


def cmd_list(args):
    from repro.exp.paper import CATALOGUE

    experiments = {name: text for name, (_fn, text) in EXPERIMENTS.items()}
    artefacts = {name: entry.title for name, entry in CATALOGUE.items()}
    lines = ["experiments:"]
    lines += [f"  {name:10s} {text}" for name, text in experiments.items()]
    lines.append("paper artefacts (repro bench <artefact>):")
    lines += [f"  {name:16s} {title}" for name, title in artefacts.items()]
    return ({"experiments": experiments, "artefacts": artefacts},
            "\n".join(lines), 0)


EXPERIMENTS = {
    "bench": (cmd_bench, "the paper's tables and figures (all, or one "
                         "named artefact) on the parallel, cached runner; "
                         "exit 1 if a claim fails"),
    "faas": (cmd_faas, "serverless/FaaS trace quick run: CFS vs the "
                       "Enoki serverless scheduler + SLO verdicts"),
    "trace": (cmd_trace, "observe the pipe + hogs episode: one report "
                         "(markdown, --json, --csv, --live frames), "
                         "optionally the event trace"),
    "chaos": (cmd_chaos, "deterministic fault injection: run built-in "
                         "fault plans under containment"),
    "fuzz": (cmd_fuzz, "seeded simulation fuzzing under the invariant "
                       "sanitizers and differential oracles"),
}


def build_parser():
    """The ``repro`` argument parser: every verb and its options."""
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
    p.add_argument("path", nargs="?",
                   help="also write the event trace here: Chrome/Perfetto "
                        "JSON if it ends in .json, ftrace text otherwise")
    p.add_argument("--rounds", type=positive_int, default=500)
    p.add_argument("--hogs", type=non_negative_int, default=12,
                   help="background tasks that force work stealing")
    p.add_argument("--interval-us", type=positive_int, default=1000,
                   help="telemetry window length (simulated microseconds)")
    p.add_argument("--csv", metavar="PATH",
                   help="also export the per-window time series as CSV")
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true",
                     help="the report, event counts and registry snapshot "
                          "as one JSON document")
    out.add_argument("--live", action="store_true",
                     help="print a schedstat frame per telemetry window "
                          "instead of the report")

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
                   help="pin every episode to one scheduler of the fuzz "
                        "pool")
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

    p = sub.add_parser("bench", help=EXPERIMENTS["bench"][1])
    p.add_argument("artefact", nargs="?",
                   help="one artefact of the paper catalogue (see `repro "
                        "list`); default: all of them, written to "
                        "BENCH_paper.json")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="process-pool size; results are identical at "
                        "any worker count")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cache-dir", default=".bench-cache")
    p.add_argument("--no-cache", action="store_true",
                   help="always re-simulate, ignore cached results")
    p.add_argument("--json", action="store_true",
                   help="print the full payload instead of the table")

    return parser


def main(argv=None):
    """Run one verb and print its result once: the payload as JSON under
    ``--json``, else the verb's text (``None`` when it already streamed
    it); returns the verb's exit status, or 2 on a :class:`UsageError`."""
    args = build_parser().parse_args(argv)
    command = args.command or "list"
    verb = cmd_list if command == "list" else EXPERIMENTS[command][0]
    try:
        payload, text, status = verb(args)
    except UsageError as exc:
        print(f"repro {command}: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif text is not None:
        print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
