#!/usr/bin/env python3
"""perfbench runner.

Two ways in:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  is one *child*: a fresh process that measures one workload and prints
  one JSON object as the last line of its standard output (the contract
  BENCHMARK.json is written to).  ``--trace 0`` prints the end-to-end
  metrics, ``--trace 1`` the per-layer ones.
* ``python3 perfbench/run.py [--seed N] [--out FILE] [--smoke] [--only W]``
  is the full run: three rounds, round-robin over the workloads,
  each (round, workload) one child, strictly one at a time.  It prints
  every metric by name with its unit and writes the result JSON that
  ``compare.py`` reads.

A child, in order: calibration loop; ``setup_s`` probes (fresh
interpreters); one untimed warm-up; timed repeats for ``--seconds``, each
after a calibration loop and a ``gc.collect()``; peak RSS; then — after
everything timed — the traced pass under cProfile and, with ``--trace 1``,
the layer drivers.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush
from pathlib import Path

if __package__ in (None, ""):
    # Run as a script: import through the package, not the script's
    # directory (whose ``trace.py`` would shadow the standard library's).
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import OUT_DIR, ROOT, load_benchmark, require_program
from perfbench.layers import LAYERS
from perfbench.trace import Tracer, profile_layers

#: CPU seconds the calibration loop takes on the box this benchmark was
#: defined on, in its fast state.  ``ops_per_s`` and ``setup_s`` are stated
#: in CPU-seconds of that host state: see ``host_speed``.
CALIB_REF_S = 0.0315
CALIB_ITERS = 40_000
MIN_REPEATS = 3
SETUP_PROBES = 5
ROUNDS = 3


class _Cell:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, value):
        self.total += value


def calibrate():
    """CPU seconds of a fixed pure-Python heap/dict/method-call loop —
    the same kind of work as the simulator's hot path, so it slows down
    with it when the host does."""
    cell, table, heap = _Cell(), {}, []
    start = time.process_time()
    for i in range(CALIB_ITERS):
        key = (i * 2_654_435_761) & 4095
        table[key] = i
        heappush(heap, (key, i))
        if len(heap) > 64:
            cell.add(heappop(heap)[0])
        cell.add(table.get((key * 7) & 4095, 0))
    return time.process_time() - start


def fastest_quarter(samples):
    """Mean of the fastest quarter of the samples (at least one).

    Noise on a shared box is one-sided — a neighbour only ever slows a
    run, in steps of 1.3-1.7x that last 5-15 s and in shorter bursts — so
    a run's median mostly says which epoch it fell in, while its fastest
    samples say what the code costs.
    """
    ordered = sorted(samples)
    return statistics.fmean(ordered[:max(1, len(ordered) // 4)])


def host_speed(calib_samples):
    """This run's host speed relative to the reference state (> 1:
    faster).  Multiplying a CPU time by it restates the time in
    CPU-seconds of the reference state, which scales out what is left
    when a whole run sat in a slow epoch."""
    return CALIB_REF_S / fastest_quarter(calib_samples)


# ----------------------------------------------------------------------
# one child
# ----------------------------------------------------------------------

def _script(*args):
    return [sys.executable, str(Path(__file__).resolve()), *map(str, args)]


def probe_setup(name, seed, smoke):
    """``setup_s`` of one fresh interpreter: its CPU seconds from start
    through importing the program and building the first session."""
    cmd = _script("--setup-probe", "--workload", name, "--seed", seed)
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                          timeout=120)
    return float(done.stdout.split()[-1])


def run_once(workload):
    """One repeat: fresh session (untimed), timed body, untimed checks."""
    state = workload.build()
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = workload.body(state)
    cpu_s = time.process_time() - cpu0
    wall_s = time.perf_counter() - wall0
    return cpu_s, wall_s, workload.check(state, result)


def traced_pass(workload):
    """One repeat under cProfile.  -> (outcome, total calls, layer table,
    traced CPU seconds)"""
    state = workload.build()
    gc.collect()
    cpu0 = time.process_time()
    result, calls, table = profile_layers(lambda: workload.body(state))
    traced_s = time.process_time() - cpu0
    return workload.check(state, result), calls, table, traced_s


def timed_repeats(workload, reference, seconds, tracer):
    """Repeat the workload for ``seconds`` (at least MIN_REPEATS times),
    a calibration loop before each.  -> samples and the failure tally"""
    out = {"cpu_s": [], "wall_s": [], "calib_s": [],
           "attempted": 0, "failed": 0, "problems": []}
    deadline = time.perf_counter() + seconds
    while (len(out["cpu_s"]) < MIN_REPEATS
           or time.perf_counter() < deadline):
        with tracer.span(f"repeat[{len(out['cpu_s'])}]"):
            out["calib_s"].append(calibrate())
            cpu_s, wall_s, outcome = run_once(workload)
        out["cpu_s"].append(cpu_s)
        out["wall_s"].append(wall_s)
        out["attempted"] += outcome["ops"]
        out["problems"] += outcome["problems"]
        if (outcome["digest"], outcome["sim"]) == (reference["digest"],
                                                   reference["sim"]):
            out["failed"] += outcome["failed"]
        else:
            out["failed"] += outcome["ops"]
            out["problems"].append("state digest differs between repeats")
    return out


def layer_metrics(table, ops):
    """The traced pass's table as ``<layer>.*`` metrics."""
    self_total = sum(row["self_s"] for row in table.values())
    out = {}
    for layer in LAYERS:
        row = table[layer]
        out[f"{layer}.self_s"] = row["self_s"]
        out[f"{layer}.self_share"] = row["self_s"] / self_total
        out[f"{layer}.calls_per_op"] = row["calls"] / ops
    return out


def run_child(args):
    require_program()
    from perfbench.workloads import WORKLOADS
    declared = load_benchmark()
    smoke = args.smoke
    tracer = Tracer(args.workload)
    with tracer.span("child"):
        host_calib_s = calibrate()
        with tracer.span("setup"):
            setup_samples = [
                probe_setup(args.workload, args.seed, smoke)
                for _ in range(1 if smoke else SETUP_PROBES)]
            workload = WORKLOADS[args.workload](args.seed, smoke)
        with tracer.span("warmup"):
            reference = run_once(workload)[2]
        ops = reference["ops"]
        timed = timed_repeats(workload, reference, args.seconds, tracer)
        problems = reference["problems"] + timed["problems"]
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

        # Everything below runs after the timed section, tracing on.
        with tracer.span("traced_pass"):
            outcome, calls, table, traced_s = traced_pass(workload)
        if outcome["digest"] != reference["digest"]:
            problems.append("state digest differs under the tracer")
        problems += [f"layer {layer} made {table[layer]['calls']} calls"
                     for layer in workload.idle_layers
                     if table[layer]["calls"]]
        speed = host_speed(timed["calib_s"])
        end_to_end = {
            "ops_per_s": ops / (fastest_quarter(timed["cpu_s"]) * speed),
            "calls_per_op": calls / ops,
            "setup_s": fastest_quarter(setup_samples) * speed,
            "peak_rss_mb": peak_rss_mb,
        }
        per_layer = {}
        if args.trace:
            from perfbench import drivers
            per_layer = layer_metrics(table, ops)
            per_layer["trace.overhead_x"] = (
                traced_s / statistics.median(timed["cpu_s"]))
            per_layer.update(drivers.run_all(workload, tracer,
                                             scale=5 if smoke else 1))
            per_layer.update({f"sim.{key}": value for key, value
                              in reference["sim"].items()})
            per_layer["host.calib_s"] = host_calib_s

    attempted, failed = timed["attempted"], timed["failed"]
    if problems and not failed:
        failed = attempted          # a failed whole-run check fails it all
    kind = "per_layer" if args.trace else "end_to_end"
    measured = per_layer if args.trace else end_to_end
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if set(units) != set(measured):
        raise SystemExit("perfbench: measured metrics differ from "
                         "BENCHMARK.json: "
                         + ", ".join(sorted(set(units) ^ set(measured))))
    if args.trace:
        tracer.write(OUT_DIR / f"trace-{args.workload}.json", table)
    if args.detail:
        detail = {
            "workload": args.workload, "seed": args.seed, "smoke": smoke,
            "trace": args.trace, "seconds": args.seconds,
            "size": workload.size, "ops": ops,
            "attempted": attempted, "failed": failed, "problems": problems,
            "digest": reference["digest"], "sim": reference["sim"],
            "host_calib_s": host_calib_s,
            "samples": {"cpu_s": timed["cpu_s"], "wall_s": timed["wall_s"],
                        "calib_s": timed["calib_s"],
                        "setup_s": setup_samples},
            "end_to_end": end_to_end, "per_layer": per_layer,
        }
        Path(args.detail).parent.mkdir(parents=True, exist_ok=True)
        with open(args.detail, "w") as handle:
            json.dump(detail, handle, indent=1)
    for problem in problems[:10]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in measured.items()}}))
    return 0


# ----------------------------------------------------------------------
# the full run
# ----------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _summary(values, unit):
    q1, q3 = _quartiles(values)
    return {"unit": unit, "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "runs": values}


def _git_rev():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def aggregate(name, children, declared):
    """One workload's entry in the result file, from its children's
    detail records (one per round; round 1 carries the per-layer set)."""
    from perfbench.workloads import PIPE_WFQ_PAPER_US, WORKLOADS
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    cls = WORKLOADS[name]
    first = children[0]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    calls = {c["end_to_end"]["calls_per_op"] for c in children}
    exact = (len(calls) == 1
             and all(c["digest"] == first["digest"]
                     and c["sim"] == first["sim"] for c in children))
    end_to_end = {
        metric: _summary([c["end_to_end"][metric] for c in children],
                         units[metric])
        for metric in ("ops_per_s", "calls_per_op", "setup_s",
                       "peak_rss_mb")}
    end_to_end["fail_share"] = {
        "unit": "share", "value": failed / attempted,
        "attempted": attempted, "failed": failed}
    if cls.validated:
        end_to_end["sim_err_pct"] = {
            "unit": "%", "reference": PIPE_WFQ_PAPER_US,
            "value": abs(first["sim"]["headline"] - PIPE_WFQ_PAPER_US)
            / PIPE_WFQ_PAPER_US * 100}
    cpu = [s for c in children for s in c["samples"]["cpu_s"]]
    return {
        "why": cls.why, "op": cls.op, "size": first["size"],
        "ops_per_repeat": first["ops"], "validated": cls.validated,
        "headline_unit": cls.headline_unit,
        "exact_across_rounds": exact,
        "problems": sorted({p for c in children for p in c["problems"]}),
        "end_to_end": end_to_end,
        "raw_ops_per_s": _summary([first["ops"] / s for s in cpu], "1/s"),
        "per_layer": first["per_layer"],
        "sim": first["sim"], "state_digest": first["digest"],
    }


def print_result(result, declared):
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, entry in result["workloads"].items():
        print(f"\n== {name}: {entry['op']}, size {entry['size']}")
        for metric, m in entry["end_to_end"].items():
            if "median" in m:
                print(f"  {metric:<24s} {m['median']:>14.6g} {m['unit']:<8s}"
                      f" q1 {m['q1']:.6g} q3 {m['q3']:.6g} n {m['n']}")
            else:
                print(f"  {metric:<24s} {m['value']:>14.6g} {m['unit']}")
        if not entry["validated"]:
            print("  sim_err_pct              (unvalidated: no reference)")
        for metric, value in entry["per_layer"].items():
            unit = (entry["headline_unit"] if metric == "sim.headline"
                    else layer_units[metric])
            print(f"  {metric:<32s} {value:>14.6g} {unit}")
        print(f"  state_digest {entry['state_digest']}")
        for problem in entry["problems"]:
            print(f"  PROBLEM: {problem}")


def run_all(args):
    require_program()
    declared = load_benchmark()
    names = [args.only] if args.only else [w["name"]
                                           for w in declared["workloads"]]
    rounds = 1 if args.smoke else ROUNDS
    seconds = args.seconds
    details = {name: [] for name in names}
    for round_no in range(rounds):
        for name in names:
            detail = OUT_DIR / f"child-{name}-round{round_no}.json"
            cmd = _script("--workload", name, "--seed", args.seed,
                          "--seconds", seconds, "--detail", detail,
                          "--trace", 1 if round_no == 0 else 0)
            if args.smoke:
                cmd.append("--smoke")
            print(f"round {round_no + 1}/{rounds}: {name}", file=sys.stderr)
            # One child at a time: the simulator is single-threaded and
            # a second busy process would only add noise.
            subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                           timeout=600)
            with open(detail) as handle:
                details[name].append(json.load(handle))
    result = {
        "meta": {
            "smoke": args.smoke, "seed": args.seed, "rounds": rounds,
            "seconds": seconds, "python": platform.python_version(),
            "nproc": os.cpu_count(), "git_rev": _git_rev(),
            "calib_ref_s": CALIB_REF_S,
            "host.calib_s": [c["host_calib_s"] for name in names
                             for c in details[name]],
        },
        "workloads": {name: aggregate(name, details[name], declared)
                      for name in names},
    }
    print_result(result, declared)
    out = Path(args.out) if args.out else OUT_DIR / "result.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nwrote {out}")
    bad = [name for name, entry in result["workloads"].items()
           if entry["end_to_end"]["fail_share"]["value"]
           or entry["problems"] or not entry["exact_across_rounds"]]
    if bad:
        print("INCORRECT: " + ", ".join(bad))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one child on this workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="timed section of a child "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", help="child: also write the full "
                                         "record (samples, sim, both "
                                         "metric sets) here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/5 size, one round")
    parser.add_argument("--only", help="full run: this workload only")
    parser.add_argument("--out", help="full run: result file "
                                      "(default perfbench/out/result.json)")
    args = parser.parse_args(argv)
    if args.setup_probe:
        require_program()
        from perfbench.workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed, args.smoke).first_session()
        print(repr(time.process_time()))
        return 0
    if args.seconds is None:
        args.seconds = (0.5 if args.smoke
                        else load_benchmark()["run_seconds"])
    return run_child(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
