#!/usr/bin/env python3
"""Compare two perfbench result files, A (parent) against B (change).

    python3 perfbench/compare.py A.json B.json

One row per workload x end-to-end metric with both medians, quartiles,
the bound from BENCHMARK.json and a verdict:

* ``better`` / ``worse`` — B's median differs from A's by more than the
  runs' own spread (better) or by more than the bound (worse);
* ``same`` — within the bound;
* ``unresolved`` — the spread between runs is wider than the bound and the
  two sets of runs overlap, so the data cannot tell.

``calls_per_op``, ``fail_share``, ``sim_err_pct``, every ``sim.*`` value
and the state digest are exact: their rows say ``identical`` or show the
change, and any increase of the first three beyond its bound is ``worse``.
Exit code 1 when any row is ``worse``, 2 when the files cannot be compared.
"""

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import load_benchmark

#: "any increase is worse" metrics of the result file that BENCHMARK.json
#: cannot declare (they are 0 or absent on most workloads)
ANY_INCREASE = ("fail_share", "sim_err_pct")


def timed_verdict(a, b, better, bound):
    """Verdict for a metric with run-to-run noise; ``a`` and ``b`` are
    result-file summaries (median, q1, q3, runs)."""
    sign = 1 if better == "higher" else -1
    gain = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    a_runs = [sign * run for run in a["runs"]]
    b_runs = [sign * run for run in b["runs"]]
    if spread > bound:
        if min(b_runs) > max(a_runs):
            return "better"
        if max(b_runs) < min(a_runs) and gain < -bound:
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > spread else "same"


def exact_verdict(a, b, bound):
    """Verdict for a lower-is-better value that repeats exactly."""
    if a == b:
        return "identical"
    if b < a:
        return "better"
    return "worse" if b - a > bound * a else "same"


def compare(result_a, result_b, declared):
    """-> list of (workload, metric, a text, b text, bound text, verdict)"""
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    rows = []
    for name, a in result_a["workloads"].items():
        b = result_b["workloads"][name]
        for metric, spec in bounds.items():
            ma, mb = a["end_to_end"][metric], b["end_to_end"][metric]
            if metric == "calls_per_op":
                verdict = exact_verdict(ma["median"], mb["median"],
                                        spec["bound"])
            else:
                verdict = timed_verdict(ma, mb, spec["better"],
                                        spec["bound"])
            rows.append((name, metric,
                         *(f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"
                           for m in (ma, mb)),
                         f"{spec['bound']:.0%}", verdict))
        for metric in ANY_INCREASE:
            if metric in a["end_to_end"] or metric in b["end_to_end"]:
                va = a["end_to_end"].get(metric, {}).get("value")
                vb = b["end_to_end"].get(metric, {}).get("value")
                verdict = ("differs" if None in (va, vb)
                           else exact_verdict(va, vb, 0.0))
                rows.append((name, metric, f"{va}", f"{vb}", "any",
                             verdict))
        for key in sorted(set(a["sim"]) | set(b["sim"])):
            va, vb = a["sim"].get(key), b["sim"].get(key)
            rows.append((name, f"sim.{key}", f"{va}", f"{vb}", "exact",
                         "identical" if va == vb else "differs"))
        for metric in a["per_layer"]:
            # the per-layer call counts are exact too; shown when they move
            va, vb = a["per_layer"][metric], b["per_layer"].get(metric)
            if metric.endswith(".calls_per_op") and va != vb:
                rows.append((name, metric, f"{va:.6g}", f"{vb:.6g}",
                             "exact", "differs"))
        rows.append((name, "state_digest", a["state_digest"][:12],
                     b["state_digest"][:12], "exact",
                     "identical" if a["state_digest"] == b["state_digest"]
                     else "differs"))
    return rows


def refusal(result_a, result_b):
    """Why the two files cannot be compared, or None."""
    meta_a, meta_b = result_a["meta"], result_b["meta"]
    if meta_a["smoke"] != meta_b["smoke"]:
        return "one file is a --smoke run and the other is not"
    if set(result_a["workloads"]) != set(result_b["workloads"]):
        return "the files hold different workloads"
    for name, a in result_a["workloads"].items():
        if a["size"] != result_b["workloads"][name]["size"]:
            return f"{name} ran at different sizes"
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as handle:
            results.append(json.load(handle))
    why = refusal(*results)
    if why:
        print(f"compare: refusing: {why}", file=sys.stderr)
        return 2
    if results[0]["meta"]["seed"] != results[1]["meta"]["seed"]:
        print("compare: the seeds differ, so exact rows will too",
              file=sys.stderr)
    rows = compare(*results, load_benchmark())
    widths = [max(len(row[i]) for row in rows) for i in range(6)]
    for row in rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    tally = {}
    for row in rows:
        tally[row[5]] = tally.get(row[5], 0) + 1
    print("\n" + ", ".join(f"{count} {verdict}"
                           for verdict, count in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
