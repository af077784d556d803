#!/usr/bin/env python3
"""Catch, shrink, and bottle a framework bug with ``repro.verify``.

The chaos suite (``examples/debugging_tools.py``) shows the framework
surviving *planted* faults.  This walkthrough is the other direction:
hunting for bugs nobody planted, with the verification subsystem.

1. **Sanitize** — attach the `SanitizerSuite` to a live kernel and watch
   a clean run produce zero violations, then flip the test-only
   token-misuse flag and watch the token sanitizer catch it.
2. **Fuzz** — expand integer seeds into whole episodes (workload mix,
   scheduler, live upgrades, fault plans) and run them under the
   sanitizers plus the replay and differential oracles.
3. **Shrink** — minimise the failing episode to a tiny reproducer and
   write it to disk, ready for ``python -m repro fuzz --repro <file>``.

Run:  python examples/fuzz_and_shrink.py
"""

import os
import tempfile
from dataclasses import replace

from repro.exp import KernelBuilder
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.verify import (SanitizerSuite, fuzz_run, generate_episode,
                          load_artifact, run_episode, shrink_episode,
                          write_artifact)

POLICY = 7


def part1_sanitizers():
    print("=== 1. sanitizers on a live kernel ===")

    def build():
        session = (KernelBuilder("smp:2").with_native("cfs")
                   .with_enoki("fifo", policy=POLICY).build())
        return session.kernel, session.shim

    def spin():
        for _ in range(3):
            yield Run(usecs(200))
            yield Sleep(usecs(50))

    # A clean run: every dispatch consumes a token, every task is
    # conserved, every ring balances.
    kernel, _shim = build()
    suite = SanitizerSuite.attach(kernel)
    for i in range(4):
        kernel.spawn(spin, policy=POLICY, origin_cpu=i % 2)
    kernel.run_until_idle()
    suite.check()
    print(f"clean run: {suite.events_seen} events audited, "
          f"{len(suite.violations)} violations")

    # Now the planted defect: Enoki-C "forgets" to consume the
    # Schedulable at pick time — the linear-token discipline the paper
    # gets from Rust's move semantics, violated on purpose.
    kernel, shim = build()
    suite = SanitizerSuite.attach(kernel)
    shim._test_skip_token_consume = True
    kernel.spawn(spin, policy=POLICY)
    kernel.run_until_idle()
    print(f"planted token bug: {len(suite.violations)} violations, "
          f"first:\n  {suite.violations[0]}")


def part2_fuzz():
    print("\n=== 2. seeded episode fuzzing ===")
    # One integer is a whole test case.  Same seed, same episode.
    spec = generate_episode(1234)
    print(f"seed 1234 -> {spec.sched} on {spec.nr_cpus} cpus, "
          f"{len(spec.tasks)} tasks, "
          f"upgrade={'yes' if spec.upgrade_at_ns else 'no'}, "
          f"plan={spec.plan['name'] if spec.plan else 'none'}")

    report = fuzz_run(10, seed=1)
    replayed = sum(1 for r in report.results if r.replay_checked)
    print(f"10 episodes from master seed 1: "
          f"{'all clean' if report.ok else 'FAILURES'} "
          f"({replayed} replay-checked, all control-checked)")
    return report


def part3_shrink():
    print("\n=== 3. shrinking a failing seed ===")
    # Arm the planted bug on a meaty generated episode and let the
    # shrinker grind it down.
    spec = replace(generate_episode(4242, sched="wfq"),
                   bug="skip_consume", plan=None, upgrade_at_ns=0)
    original = run_episode(spec)
    print(f"original failing episode: {original.events_seen} events, "
          f"{len(original.violations)} violations")

    result = shrink_episode(spec, original)
    print(f"shrunk after {result.attempts} attempts: "
          f"{result.original_events} -> {result.shrunk_events} events "
          f"({result.reduction:.0%} of original), "
          f"{len(result.shrunk.tasks)} task(s) left")

    path = os.path.join(tempfile.mkdtemp(prefix="repro_verify_"),
                        "reproducer.json")
    write_artifact(path, result)
    loaded, payload = load_artifact(path)
    rerun = run_episode(loaded)
    print(f"artifact {path}\n  replays to "
          f"{len(rerun.violations)} violation(s) — "
          f"repro: {payload['repro_command']}")


def main():
    part1_sanitizers()
    part2_fuzz()
    part3_shrink()


if __name__ == "__main__":
    main()
