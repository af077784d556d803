"""Table 2 analogue: lines of code of the reproduction's components.

The paper reports Enoki-C at 2411 lines of C, scheduler libEnoki at 962
lines of Rust, etc.  We report the equivalent inventory for this
reproduction so the relative sizes (framework vs schedulers vs substrate)
can be compared; the paper's headline LoC claims about *schedulers* —
WFQ 646, Shinjuku 285, locality 203, arbiter 579, vs CFS's 6247 —
translate here into each Enoki scheduler being a small fraction of the
framework + substrate it rides on.
"""

from bench_common import print_table
from conftest import run_once
from table2 import check_proportions, inventory


def test_table2_loc(benchmark):
    counts = run_once(benchmark, inventory)
    rows = [[name, loc] for name, loc in counts.items()]
    print_table(
        "Table 2 analogue — lines of code by component",
        ["component", "LoC"], rows,
        paper_note="paper: Enoki-C 2411 C, sched libEnoki 962 Rust; "
                   "schedulers: WFQ 646, Shinjuku 285, locality 203, "
                   "arbiter 579 — each far below CFS's 6247",
    )
    check_proportions(counts)
