"""Table 2's proportionality claims, pinned in tier 1.

``benchmarks/bench_table2_loc.py`` prints the inventory; the claims it
asserts live in ``benchmarks/table2.py`` and are checked here on every
run, so a policy cannot quietly grow past the CFS it is compared with.
"""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "table2",
    Path(__file__).resolve().parent.parent / "benchmarks" / "table2.py")
table2 = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(table2)


def test_every_inventoried_path_exists():
    for paths in table2.COMPONENTS.values():
        for path in paths:
            assert (table2.ROOT / path).exists(), path


def test_paper_schedulers_with_the_shared_module_stay_below_cfs():
    table2.check_proportions(table2.inventory())
