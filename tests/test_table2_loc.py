"""Table 2's proportionality claims, pinned in tier 1.

``repro bench table2`` prints the inventory; its claims are checked here
on every run, so a policy cannot quietly grow past the CFS it is
compared with.
"""

from repro.exp.paper import Table2


def test_every_inventoried_path_exists():
    for paths in Table2.COMPONENTS.values():
        for path in paths:
            assert (Table2.ROOT / path).exists(), path


def test_paper_schedulers_with_the_shared_module_stay_below_cfs():
    failed = [claim for claim, holds in Table2().claims({}) if not holds]
    assert not failed
