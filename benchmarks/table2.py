"""The Table 2 inventory and its proportionality claims.

Kept apart from ``bench_table2_loc.py`` (which needs pytest-benchmark) so
that ``tests/test_table2_loc.py`` can hold the same claims in tier 1.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

ENOKI_C = "Enoki-C equivalent (core/enoki_c.py)"
LIBENOKI = "Scheduler libEnoki (core: trait, messages, tokens, locks)"
SHARED = "Shared policy module (token queue + base class)"

COMPONENTS = {
    ENOKI_C: ["core/enoki_c.py"],
    LIBENOKI: [
        "core/trait.py", "core/messages.py", "core/schedulable.py",
        "core/libenoki.py", "core/rwlock.py", "core/hints.py",
        "core/upgrade.py",
    ],
    "Record + replay": ["core/record.py", "core/replay.py"],
    "Kernel substrate (simkernel)": ["simkernel"],
    "CFS baseline": ["schedulers/cfs.py"],
    SHARED: ["schedulers/base.py"],
    "Enoki FIFO": ["schedulers/fifo.py"],
    "Enoki WFQ": ["schedulers/wfq.py"],
    "Enoki EEVDF (extends WFQ)": ["schedulers/eevdf.py"],
    "Enoki Nest (extends WFQ)": ["schedulers/nest.py"],
    "Enoki Shinjuku": ["schedulers/shinjuku.py"],
    "Enoki locality (extends FIFO)": ["schedulers/locality.py"],
    "Enoki serverless": ["schedulers/serverless.py"],
    "Enoki core arbiter": ["schedulers/arachne.py"],
    "ghOSt model": ["schedulers/ghost.py"],
    "Arachne runtime": ["arachne_rt"],
    "Workloads": ["workloads"],
}

#: the paper's four schedulers -> every policy file that makes one up
PAPER_SCHEDULERS = {
    "Enoki WFQ": ("Enoki WFQ",),
    "Enoki Shinjuku": ("Enoki Shinjuku",),
    "Enoki locality": ("Enoki locality (extends FIFO)", "Enoki FIFO"),
    "Enoki core arbiter": ("Enoki core arbiter",),
}


def count_loc(path):
    """Non-blank, non-comment lines of one file or package."""
    full = ROOT / path
    files = [full] if full.is_file() else sorted(full.rglob("*.py"))
    total = 0
    for file in files:
        for line in file.read_text().splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("#"):
                total += 1
    return total


def inventory():
    return {name: sum(count_loc(p) for p in paths)
            for name, paths in COMPONENTS.items()}


def check_proportions(counts):
    """The paper's claims: every Enoki scheduler — counted with the whole
    shared module it stands on — is smaller than the CFS it competes
    with, and the framework dwarfs any single policy."""
    cfs = counts["CFS baseline"]
    for sched, parts in PAPER_SCHEDULERS.items():
        whole = counts[SHARED] + sum(counts[part] for part in parts)
        assert whole < cfs, (sched, whole, cfs)
    assert counts["Enoki Shinjuku"] < counts["Enoki WFQ"]
    framework = counts[ENOKI_C] + counts[LIBENOKI]
    policies = [name for name in counts if name.startswith("Enoki ")]
    assert all(counts[name] * 4 < framework for name in policies)
