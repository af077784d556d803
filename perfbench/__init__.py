"""perfbench: the repo's performance benchmark (see README.md here and
BENCHMARK.json at the root)."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def require_program():
    """Put the program under test on ``sys.path``; exit non-zero when the
    checkout does not hold it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program under test at {src}/repro")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def load_benchmark():
    """BENCHMARK.json: the declared workloads, metric names, units and
    bounds — the one place they are written down."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)
