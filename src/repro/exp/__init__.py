"""``repro.exp``: the experiment session layer.

Everything above the simulated kernel builds machines through this
package: a :class:`ScenarioSpec` describes a run as data, a
:class:`KernelBuilder` assembles the kernel + scheduler stack, and the
resulting :class:`Session` carries the handles (shim, policy, fresh
scheduler factory) that the CLI, benchmark runner, fuzzer, and tests
need.  :mod:`repro.exp.bench` shards specs across a process pool and
caches results by spec hash + git revision.
"""

from repro.exp.builder import (SCHEDULERS, KernelBuilder, Session,
                               enoki_scheduler_names)
from repro.exp.spec import (ScenarioSpec, canonical_fault_plan,
                            parse_topology)

__all__ = [
    "SCHEDULERS",
    "KernelBuilder",
    "ScenarioSpec",
    "Session",
    "canonical_fault_plan",
    "enoki_scheduler_names",
    "parse_topology",
]
