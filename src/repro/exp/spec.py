"""Declarative experiment scenarios: everything a run needs, as data.

A :class:`ScenarioSpec` captures one complete simulated-machine
configuration — topology, cost-model overrides, seed, scheduler stack,
workload, fault plan, upgrade plan — as a JSON-serialisable value.  Specs
are the currency of the ``repro.exp`` layer: the
:class:`~repro.exp.builder.KernelBuilder` turns one into a live kernel
session, and the sharded benchmark runner (:mod:`repro.exp.bench`) keys
its result cache on :meth:`ScenarioSpec.spec_hash`, so identical scenarios
are never simulated twice for the same tree.
"""

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro import dataclass_kwargs
from repro.simkernel.config import SimConfig
from repro.simkernel.errors import SimError
from repro.simkernel.topology import Topology


@dataclass(frozen=True)
class GroupSpec:
    """One task-group definition of a spec's ``groups`` forest."""

    name: str
    parent: str = "root"
    weight: int = 1024
    quota_ns: int = 0
    period_ns: int = 0
    policy: int = None          # None = inherit the parent's


@dataclass(frozen=True)
class SLOSpec:
    """One entry of a spec's ``slos``: an ``obs.SLOTarget``'s fields."""

    name: str
    metric: str
    max: float = None
    min: float = None


def canonical_fault_plan(plan):
    """Normalise a fault plan to its canonical dict form (or None).

    The bench cache keys on :meth:`ScenarioSpec.spec_hash`, so every
    field that changes behaviour must hash stably.  Fault plans are the
    dangerous one: the same plan can be spelled as a ``FaultPlan``
    object, a full dict, or a sparse dict relying on ``FaultSpec``
    defaults — and a chaos run must never collide with (or
    spuriously miss) a clean run's cache entry.  Round-tripping through
    ``FaultPlan.from_dict`` validates the plan and fills every default,
    so equal-meaning plans hash identically and faulted specs always
    hash apart from clean ones.
    """
    if plan is None:
        return None
    from repro.core.faults import FaultPlan
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    return plan.to_dict()


def canonical_groups(groups):
    """Normalise a task-group forest to its canonical tuple-of-dicts form.

    Group definitions ride in specs as sparse dicts (``{"name": "t0",
    "quota_ns": 2_000_000}``); the bench cache keys on the spec hash, so
    equal-meaning definitions must hash identically.  Every default is
    filled in here and the declaration order is preserved (parents must
    be declared before children — :class:`~repro.simkernel.groups
    .GroupManager` enforces that at build time).
    """
    if not groups:
        return ()
    out = []
    for g in groups:
        group = GroupSpec(**dataclass_kwargs(GroupSpec, g, SimError))
        if not group.name:
            raise SimError("group definition needs a name")
        out.append(dict(vars(group)))
    return tuple(out)


def parse_topology(desc):
    """Build a :class:`Topology` from its compact string form.

    ``"small8"`` / ``"big80"`` name the paper's two testbeds;
    ``"smp:N[:sockets[:smt]]"`` builds a symmetric machine, e.g.
    ``"smp:8:2:2"`` is 8 logical CPUs over 2 sockets with SMT.
    """
    if isinstance(desc, Topology):
        return desc
    if desc == "small8":
        return Topology.small8()
    if desc == "big80":
        return Topology.big80()
    if isinstance(desc, str) and desc.startswith("smp:"):
        parts = desc.split(":")[1:]
        if (not 1 <= len(parts) <= 3
                or not all(p.isdecimal() and int(p) > 0 for p in parts)):
            raise SimError(f"bad topology spec {desc!r}")
        nums = [int(p) for p in parts]
        nr_cpus = nums[0]
        sockets = nums[1] if len(nums) > 1 else 1
        smt = nums[2] if len(nums) > 2 else 1
        return Topology.smp(nr_cpus, sockets=sockets, smt=smt)
    raise SimError(f"unknown topology spec {desc!r}")


def _slo_entry(slo):
    entry = dataclass_kwargs(SLOSpec, slo, SimError)
    if entry.get("max") is None and entry.get("min") is None:
        raise SimError(f"SLO {entry['name']!r} needs a 'max' or 'min' bound")
    return entry


def spec_kwargs(cls, data):
    """``data`` as keyword arguments for the spec dataclass ``cls`` (a
    ``slos`` list becomes a tuple of checked entries); raises
    :class:`SimError` naming any key that is not a field, or whose value
    has the wrong type."""
    known = dataclass_kwargs(cls, data, SimError)
    if "slos" in data:
        known["slos"] = tuple(_slo_entry(s) for s in data["slos"])
    return known


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described experiment scenario.

    Every field is plain data so the spec round-trips through JSON
    (:meth:`to_dict` / :meth:`from_dict`) and hashes stably
    (:meth:`spec_hash`).  ``seed`` feeds the kernel's deterministic jitter
    RNG (``SimConfig.seed``); two runs of the same spec are bit-identical.
    """

    name: str = ""
    topology: str = "small8"
    seed: int = 0
    config: dict = field(default_factory=dict)      # SimConfig overrides
    sched: str = "cfs"                              # scheduler under test
    sched_options: dict = field(default_factory=dict)
    base_sched: str = "cfs"                         # native default class
    policy: int = 7                                 # Enoki policy number
    workload: str = "pipe"
    workload_options: dict = field(default_factory=dict)
    fault_plan: dict = None                         # FaultPlan.to_dict()
    upgrade_at_ns: int = 0                          # 0 = no live upgrade
    record: bool = False                            # run under a Recorder
    telemetry_ns: int = 0                           # 0 = no sampler
    slos: tuple = ()                                # SLOTarget.to_dict()s
    groups: tuple = ()                              # task-group forest

    def to_dict(self):
        out = {
            "name": self.name,
            "topology": self.topology,
            "seed": self.seed,
            "config": dict(self.config),
            "sched": self.sched,
            "sched_options": dict(self.sched_options),
            "base_sched": self.base_sched,
            "policy": self.policy,
            "workload": self.workload,
            "workload_options": dict(self.workload_options),
            "fault_plan": canonical_fault_plan(self.fault_plan),
            "upgrade_at_ns": self.upgrade_at_ns,
            "record": self.record,
        }
        # Telemetry and group fields are emitted only when set so
        # pre-existing spec hashes (the bench cache key) are unchanged
        # by their addition.
        if self.telemetry_ns:
            out["telemetry_ns"] = self.telemetry_ns
        if self.slos:
            out["slos"] = [dict(s) for s in self.slos]
        if self.groups:
            out["groups"] = [dict(g) for g in canonical_groups(self.groups)]
        return out

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; raises :class:`SimError` naming a
        key of the spec, its ``config``, a group or an SLO that is
        unknown or has the wrong type."""
        known = spec_kwargs(cls, data)
        if "config" in data:
            dataclass_kwargs(SimConfig, data["config"], SimError)
        if "groups" in data:
            known["groups"] = canonical_groups(data["groups"])
        return cls(**known)

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def canonical_json(self):
        """The spec as minified JSON with sorted keys — the hash input."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def spec_hash(self):
        """Stable content hash; the bench runner's cache key component."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()
