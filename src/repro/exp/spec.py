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
from dataclasses import dataclass, field, fields, replace

from repro.simkernel.errors import SimError
from repro.simkernel.topology import Topology


def canonical_fault_plan(plan):
    """Normalise a fault plan to its canonical dict form (or None).

    The bench cache keys on :meth:`ScenarioSpec.spec_hash`, so every
    field that changes behaviour must hash stably.  Fault plans are the
    dangerous one: the same plan can be spelled as a ``FaultPlan``
    object, a full dict, or a sparse dict relying on ``FaultSpec``
    defaults — and a chaos/cluster run must never collide with (or
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
        g = dict(g)
        name = g.pop("name", "")
        if not name:
            raise SimError("group definition needs a name")
        entry = {
            "name": str(name),
            "parent": str(g.pop("parent", "root")),
            "weight": int(g.pop("weight", 1024)),
            "quota_ns": int(g.pop("quota_ns", 0)),
            "period_ns": int(g.pop("period_ns", 0)),
            "policy": g.pop("policy", None),
        }
        if entry["policy"] is not None:
            entry["policy"] = int(entry["policy"])
        if g:
            raise SimError(f"unknown group fields {sorted(g)} for {name!r}")
        out.append(entry)
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


def spec_kwargs(cls, data):
    """``data`` as keyword arguments for the spec dataclass ``cls`` (a
    ``slos`` list becomes a tuple); raises :class:`SimError` naming any
    key that is not a field."""
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise SimError(f"unknown {cls.__name__} field(s): "
                       + ", ".join(sorted(map(repr, unknown))))
    known = dict(data)
    if "slos" in data:
        known["slos"] = tuple(dict(s) for s in data["slos"])
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
        known = spec_kwargs(cls, data)
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

    def build_topology(self):
        return parse_topology(self.topology)


# ----------------------------------------------------------------------
# cluster scenarios
# ----------------------------------------------------------------------

#: defaults for ClusterSpec.requests — open-loop arrivals in cluster time
DEFAULT_REQUESTS = {
    "count": 400,               # total admitted over the episode
    "work_ns": 200_000,         # mean per-request CPU demand
    "work_jitter": 0.5,         # +/- fraction of work_ns (seeded)
    "arrival_rounds": 80,       # arrivals spread over the first N rounds
}

#: defaults for ClusterSpec.router — see repro.cluster.router
DEFAULT_ROUTER = {
    "timeout_ns": 4_000_000,    # per-attempt deadline
    "deadline_ns": 40_000_000,  # per-request deadline while queued
    "max_attempts": 4,          # bounded retries (first try included)
    "backoff_ns": 500_000,      # retry backoff base (exponential)
    "backoff_jitter": 0.25,     # +/- fraction of the backoff (seeded)
    "hedge_ns": 0,              # 0 = hedged requests off
    "max_pending": 256,         # admission queue bound -> load shedding
}

#: defaults for ClusterSpec.health — see repro.cluster.health
DEFAULT_HEALTH = {
    "window_rounds": 4,         # strike accounting window
    "evict_strikes": 2,         # strikes within a window -> eviction
    "readmit_rounds": 6,        # clean probation rounds -> re-admission
    "timeout_strikes": 3,       # attempt timeouts in one round -> strike
}


@dataclass(frozen=True)
class ClusterSpec:
    """A fully-described simulated fleet: N machines behind a router.

    Each machine is an independent :class:`ScenarioSpec`-shaped kernel
    (same template, derived seed); the fleet parameters (router, health,
    upgrade, request load) ride in ``workload_options`` of the scenario
    produced by :meth:`to_scenario_spec`, so the bench cache key covers
    every knob that changes fleet behaviour.
    """

    name: str = "cluster"
    machines: int = 4
    topology: str = "smp:4"     # per-machine topology template
    seed: int = 0
    sched: str = "wfq"
    base_sched: str = "cfs"
    policy: int = 7
    round_ns: int = 1_000_000   # cluster scheduling quantum
    max_rounds: int = 400       # hard episode bound (drain included)
    requests: dict = field(default_factory=dict)
    router: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    fault_plan: dict = None     # FaultPlan.to_dict(), may target machines
    upgrade: dict = None        # rolling-upgrade plan (repro.cluster.rolling)
    telemetry_ns: int = 0       # per-machine sampler; 0 = one window/round
    slos: tuple = ()            # per-machine SLOTarget dicts

    def __post_init__(self):
        if self.machines < 1:
            raise SimError(f"cluster needs >= 1 machine: {self.machines}")
        if self.round_ns <= 0:
            raise SimError(f"non-positive round_ns: {self.round_ns}")

    def request_config(self):
        return {**DEFAULT_REQUESTS, **self.requests}

    def router_config(self):
        return {**DEFAULT_ROUTER, **self.router}

    def health_config(self):
        return {**DEFAULT_HEALTH, **self.health}

    def to_dict(self):
        out = {
            "name": self.name,
            "machines": self.machines,
            "topology": self.topology,
            "seed": self.seed,
            "sched": self.sched,
            "base_sched": self.base_sched,
            "policy": self.policy,
            "round_ns": self.round_ns,
            "max_rounds": self.max_rounds,
            "requests": dict(self.requests),
            "router": dict(self.router),
            "health": dict(self.health),
            "fault_plan": canonical_fault_plan(self.fault_plan),
            "upgrade": dict(self.upgrade) if self.upgrade else None,
        }
        if self.telemetry_ns:
            out["telemetry_ns"] = self.telemetry_ns
        if self.slos:
            out["slos"] = [dict(s) for s in self.slos]
        return out

    @classmethod
    def from_dict(cls, data):
        return cls(**spec_kwargs(cls, data))

    def with_seed(self, seed):
        return replace(self, seed=seed)

    def to_scenario_spec(self):
        """The bench-facing ScenarioSpec: ``workload="cluster"`` with
        every fleet parameter inside ``workload_options`` — all of it
        feeds :meth:`ScenarioSpec.spec_hash`, so cluster runs can never
        collide with single-machine (or differently-configured fleet)
        cache entries."""
        return ScenarioSpec(
            name=self.name,
            topology=self.topology,
            seed=self.seed,
            sched=self.sched,
            base_sched=self.base_sched,
            policy=self.policy,
            workload="cluster",
            workload_options={
                "machines": self.machines,
                "round_ns": self.round_ns,
                "max_rounds": self.max_rounds,
                "requests": dict(self.requests),
                "router": dict(self.router),
                "health": dict(self.health),
                "upgrade": dict(self.upgrade) if self.upgrade else None,
            },
            fault_plan=canonical_fault_plan(self.fault_plan),
            telemetry_ns=self.telemetry_ns,
            slos=self.slos,
        )

    @classmethod
    def from_scenario_spec(cls, spec):
        """Inverse of :meth:`to_scenario_spec` (bench worker entry)."""
        opts = dict(spec.workload_options)
        return cls(
            name=spec.name or "cluster",
            machines=opts.get("machines", 4),
            topology=spec.topology,
            seed=spec.seed,
            sched=spec.sched,
            base_sched=spec.base_sched,
            policy=spec.policy,
            round_ns=opts.get("round_ns", 1_000_000),
            max_rounds=opts.get("max_rounds", 400),
            requests=opts.get("requests") or {},
            router=opts.get("router") or {},
            health=opts.get("health") or {},
            fault_plan=spec.fault_plan,
            upgrade=opts.get("upgrade"),
            telemetry_ns=spec.telemetry_ns,
            slos=spec.slos,
        )

    def machine_scenario(self, index):
        """The ScenarioSpec for machine ``index``: the fleet template
        with a deterministically derived seed and this machine's slice
        of the fault plan (dispatch-level faults only — whole-machine
        faults are executed by the fleet, not the injector)."""
        from repro.core.faults import FaultPlan
        from repro.exp.bench import derive_seed
        machine_plan = None
        if self.fault_plan is not None:
            plan = FaultPlan.from_dict(canonical_fault_plan(self.fault_plan))
            sub = plan.for_machine(index)
            if sub is not None:
                machine_plan = sub.to_dict()
        return ScenarioSpec(
            name=f"{self.name}/m{index}",
            topology=self.topology,
            seed=derive_seed(self.seed, index),
            sched=self.sched,
            base_sched=self.base_sched,
            policy=self.policy,
            workload="cluster-machine",
            fault_plan=machine_plan,
            telemetry_ns=(self.telemetry_ns if self.telemetry_ns
                          else self.round_ns),
            slos=(self.slos if self.slos else DEFAULT_MACHINE_SLOS),
        )

    def spec_hash(self):
        return self.to_scenario_spec().spec_hash()


#: default per-machine SLOs feeding fleet health when the spec gives none
DEFAULT_MACHINE_SLOS = (
    {"name": "wakeup-p99", "metric": "wakeup_p99_ns", "max": 20_000_000},
)
