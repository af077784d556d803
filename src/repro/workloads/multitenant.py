"""Multi-tenant noisy-neighbour workload over hierarchical task groups.

Three tenants share one machine through the kernel's task-group
hierarchy (:mod:`repro.simkernel.groups`):

* **tenant-a** — the paying customer: weight 2048, CPU-bound workers.
* **tenant-b** — the noisy neighbour: weight 1024, CPU-bound spinners
  that would monopolise the machine under a flat scheduler.
* **tenant-c** — the capped batch tenant: a CPU bandwidth quota
  (2 ms / 10 ms by default) throttles it regardless of demand.

Every tenant offers more work than its share, so tenant-c is pinned at
``quota/period`` CPUs under any scheduler (the bandwidth-control
contract).  How a and b split the residual is the scheduler's: native
CFS honours group weights (2:1), while the Enoki policies are per-task
fair and split it by task count.  The result carries per-tenant runtimes
and throttle statistics so tests (and the ``multitenant`` bench
artefact) can assert both.
"""

from dataclasses import dataclass, field

from repro.simkernel.clock import msecs
from repro.simkernel.program import Run

#: the default three-tenant contract described in the module docstring
DEFAULT_TENANTS = (
    {"name": "tenant-a", "weight": 2048, "tasks": 4, "nice": 0},
    {"name": "tenant-b", "weight": 1024, "tasks": 4, "nice": 0},
    {"name": "tenant-c", "weight": 1024, "tasks": 2, "nice": 0,
     "quota_ns": 2_000_000, "period_ns": 10_000_000},
)


@dataclass
class MultitenantResult:
    """Per-tenant outcome of one noisy-neighbour episode."""

    duration_ns: int = 0
    capacity_ns: int = 0                      # nr_cpus * duration
    completed: bool = False                   # kernel drained afterwards
    tenants: dict = field(default_factory=dict)   # name -> metrics dict

    def runtime_ns(self, tenant):
        return self.tenants[tenant]["runtime_ns"]

    def share(self, tenant):
        """Fraction of machine capacity the tenant consumed."""
        if self.capacity_ns == 0:
            return 0.0
        return self.runtime_ns(tenant) / self.capacity_ns


def _ensure_groups(kernel, tenants):
    for tenant in tenants:
        if not kernel.groups.has(tenant["name"]):
            kernel.groups.create(
                tenant["name"],
                weight=tenant.get("weight", 1024),
                quota_ns=tenant.get("quota_ns", 0),
                period_ns=tenant.get("period_ns", 0),
                policy=tenant.get("policy"),
            )


def run_multitenant(kernel, policy, duration_ns=msecs(200), tenants=None,
                    slice_ns=500_000, drain=True):
    """Run the noisy-neighbour episode on an already-configured kernel.

    Each tenant's groups are created on demand (specs that declare the
    groups themselves — e.g. with per-group policies — win).  Every task
    is an open-loop spinner burning ``slice_ns`` chunks until the clock
    passes ``duration_ns``, so demand always exceeds supply and the
    hierarchy alone decides the split.  Metrics are sampled at the
    horizon, *before* the drain, so shares add up to machine capacity.
    """
    tenants = tuple(tenants) if tenants is not None else DEFAULT_TENANTS
    _ensure_groups(kernel, tenants)
    horizon = kernel.now + duration_ns

    def spinner():
        def prog():
            while kernel.now < horizon:
                yield Run(slice_ns)
        return prog

    spawned = {}
    for tenant in tenants:
        name = tenant["name"]
        group = kernel.groups.group(name)
        tenant_policy = group.policy if group.policy is not None else policy
        spawned[name] = [
            kernel.spawn(spinner(), name=f"{name}-{i}",
                         policy=tenant_policy, group=name,
                         nice=tenant.get("nice", 0))
            for i in range(tenant.get("tasks", 2))
        ]

    kernel.run_until(horizon)

    result = MultitenantResult(
        duration_ns=duration_ns,
        capacity_ns=kernel.topology.nr_cpus * duration_ns,
    )
    for tenant in tenants:
        name = tenant["name"]
        group = kernel.groups.group(name)
        result.tenants[name] = {
            "weight": group.weight,
            "quota_ns": group.quota_ns or 0,
            "period_ns": group.period_ns,
            "tasks": len(spawned[name]),
            "runtime_ns": group.total_runtime_ns,
            "throttle_count": group.throttle_count,
            "throttled_ns": group.throttled_ns,
            "periods": group.periods,
            "max_period_consumed_ns": group.max_period_consumed_ns,
        }

    if drain:
        # Spinners observe the horizon at their next slice boundary and
        # exit; throttled stragglers need their next refill to run.  A
        # clean drain doubles as a liveness check on the throttle path.
        kernel.run_until_idle()
        result.completed = all(
            task.state.value == "dead"
            for tasks in spawned.values() for task in tasks)
    return result
