"""Hierarchical task groups with CPU bandwidth control.

The contract under test (mirrors CFS group scheduling + bandwidth
control): per-period consumption of a quota'd group never exceeds the
quota beyond tick-granularity slack, uncapped tenants split the residual
by weight under CFS, throttling parks tasks without losing them — even
composed with live upgrades and scheduler failover — and the whole
feature is invisible to flat workloads.
"""

from dataclasses import replace

import pytest

from repro.core.faults import FaultPlan
from repro.exp import KernelBuilder, ScenarioSpec
from repro.exp.spec import canonical_groups
from repro.obs.observer import Observer
from repro.schedulers.cfs import CfsSchedClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.errors import SimError
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState
from repro.verify.fuzz import state_digest
from repro.verify.sanitizers import group_bandwidth_violations
from repro.workloads.multitenant import run_multitenant
from repro.workloads.pipe_bench import run_pipe_benchmark

POLICY = 7
PIN0 = frozenset({0})


def make_cfs(nr_cpus=1):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    return kernel


def enforcement_slack_ns(kernel):
    return kernel.config.bandwidth_slack_ns(kernel.topology.nr_cpus)


def spinner(total_ns, slice_ns=200_000):
    def prog():
        left = total_ns
        while left > 0:
            burst = min(slice_ns, left)
            left -= burst
            yield Run(burst)
    return prog


class TestBandwidthEnforcement:
    def test_quota_caps_every_period(self):
        """A 2 ms / 10 ms group on one CPU never consumes more than the
        quota (plus tick slack) in any period, and throttles repeatedly
        while demand outstrips the cap."""
        kernel = make_cfs()
        kernel.groups.create("t", quota_ns=msecs(2), period_ns=msecs(10))
        for _ in range(2):
            kernel.spawn(spinner(msecs(50)), group="t", allowed_cpus=PIN0)
        kernel.run_until(msecs(100))
        group = kernel.groups.group("t")
        assert group.periods >= 9
        assert group.throttle_count >= 5
        assert group.max_period_consumed_ns <= (
            msecs(2) + enforcement_slack_ns(kernel))
        # Demand was unbounded, so consumption should also be close to
        # the cap from below: the group gets what it paid for.
        assert group.total_runtime_ns >= msecs(2) * (group.periods - 1) // 2
        assert group_bandwidth_violations(kernel) == []

    def test_capped_tenant_cannot_hog_residual_split_by_weight(self):
        """The noisy-neighbour headline: tenant-c is capped at 10% of
        the CPU, tenants a and b split the residual 2:1 by weight."""
        kernel = make_cfs()
        kernel.groups.create("a", weight=2048)
        kernel.groups.create("b", weight=1024)
        kernel.groups.create("c", weight=4096,
                             quota_ns=msecs(1), period_ns=msecs(10))
        tasks = {}
        for name in ("a", "b", "c"):
            tasks[name] = [
                kernel.spawn(spinner(msecs(200)), group=name,
                             allowed_cpus=PIN0, name=f"{name}{i}")
                for i in range(2)
            ]
        kernel.run_until(msecs(100))
        runtime = {name: sum(t.sum_exec_runtime_ns for t in members)
                   for name, members in tasks.items()}
        # c is capped at 1 ms per 10 ms despite its huge weight.
        group_c = kernel.groups.group("c")
        assert group_c.max_period_consumed_ns <= (
            msecs(1) + enforcement_slack_ns(kernel))
        assert runtime["c"] <= msecs(100) * 15 // 100
        # a and b split the residual by weight, 2:1.
        ratio = runtime["a"] / max(1, runtime["b"])
        assert 1.7 < ratio < 2.3
        assert group_bandwidth_violations(kernel) == []

    def test_child_is_bounded_by_parent_quota(self):
        """An uncapped child inside a capped parent inherits the cap:
        subtree consumption is charged up the hierarchy."""
        kernel = make_cfs()
        kernel.groups.create("parent",
                             quota_ns=msecs(2), period_ns=msecs(10))
        kernel.groups.create("child", parent="parent")
        kernel.spawn(spinner(msecs(50)), group="child", allowed_cpus=PIN0)
        kernel.run_until(msecs(60))
        parent = kernel.groups.group("parent")
        assert parent.throttle_count > 0
        assert parent.max_period_consumed_ns <= (
            msecs(2) + enforcement_slack_ns(kernel))
        # The child's runtime is what the parent was charged for.
        child = kernel.groups.group("child")
        assert child.total_runtime_ns == parent.total_runtime_ns
        assert group_bandwidth_violations(kernel) == []

    def test_throttled_group_drains_and_finishes(self):
        """Bounded work inside a capped group completes once demand
        ends: throttling defers, it never loses tasks."""
        kernel = make_cfs(nr_cpus=2)
        kernel.groups.create("t", quota_ns=msecs(1), period_ns=msecs(5))
        tasks = [kernel.spawn(spinner(msecs(4)), group="t")
                 for _ in range(3)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in tasks)
        group = kernel.groups.group("t")
        assert group.throttle_count > 0
        assert not group.parked and not group.throttled
        assert group.total_runtime_ns == sum(
            t.sum_exec_runtime_ns for t in tasks)
        assert group_bandwidth_violations(kernel) == []

    def test_sleepers_are_not_throttled_below_quota(self):
        """A group whose demand stays under quota never throttles."""
        kernel = make_cfs()
        kernel.groups.create("light",
                             quota_ns=msecs(5), period_ns=msecs(10))

        def light():
            for _ in range(40):
                yield Run(usecs(100))
                yield Sleep(usecs(900))

        task = kernel.spawn(light, group="light", allowed_cpus=PIN0)
        kernel.run_until_idle()
        assert task.state is TaskState.DEAD
        group = kernel.groups.group("light")
        assert group.throttle_count == 0
        assert group_bandwidth_violations(kernel) == []


class TestGroupApi:
    def test_create_validates_arguments(self):
        kernel = make_cfs()
        kernel.groups.create("g")
        with pytest.raises(SimError):
            kernel.groups.create("g")          # duplicate
        with pytest.raises(SimError):
            kernel.groups.create("", weight=1024)
        with pytest.raises(SimError):
            kernel.groups.create("bad", weight=0)
        with pytest.raises(SimError):
            kernel.groups.create("orphan", parent="no-such-group")
        with pytest.raises(SimError):
            kernel.spawn(spinner(msecs(1)), group="no-such-group")

    def test_snapshot_empty_until_groups_defined(self):
        kernel = make_cfs()
        assert kernel.groups.snapshot() == {}
        kernel.groups.create("g")
        snap = kernel.groups.snapshot()
        assert set(snap) == {"root", "g"}
        assert snap["g"]["weight"] == 1024

    def test_sanitizer_flags_corrupted_accounting(self):
        """The pure scan actually bites: cook the books and it fires."""
        kernel = make_cfs()
        kernel.groups.create("t", quota_ns=msecs(2), period_ns=msecs(10))
        kernel.spawn(spinner(msecs(5)), group="t", allowed_cpus=PIN0)
        kernel.run_until(msecs(3))
        assert group_bandwidth_violations(kernel) == []
        kernel.groups.group("t").total_runtime_ns += 12_345
        assert group_bandwidth_violations(kernel)


class TestSpecAndBuilder:
    def test_canonical_groups_fills_defaults(self):
        rows = canonical_groups(({"name": "a"},))
        assert rows == ({"name": "a", "parent": "root", "weight": 1024,
                         "quota_ns": 0, "period_ns": 0, "policy": None},)
        with pytest.raises(SimError):
            canonical_groups(({"weight": 1},))         # missing name
        with pytest.raises(SimError):
            canonical_groups(({"name": "a", "bogus": 1},))

    def test_spec_roundtrip_and_hash_stability(self):
        grouped = ScenarioSpec(
            name="g", topology="smp:2", seed=1, sched="cfs",
            workload="pipe", groups=({"name": "a", "weight": 2048},))
        clone = ScenarioSpec.from_dict(grouped.to_dict())
        assert clone.spec_hash() == grouped.spec_hash()
        assert clone.groups[0]["weight"] == 2048
        # Flat specs don't emit the field, so pre-feature cache keys
        # (bench result reuse) are unchanged.
        flat = ScenarioSpec(name="f", topology="smp:2", seed=1,
                            sched="cfs", workload="pipe")
        assert "groups" not in flat.to_dict()

    def test_unused_group_forest_is_invisible(self):
        """A forest nobody joined costs a flat workload nothing — not one
        event, not one nanosecond: no period timer is ever armed."""
        flat = ScenarioSpec(name="flat", sched="wfq", seed=1,
                            workload="pipe")
        unused = replace(flat, name="unused", groups=(
            {"name": "tenant", "quota_ns": 2_000_000},))
        seen = []
        for spec in (flat, unused):
            session = KernelBuilder.session_from_spec(spec)
            run_pipe_benchmark(session.kernel, session.policy, rounds=200)
            session.stop()
            kernel = session.kernel
            seen.append((state_digest(kernel), kernel.now,
                         kernel.stats.sched_invocations,
                         kernel.events._seq))
        assert kernel.groups.has("tenant")      # the forest was built
        assert seen[0] == seen[1]

    def test_builder_materializes_groups_with_policy_inheritance(self):
        session = (KernelBuilder(topology=Topology.smp(2))
                   .with_native("cfs", policy=0, priority=5)
                   .with_enoki("wfq", policy=POLICY, priority=10)
                   .with_groups((
                       {"name": "enoki-tenant"},
                       {"name": "native", "policy": 0},
                       {"name": "native-child", "parent": "native"},
                   ))
                   .build())
        assert session.kernel.groups.has("native-child")
        # Nearest ancestor with an explicit policy wins; otherwise the
        # session's policy under test.
        assert session.group_policy("native-child") == 0
        assert session.group_policy("enoki-tenant") == POLICY
        task = session.spawn_in_group(spinner(usecs(100)), "native")
        assert task.policy == 0
        session.run_until_idle()
        assert task.state is TaskState.DEAD


class TestMultitenantWorkload:
    def test_default_tenants_capped_and_weighted(self):
        session = (KernelBuilder(topology=Topology.smp(4))
                   .with_native("cfs", policy=0, priority=10)
                   .build())
        result = run_multitenant(session.kernel, 0,
                                 duration_ns=msecs(100))
        assert result.completed
        tenants = result.tenants
        assert set(tenants) == {"tenant-a", "tenant-b", "tenant-c"}
        # tenant-c is quota'd to 2 ms per 10 ms = 5% of the machine.
        assert result.share("tenant-c") < 0.08
        assert tenants["tenant-c"]["throttle_count"] > 0
        # The heavier tenant gets more than the lighter one.
        assert result.share("tenant-a") > result.share("tenant-b")
        assert group_bandwidth_violations(session.kernel) == []


class TestObservability:
    def test_observer_counts_throttles_and_exports_gauges(self):
        kernel = make_cfs()
        observer = Observer.attach(kernel)
        kernel.groups.create("t", quota_ns=msecs(1), period_ns=msecs(5))
        kernel.spawn(spinner(msecs(6)), group="t", allowed_cpus=PIN0)
        kernel.run_until_idle()
        observer.collect()
        snap = observer.registry.snapshot()
        assert snap["counters"]["group_throttles"] > 0
        assert snap["counters"]["group_refills"] > 0
        assert snap["gauges"]["groups.t.runtime_ns"]["value"] == (
            kernel.groups.group("t").total_runtime_ns)
        assert "groups.t.quota_ns" in snap["gauges"]
        assert observer.events_of_kind("throttle")
        assert observer.events_of_kind("unthrottle")


class TestCompositionWithFaults:
    def test_zero_task_loss_across_throttle_upgrade_failover(self):
        """The torture composition: a bandwidth-capped Enoki tenant is
        live-upgraded mid-throttle, then the scheduler strikes out and
        fails over to CFS — and every task still finishes, with the cap
        enforced throughout (groups are kernel state, not scheduler
        state)."""
        session = (KernelBuilder("smp:4").with_native("cfs")
                   .with_enoki("wfq", policy=POLICY).build())
        kernel = session.kernel
        session.shim.install_faults(FaultPlan.builtin("strike-out"))
        kernel.groups.create("tenant",
                             quota_ns=msecs(2), period_ns=msecs(10))

        def hog():
            for _ in range(15):
                yield Run(msecs(1) + usecs(200))
                yield Sleep(usecs(200))

        tasks = [kernel.spawn(hog, name=f"hog-{i}", policy=POLICY,
                              group="tenant", origin_cpu=i % 4)
                 for i in range(8)]
        manager = session.schedule_upgrade(usecs(800))
        kernel.run_until_idle()
        assert len(manager.reports) == 1
        assert kernel.stats.failovers == 1
        assert all(t.state is TaskState.DEAD for t in tasks)
        group = kernel.groups.group("tenant")
        assert group.throttle_count > 0
        assert not group.parked and not group.throttled
        assert group.max_period_consumed_ns <= (
            msecs(2) + enforcement_slack_ns(kernel))
        assert group.total_runtime_ns == sum(
            t.sum_exec_runtime_ns for t in tasks)
        assert group_bandwidth_violations(kernel) == []
