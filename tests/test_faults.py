"""Fault containment, scheduler failover, and deterministic injection.

The contract under test: with containment on, a fallback class
registered, and a watchdog escalating lost-task findings, *every*
built-in fault plan completes with no unhandled exception and zero lost
tasks — and with no faults injected, containment is invisible
(bit-identical traces).
"""

import json
import re

import pytest

from repro.core import (
    BUILTIN_PLANS,
    FaultPlan,
    FaultSpec,
    SchedulerWatchdog,
    UpgradeManager,
)
from repro.core.errors import (
    FailoverError,
    FaultError,
    InjectedFault,
)
from repro.core.failover import STRIKE_THRESHOLD, FailoverManager
from repro.core.hints import RingBuffer
from repro.core.watchdog import Finding
from repro.exp import KernelBuilder
from repro.schedulers.fifo_native import NativeFifoClass
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.task import TaskState
from repro.simkernel.tracing import SchedTracer

POLICY = 7


def make(nr_cpus=4, fallback=True, sched="wfq"):
    builder = KernelBuilder(f"smp:{nr_cpus}")
    if fallback:
        builder.with_native("cfs")
    session = builder.with_enoki(sched, policy=POLICY).build()
    return session.kernel, session.shim, session.shim.scheduler


def hog(hints=False, phases=15):
    def prog():
        # Bursts longer than the 1 ms tick so task_tick traffic exists.
        for i in range(phases):
            yield Run(1_200_000)
            if hints and i % 5 == 0:
                yield SendHint({"seq": i}, policy=POLICY)
            yield Sleep(200_000)
    return prog


def run_plan(plan, nr_cpus=4, tasks=8, hints=True):
    """The chaos harness: injector + containment + escalating watchdog."""
    kernel, shim, sched = make(nr_cpus)
    injector = shim.install_faults(plan)
    watchdog = SchedulerWatchdog(
        kernel, POLICY, period_ns=200_000, lost_task_ns=5_000_000,
        escalate=shim.containment)
    upgrades = None
    if any(spec.callback == "reregister_init" for spec in plan.specs):
        upgrades = UpgradeManager(kernel, shim)
        upgrades.schedule_upgrade(lambda: EnokiWfq(nr_cpus, POLICY),
                                  at_ns=800_000)
    spawned = [
        kernel.spawn(hog(hints=hints), name=f"hog-{i}", policy=POLICY,
                     origin_cpu=i % nr_cpus)
        for i in range(tasks)
    ]
    kernel.run_until_idle()
    watchdog.stop()
    return kernel, shim, injector, watchdog, spawned, upgrades


class TestFaultSpecs:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="explode").validate()

    def test_dispatch_fault_needs_callback(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="raise").validate()

    def test_hang_needs_duration(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="hang", callback="task_tick").validate()

    def test_window_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="drop_hint", at=0).validate()
        spec = FaultSpec(kind="drop_hint", at=3, count=2)
        assert not spec.in_window(2)
        assert spec.in_window(3)
        assert spec.in_window(4)
        assert not spec.in_window(5)

    def test_probability_bounds(self):
        with pytest.raises(FaultError):
            FaultSpec(kind="drop_hint", probability=0.0).validate()
        with pytest.raises(FaultError):
            FaultSpec(kind="drop_hint", probability=1.5).validate()

    def test_plan_roundtrip(self):
        plan = FaultPlan.builtin("rampage").with_seed(42)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan

    @pytest.mark.parametrize("name", sorted(BUILTIN_PLANS))
    def test_builtin_plan_round_trips_through_json(self, name):
        # JSON turns the specs tuple into a list and may turn 1.0 into 1;
        # the typed loader must take both back to the same plan.
        plan = FaultPlan.builtin(name).with_seed(5)
        data = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(data) == plan
        for spec in data["specs"]:
            spec["probability"] = int(spec["probability"])
        assert FaultPlan.from_dict(data) == plan

    def test_unknown_builtin(self):
        with pytest.raises(FaultError):
            FaultPlan.builtin("no-such-plan")

    def test_empty_plan_rejected(self):
        with pytest.raises(FaultError):
            FaultPlan(name="empty", specs=()).validate()

    @pytest.mark.parametrize("data, named", [
        ({"name": "p", "specs": [{"kind": "raise", "callbak": "x"}]},
         "'callbak'"),
        ({"name": "p", "specs": [{"kind": "drop_hint", "machine": 1}]},
         "'machine'"),
        ({"name": "p", "specs": [{"kind": "drop_hint", "at_ns": 5}]},
         "'at_ns'"),
        ({"name": "p", "specs": [{"kind": "drop_hint",
                                  "duration_ns": 5}]}, "'duration_ns'"),
        ({"name": "p", "specs": [{"at": 2}]}, "'kind'"),
        ({"name": "p", "specs": [{"kind": "drop_hint", "at": "3"}]},
         "'at'"),
        ({"name": "p", "specs": [{"kind": "drop_hint",
                                  "probability": "1"}]}, "'probability'"),
        ({"name": "p", "specs": ["drop_hint"]}, "FaultSpec must be a "
                                                "mapping"),
        ({"name": "p"}, "'specs'"),
        ({"specs": [{"kind": "drop_hint"}]}, "'name'"),
        ({"name": "p", "seed": "1", "specs": [{"kind": "drop_hint"}]},
         "'seed'"),
        ({"name": "p", "specs": [{"kind": "drop_hint"}], "x": 0}, "'x'"),
        ([], "FaultPlan must be a mapping"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_malformed_plan_is_a_fault_error_naming_the_key(
            self, data, named):
        with pytest.raises(FaultError, match=re.escape(named)):
            FaultPlan.from_dict(data)


class TestChaosSuite:
    """Every built-in plan must be survivable: zero lost tasks."""

    @pytest.mark.parametrize("name", sorted(BUILTIN_PLANS))
    def test_builtin_plan_contained_without_task_loss(self, name):
        plan = FaultPlan.builtin(name).with_seed(0)
        kernel, shim, injector, watchdog, spawned, upgrades = run_plan(plan)
        assert injector.fired, f"plan {name} never fired under the harness"
        assert all(t.state is TaskState.DEAD for t in spawned)
        assert all(t.state is TaskState.DEAD
                   for t in kernel.tasks.values())
        if upgrades is not None:
            assert upgrades.reports and upgrades.reports[0].aborted

    def test_deterministic_audit_log(self):
        plan = FaultPlan.builtin("rampage").with_seed(7)
        _, _, first, _, _, _ = run_plan(plan)
        _, _, second, _, _, _ = run_plan(plan)
        assert first.summary() == second.summary()
        assert [(e.kind, e.callback, e.invocation) for e in first.fired] \
            == [(e.kind, e.callback, e.invocation) for e in second.fired]

    @pytest.mark.parametrize("name", sorted(BUILTIN_PLANS))
    def test_builtin_plan_replays_identically(self, name):
        """Two runs of one seeded plan: the same faults fire at the same
        invocations, and containment ends the same way at the same
        virtual time."""
        def outcome():
            kernel, shim, injector, watchdog, _, _ = run_plan(
                FaultPlan.builtin(name).with_seed(3))
            stats = kernel.stats
            return (
                kernel.now, injector.fired, shim.failed,
                shim.containment.failover_report,
                [(p.at_ns, p.hook, p.kind, p.strike)
                 for p in shim.containment.panics],
                [(f.kind, f.at_ns, f.pid) for f in watchdog.report.findings],
                (stats.contained_panics, stats.failovers, stats.pick_errors,
                 stats.hint_drops, stats.total_wakeups),
            )

        assert outcome() == outcome()


class TestContainment:
    def test_single_crash_degraded_no_failover(self):
        plan = FaultPlan.builtin("tick-crash")
        kernel, shim, injector, _, spawned, _ = run_plan(plan)
        boundary = shim.containment
        assert len(boundary.panics) == 1
        assert boundary.panics[0].hook == "task_tick"
        assert boundary.panics[0].kind == "exception"
        assert not shim.failed
        assert kernel.stats.contained_panics == 1
        assert kernel.stats.failovers == 0

    def test_strike_threshold_forces_failover(self):
        plan = FaultPlan.builtin("strike-out")
        kernel, shim, _, _, spawned, _ = run_plan(plan)
        boundary = shim.containment
        assert shim.failed
        report = boundary.failover_report
        assert report is not None
        assert report.to_policy == 0
        assert "strike" in report.reason or "task_tick" in report.reason
        assert boundary.strikes >= STRIKE_THRESHOLD
        assert kernel.stats.failovers == 1
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_pick_crash_fails_over_immediately(self):
        plan = FaultPlan.builtin("pick-crash")
        kernel, shim, _, _, spawned, _ = run_plan(plan)
        boundary = shim.containment
        assert shim.failed
        assert boundary.strikes == 1          # no three-strike grace
        assert boundary.failover_report is not None
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_pick_crash_without_fallback_surfaces(self):
        """No fallback class: pre-containment behaviour, the bug shows."""
        kernel, shim, _ = make(fallback=False)
        shim.install_faults(FaultPlan.builtin("pick-crash"))
        for i in range(4):
            kernel.spawn(hog(), policy=POLICY, origin_cpu=i % 4)
        with pytest.raises(InjectedFault):
            kernel.run_until_idle()

    def test_fallback_is_highest_priority_native_class(self):
        """With CFS (priority 5) and native FIFO (priority 8) below the
        shim, failover lands in FIFO."""
        kernel, shim, _ = make()
        kernel.register_sched_class(NativeFifoClass(policy=3), priority=8)
        shim.install_faults(FaultPlan.builtin("pick-crash"))
        spawned = [kernel.spawn(hog(), policy=POLICY, origin_cpu=i % 4)
                   for i in range(4)]
        kernel.run_until_idle()
        assert shim.failed
        assert shim.containment.failover_report.to_policy == 3
        assert kernel.stats.failovers == 1
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_hang_charges_virtual_time_as_strikes(self):
        plan = FaultPlan.builtin("callback-hang")
        kernel, shim, _, _, spawned, _ = run_plan(plan)
        boundary = shim.containment
        overruns = [p for p in boundary.panics if p.kind == "overrun"]
        assert len(overruns) == 2
        assert not shim.failed                # below the threshold
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_repeated_hangs_strike_out(self):
        plan = FaultPlan.builtin("hang-out")
        kernel, shim, _, _, spawned, _ = run_plan(plan)
        assert shim.failed
        assert shim.containment.failover_report is not None
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_failover_under_load_preserves_task_set(self):
        """Task-set equivalence: everything alive at failover completes."""
        kernel, shim, _ = make()
        spawned = [kernel.spawn(hog(), policy=POLICY, origin_cpu=i % 4)
                   for i in range(10)]
        kernel.run_until(3_000_000)
        alive_before = {pid for pid, t in kernel.tasks.items()
                        if t.state is not TaskState.DEAD}
        report = shim.containment.engage_failover(reason="test")
        assert report is not None
        assert set(report.requeued_pids) | set(report.lazy_pids) \
            <= alive_before
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in spawned)
        # The failed shim stays silent afterwards.
        assert shim.failed
        assert shim.containment.engage_failover(reason="again") is report

    def test_containment_off_restores_raw_semantics(self):
        kernel, shim, _ = make()
        shim.containment = None
        shim.install_faults(FaultPlan.builtin("tick-crash"))
        kernel.spawn(hog(), policy=POLICY)
        with pytest.raises(InjectedFault):
            kernel.run_until_idle()


class TestWatchdogEscalation:
    def test_token_corruption_recovered_via_watchdog(self):
        """A forged token makes pnt_err drop the pid from the module's
        queues — the task is still on the kernel rq, and only the
        watchdog's lost_task finding can trigger the rescue."""
        plan = FaultPlan.builtin("token-corrupt")
        kernel, shim, _, watchdog, spawned, _ = run_plan(plan)
        assert kernel.stats.pick_errors >= 1
        assert watchdog.report.by_kind("lost_task")
        assert shim.failed
        report = shim.containment.failover_report
        assert report is not None and report.reason.startswith("watchdog:")
        assert all(t.state is TaskState.DEAD for t in spawned)

    def test_duplicate_token_recovered_via_watchdog(self):
        plan = FaultPlan.builtin("token-duplicate")
        kernel, shim, _, watchdog, spawned, _ = run_plan(plan)
        assert kernel.stats.pick_errors >= 1
        assert shim.failed
        assert all(t.state is TaskState.DEAD for t in spawned)


def _contained_stack(nr_cpus=2):
    kernel, shim, _ = make(nr_cpus)
    return kernel, shim


def _lost(pid):
    return Finding(kind="lost_task", at_ns=0, pid=pid, cpu=0)


class TestIdempotentEscalation:
    def test_double_engage_is_single_failover(self):
        kernel, shim = _contained_stack()
        boundary = shim.containment
        first = boundary.engage_failover(reason="strike")
        second = boundary.engage_failover(reason="watchdog:lost_task")
        assert first is second
        assert kernel.stats.failovers == 1
        assert boundary.suppressed_escalations == 1

    def test_manager_refuses_failed_shim(self):
        kernel, shim = _contained_stack()
        shim.containment.engage_failover(reason="strike")
        manager = FailoverManager(shim)
        with pytest.raises(FailoverError):
            manager.engage(manager.find_fallback(), reason="again")

    def test_watchdog_escalates_once(self):
        # One scan can surface several lost tasks: the first engages
        # failover, the boundary absorbs the second.
        kernel, shim = _contained_stack()
        watchdog = SchedulerWatchdog(kernel, POLICY,
                                     escalate=shim.containment)
        watchdog._emit(_lost(1))
        watchdog._emit(_lost(2))
        assert kernel.stats.failovers == 1
        assert shim.containment.suppressed_escalations == 1
        assert shim.containment.failover_report.reason \
            == "watchdog:lost_task"

    def test_watchdog_suppresses_after_same_step_strike(self):
        # A containment strike already failed the shim over when the
        # watchdog scan lands in the same event step: the watchdog must
        # record the suppression instead of double-firing.
        kernel, shim = _contained_stack()
        watchdog = SchedulerWatchdog(kernel, POLICY,
                                     escalate=shim.containment)
        shim.containment.engage_failover(reason="strike")
        assert kernel.stats.failovers == 1
        watchdog._emit(_lost(1))
        assert kernel.stats.failovers == 1
        assert shim.containment.suppressed_escalations == 1
        assert shim.containment.failover_report.reason == "strike"


class TestHintFaults:
    class CountingWfq(EnokiWfq):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.hints = []
            #: (ring name, sender pid) of every hint a queue entry finds
            self.placed = []

        def enter_queue(self, queue_id, entries):
            ring = self._user_queues[queue_id]
            self.placed.extend((ring.name, hint.pid)
                               for hint in ring.peek_all())
            super().enter_queue(queue_id, entries)

        def parse_hint(self, hint):
            self.hints.append(hint.payload)

    def _run(self, plan_name, tasks=8):
        kernel, shim, sched = make(sched=self.CountingWfq)
        shim.install_faults(FaultPlan.builtin(plan_name))
        spawned = [kernel.spawn(hog(hints=True), policy=POLICY,
                                origin_cpu=i % 4)
                   for i in range(tasks)]
        kernel.run_until_idle()
        sent = sum(1 for t in spawned) * 3   # 3 hints per hog program
        return kernel, sched, sent

    def test_delayed_hints_land_in_their_senders_rings(self):
        """A held hint is flushed by whichever task sends next; it must
        still go to the ring of its own sender's process."""
        kernel, sched, sent = self._run("hint-delay")
        assert len(sched.placed) == sent
        for ring_name, pid in sched.placed:
            assert ring_name == f"user-{kernel.tasks[pid].tgid}"

    def test_dropped_hints_counted_and_lost(self):
        kernel, sched, sent = self._run("hint-drop")
        assert kernel.stats.hint_drops == 3
        assert len(sched.hints) == sent - 3

    def test_delayed_hints_all_delivered(self):
        kernel, sched, sent = self._run("hint-delay")
        assert kernel.stats.hint_drops == 0
        assert len(sched.hints) == sent


class TestRingOverflowPolicy:
    def test_drop_new_is_default(self):
        ring = RingBuffer(2)
        assert ring.push("a") and ring.push("b")
        assert not ring.push("c")
        assert ring.dropped == 1 and ring.pushed == 2
        assert ring.pop() == "a"


class TestNoFaultTransparency:
    def _traced_run(self, containment):
        kernel, shim, _ = make()
        if not containment:
            shim.containment = None
        tracer = SchedTracer.attach(kernel, capacity=200_000)
        spawned = [kernel.spawn(hog(hints=True), policy=POLICY,
                                origin_cpu=i % 4)
                   for i in range(6)]
        kernel.run_until_idle()
        assert all(t.state is TaskState.DEAD for t in spawned)
        # wall_ns is host wall-clock time, nondeterministic between any
        # two runs (containment or not) — mask it, keep everything else.
        return [
            (e.t_ns, e.kind, e.cpu, e.pid, e.cost_ns,
             tuple(kv for kv in e.args if kv[0] != "wall_ns"))
            for e in tracer.events
        ]

    def test_trace_bit_identical_with_containment_enabled(self):
        """Containment with no faults injected is invisible: same events,
        same order, same fields."""
        assert self._traced_run(True) == self._traced_run(False)


class TestFailoverUpgradeInterleaving:
    """Failover and live upgrade racing on the same shim.

    Both paths serialise on the per-scheduler rwlock, so only two
    orderings exist and both must be clean: the strike threshold trips
    first and a later upgrade must abort (swapping modules on a dead shim
    would resurrect nothing), or the upgrade aborts on its own and the
    strike-out then fails over normally.  Either way: zero task loss and
    a trace whose upgrade/failover events appear in a consistent order.
    """

    def _interleaved_run(self, plan, upgrade_at_ns):
        kernel, shim, _ = make()
        tracer = SchedTracer.attach(kernel, capacity=200_000)
        shim.install_faults(plan)
        watchdog = SchedulerWatchdog(
            kernel, POLICY, period_ns=200_000, lost_task_ns=5_000_000,
            escalate=shim.containment)
        upgrades = UpgradeManager(kernel, shim)
        upgrades.schedule_upgrade(lambda: EnokiWfq(4, POLICY),
                                  at_ns=upgrade_at_ns)
        spawned = [kernel.spawn(hog(), name=f"hog-{i}", policy=POLICY,
                                origin_cpu=i % 4)
                   for i in range(8)]
        kernel.run_until_idle()
        watchdog.stop()
        return kernel, shim, upgrades, tracer, spawned

    def test_failover_first_aborts_the_pending_upgrade(self):
        """Strike-out trips long before the scheduled upgrade: the
        upgrade must refuse to swap modules on the failed-over shim."""
        plan = FaultPlan.builtin("strike-out")
        kernel, shim, upgrades, tracer, spawned = self._interleaved_run(
            plan, upgrade_at_ns=18_000_000)
        assert shim.failed
        failover_events = tracer.events_of_kind("failover")
        assert failover_events
        assert upgrades.reports, "the scheduled upgrade never ran"
        report = upgrades.reports[0]
        assert report.aborted
        assert "failed over" in report.error
        assert report.pause_ns == 0          # nothing was quiesced
        # The refusal is visible in the trace, after the failover.
        aborts = [e for e in tracer.events_of_kind("upgrade")
                  if e.arg("phase") == "abort"]
        assert aborts
        assert aborts[0].t_ns >= failover_events[0].t_ns
        # Zero task loss despite the race.
        assert all(t.state is TaskState.DEAD for t in spawned)
        assert all(t.state is TaskState.DEAD
                   for t in kernel.tasks.values())

    def test_upgrade_abort_then_strikeout_fails_over_cleanly(self):
        """The upgrade aborts on its own (incoming module's init raises),
        the old module keeps running, then strikes out: both reports
        exist, the trace orders abort before failover, nothing is lost."""
        plan = FaultPlan(
            name="abort-then-strike",
            description="upgrade rollback followed by tick strike-out",
            specs=(
                FaultSpec(kind="raise", callback="reregister_init", at=1),
                FaultSpec(kind="raise", callback="task_tick", at=5,
                          count=8),
            ),
        ).validate()
        kernel, shim, upgrades, tracer, spawned = self._interleaved_run(
            plan, upgrade_at_ns=800_000)
        assert upgrades.reports and upgrades.reports[0].aborted
        assert "InjectedFault" in upgrades.reports[0].error
        assert shim.failed                   # the strike-out still landed
        assert shim.containment.failover_report is not None
        aborts = [e for e in tracer.events_of_kind("upgrade")
                  if e.arg("phase") == "abort"]
        failover_events = tracer.events_of_kind("failover")
        assert aborts and failover_events
        assert aborts[0].t_ns <= failover_events[0].t_ns
        assert all(t.state is TaskState.DEAD for t in spawned)
        assert all(t.state is TaskState.DEAD
                   for t in kernel.tasks.values())
