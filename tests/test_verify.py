"""Tests for the verify subsystem: sanitizers, fuzzer, and shrinker."""

import json
from dataclasses import replace

import pytest

from repro.core import EnokiSchedClass
from repro.core.hints import RingBuffer
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import usecs
from repro.obs import Observer
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.tracing import SchedTracer
from repro.verify import (SanitizerError, SanitizerSuite, assert_kernel_state,
                          check_kernel_state, fuzz_run, generate_episode,
                          load_artifact, run_episode, shrink_episode,
                          write_artifact)
from repro.verify.sanitizers import (DEFAULT_SANITIZERS, Sanitizer, Violation,
                                     conservation_violations)

POLICY = 7


def make_enoki_kernel(nr_cpus=2):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
    shim = EnokiSchedClass.register(kernel, EnokiFifo(nr_cpus, POLICY),
                                    POLICY, priority=10)
    return kernel, shim


def spin(run_ns=usecs(100), phases=3, sleep_ns=usecs(20)):
    def prog():
        for _ in range(phases):
            yield Run(run_ns)
            yield Sleep(sleep_ns)
    return prog


class TestSanitizerSuite:
    def test_clean_run_has_no_violations(self):
        kernel, _shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        for i in range(4):
            kernel.spawn(spin(), policy=POLICY, origin_cpu=i % 2)
        kernel.run_until_idle()
        suite.check()
        assert suite.ok, suite.violation_report()
        assert suite.events_seen > 0

    def test_token_events_flow_through_the_trace(self):
        kernel, _shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        kernel.spawn(spin(), policy=POLICY)
        kernel.run_until_idle()
        kinds = suite.summary()
        assert kinds.get("token_issue", 0) > 0
        assert kinds.get("token_consume", 0) > 0

    def test_detach_unhooks_token_registry(self):
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        assert shim.tokens.on_event is not None
        suite.detach()
        assert shim.tokens.on_event is None
        assert kernel.trace is None

    def test_planted_token_bug_is_caught(self):
        """The deliberately planted skip-consume defect must be caught by
        the token sanitizer — proof the checker checks something."""
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        shim._test_skip_token_consume = True
        kernel.spawn(spin(), policy=POLICY)
        kernel.run_until_idle()
        assert not suite.ok
        assert {v.sanitizer for v in suite.violations} == {"token"}
        assert "without consuming" in suite.violations[0].detail

    def test_violations_counted_in_metrics(self):
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        shim._test_skip_token_consume = True
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        assert suite.registry.counter("verify.violations").value > 0
        assert suite.registry.counter("verify.token").value > 0


class TestStateScans:
    def test_clean_kernel_state_passes(self):
        kernel, _shim = make_enoki_kernel()
        kernel.spawn(spin(), policy=POLICY)
        kernel.run_until_idle()
        assert check_kernel_state(kernel) == []
        assert_kernel_state(kernel)     # must not raise

    def test_detached_runnable_task_is_flagged_as_lost(self):
        kernel, _shim = make_enoki_kernel(nr_cpus=1)
        for _ in range(3):
            kernel.spawn(spin(run_ns=usecs(500), phases=2), policy=POLICY)
        kernel.run_for(usecs(300))      # mid-flight: someone is queued
        victim = next(rq for rq in kernel.rqs if rq.queued)
        task = next(iter(victim.queued.values()))
        victim.detach(task)             # silently lose a RUNNABLE task
        violations = check_kernel_state(kernel)
        assert any(v.sanitizer == "conservation" and v.pid == task.pid
                   for v in violations)
        with pytest.raises(SanitizerError):
            assert_kernel_state(kernel)

    def test_conservation_scan_reports_what_the_per_task_walks_report(self):
        """The scan indexes one pass over the run queues; the kernel's
        per-pid walks stay the reference for what it must report."""
        kernel, _shim = make_enoki_kernel(nr_cpus=2)
        for _ in range(4):
            kernel.spawn(spin(run_ns=usecs(500), phases=2), policy=POLICY,
                         origin_cpu=0)
        kernel.run_for(usecs(300))
        home = next(rq for rq in kernel.rqs if rq.queued and rq.current)
        other = kernel.rqs[1 - home.cpu]
        queued = next(iter(home.queued.values()))
        running = home.current
        other.queued[queued.pid] = queued       # attached twice
        displaced, other.current = other.current, running   # runs twice
        violations = conservation_violations(kernel)
        other.current = displaced
        both = sorted((home.cpu, other.cpu))
        assert kernel.queued_cpus(queued.pid) == both
        for detail, pid in (
                (f"task queued on 2 run queues {both}", queued.pid),
                (f"RUNNABLE task queued on {both}", queued.pid),
                (f"RUNNING task is current on {both} "
                 "(expected exactly one CPU)", running.pid)):
            assert Violation("conservation", kernel.now, detail,
                             pid) in violations, detail

    def test_live_token_for_dead_task_is_flagged(self):
        kernel, shim = make_enoki_kernel()
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        shim.tokens.issue(999, 0)       # token for a pid that never existed
        violations = check_kernel_state(kernel)
        assert any(v.sanitizer == "token" and v.pid == 999
                   for v in violations)

    def test_broken_ring_accounting_is_flagged(self):
        kernel, shim = make_enoki_kernel()

        def hinting():
            for i in range(3):
                yield Run(usecs(50))
                yield SendHint({"tid": None, "seq": i}, policy=POLICY)
        kernel.spawn(hinting, policy=POLICY)
        kernel.run_until_idle()
        ring = next(iter(shim.queues.user_queues.values()))
        ring.popped += 2                # cook the books
        violations = check_kernel_state(kernel)
        assert any(v.sanitizer == "hint_ring" for v in violations)


class TestEventStreamSanitizers:
    """Feed synthetic event streams straight into an unattached suite."""

    def test_clock_regression(self):
        suite = SanitizerSuite()
        suite._hook("dispatch", t=100, cpu=0, pid=1)
        suite._hook("dispatch", t=50, cpu=0, pid=2)
        assert any(v.sanitizer == "clock" for v in suite.violations)

    def test_release_of_unheld_lock(self):
        suite = SanitizerSuite()
        suite._hook("lock_release", t=10, cpu=0, lock=3)
        assert any(v.sanitizer == "lock"
                   and "does not hold" in v.detail
                   for v in suite.violations)

    def test_lock_order_inversion(self):
        suite = SanitizerSuite()
        # thread 0 takes A then B; thread 1 takes B then A: ABBA.
        suite._hook("lock_acquire", t=1, cpu=0, lock="A")
        suite._hook("lock_acquire", t=2, cpu=0, lock="B")
        suite._hook("lock_release", t=3, cpu=0, lock="B")
        suite._hook("lock_release", t=4, cpu=0, lock="A")
        suite._hook("lock_acquire", t=5, cpu=1, lock="B")
        suite._hook("lock_acquire", t=6, cpu=1, lock="A")
        assert any("inversion" in v.detail for v in suite.violations)

    def test_consistent_lock_order_is_clean(self):
        suite = SanitizerSuite()
        for thread in (0, 1):
            suite._hook("lock_acquire", t=thread * 10 + 1, cpu=thread,
                        lock="A")
            suite._hook("lock_acquire", t=thread * 10 + 2, cpu=thread,
                        lock="B")
            suite._hook("lock_release", t=thread * 10 + 3, cpu=thread,
                        lock="B")
            suite._hook("lock_release", t=thread * 10 + 4, cpu=thread,
                        lock="A")
        suite.check()
        assert suite.ok, suite.violation_report()

    def test_held_lock_at_end_of_run(self):
        suite = SanitizerSuite()
        suite._hook("lock_acquire", t=1, cpu=0, lock="A")
        suite.check()
        assert any("still holds" in v.detail for v in suite.violations)

    def test_rwlock_reader_during_writer(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_write_acquire", t=1, cpu=-1, lock="q")
        suite._hook("rwlock_read_acquire", t=2, cpu=-1, lock="q")
        assert any(v.sanitizer == "lock" and "writer holds" in v.detail
                   for v in suite.violations)

    def test_rwlock_release_underflow(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_read_release", t=1, cpu=-1, lock="q")
        assert any("underflow" in v.detail for v in suite.violations)

    def test_double_consume_without_issue(self):
        suite = SanitizerSuite()
        suite._hook("token_consume", t=5, cpu=0, pid=1, gen=1)
        assert any(v.sanitizer == "token"
                   and "none live" in v.detail
                   for v in suite.violations)


#: kind -> the default sanitizers that act on it (everything else returned
#: immediately when all six were offered every event).  Covers the
#: taxonomy table in ``repro.simkernel.tracing`` plus the kinds later
#: layers added, and one kind nobody has heard of.
ROUTING_TABLE = {
    "dispatch": {"token", "conservation", "clock"},
    "idle": {"conservation", "clock"},
    "wakeup": {"conservation", "clock"},
    "fork": {"conservation", "clock"},
    "preempt": {"conservation", "clock"},
    "migrate": {"conservation", "clock"},
    "migrate_failed": {"clock"},
    "timer_fire": {"clock"},
    "enoki_msg": {"clock"},
    "lock_acquire": {"lock", "clock"},
    "lock_release": {"lock", "clock"},
    "rwlock_read_acquire": {"lock", "clock"},
    "rwlock_read_release": {"lock", "clock"},
    "rwlock_write_acquire": {"lock", "clock"},
    "rwlock_write_release": {"lock", "clock"},
    "upgrade": {"conservation", "clock"},
    "hint_enqueue": {"clock"},
    "hint_drop": {"clock"},
    "hint_dequeue": {"clock"},
    "token_issue": {"token", "clock"},
    "token_consume": {"token", "clock"},
    "token_revoke": {"token", "clock"},
    "failover": {"conservation", "clock"},
    "throttle": {"conservation", "group_bandwidth", "clock"},
    "unthrottle": {"conservation", "group_bandwidth", "clock"},
    "quota_refill": {"group_bandwidth", "clock"},
    "enoki_panic": {"clock"},
    "slo_violation": {"clock"},
    "watchdog_finding": {"clock"},
    "never_heard_of_it": {"clock"},
    "rwlock_downgrade": {"clock"},      # an op the lock sanitizer lacks:
    #                                     still retained and counted
}


#: every field some sink reads off one of the kinds above
PAYLOAD = {"lock": "L", "gen": 1, "slo": "s", "hook": "task_tick",
           "group": "g0", "finding": "lost_task"}


def spying(cls, seen):
    """``cls`` with every sink its ``route`` hands out noting the
    delivery first (so per-kind sinks are held to the table too)."""
    class Spy(cls):
        def route(self, kind):
            sink = super().route(kind)
            if sink is None:
                return None

            def spy(kind, t, cpu, pid, fields):
                seen.append((cls.name, kind))
                sink(kind, t, cpu, pid, fields)
            return spy
    return Spy


class TestEventRouting:
    """One intake, routed by kind: nobody loses an event they act on."""

    @pytest.mark.parametrize("kind", sorted(ROUTING_TABLE))
    def test_each_kind_reaches_exactly_the_sanitizers_that_act_on_it(
            self, kind):
        seen = []
        suite = SanitizerSuite(
            sanitizers=[spying(cls, seen) for cls in DEFAULT_SANITIZERS])
        for t in (1, 2):        # second event rides the cached route
            suite._hook(kind, t=t, cpu=0, pid=1, **PAYLOAD)
        assert seen == [(name, kind) for _ in (1, 2)
                        for name in [cls.name for cls in DEFAULT_SANITIZERS]
                        if name in ROUTING_TABLE[kind]]
        assert suite.events_seen == 2
        assert [event.kind for event in suite.events] == [kind, kind]
        assert suite.registry.counter("events." + kind).value == 2

    def test_table_covers_the_documented_taxonomy(self):
        import pathlib
        import re
        import repro
        from repro.core.libenoki import _LOCK_KINDS
        from repro.obs.observer import _RWLOCK_KINDS
        from repro.simkernel import tracing
        documented = re.findall(r"^``(\w+)\*?``  ", tracing.__doc__, re.M)
        assert len(documented) == 26
        for name in documented:
            assert any(kind.startswith(name) for kind in ROUTING_TABLE), name
        # Every kind (or kind prefix) written out at an emit site under
        # src/repro is in the module's table, and nothing in the table
        # has lost its emitter.
        emitted = {*_LOCK_KINDS.values(), *_RWLOCK_KINDS.values()}
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            emitted.update(re.findall(
                r"""\b(?:trace|_hook)\(\s*"(\w+)\"""", path.read_text()))
        assert len(emitted) > 20
        for kind in emitted:
            assert any(kind.startswith(name) or name.startswith(kind)
                       for name in documented), kind
        for name in documented:
            assert any(kind.startswith(name) or name.startswith(kind)
                       for kind in emitted), name

    def test_sanitizer_overriding_only_on_event_sees_every_event(self):
        seen = []

        class Everything(Sanitizer):
            name = "everything"

            def on_event(self, kind, t, cpu, pid, fields):
                seen.append(kind)

        suite = SanitizerSuite(sanitizers=[Everything])
        for kind in sorted(ROUTING_TABLE):
            suite._hook(kind, t=1, cpu=0, **PAYLOAD)
        assert seen == sorted(ROUTING_TABLE)

    def test_rwlock_prefix_reaches_the_lock_sanitizer(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_write_acquire", t=1, cpu=-1, lock="q")
        suite._hook("rwlock_write_acquire", t=2, cpu=-1, lock="q")
        assert any(v.sanitizer == "lock" and "write acquired" in v.detail
                   for v in suite.violations)

    def test_no_default_sink_changes_the_fields_the_ring_retains(self):
        """The ring keeps the emitter's ``fields`` dict until ``events``
        is read, so a sink that edits it would rewrite history; only the
        intake's own ``cost`` entry is added, and left out again."""
        suite = SanitizerSuite()

        def unchanged(kind, t, cpu, pid, fields):   # routed last
            assert fields == {**PAYLOAD, "cost": 7}, kind
        suite.add_route(lambda kind: unchanged)
        for kind in sorted(ROUTING_TABLE):
            suite._hook(kind, t=1, cpu=0, pid=1, cost=7, **PAYLOAD)
        assert [(e.kind, e.cost_ns, e.args) for e in suite.events] == [
            (kind, 7, tuple(sorted(PAYLOAD.items())))
            for kind in sorted(ROUTING_TABLE)]

    def test_suite_attached_second_sees_the_quiesce_lock(self):
        """Attaching over a live observer detaches it, so the rwlock,
        profiler and token taps follow the trace hook to the new
        watcher instead of staying with the displaced one."""
        kernel, shim = make_enoki_kernel()
        first = Observer.attach(kernel)
        suite = SanitizerSuite.attach(kernel)
        assert first._kernel is None
        assert shim.profiler is suite.profilers[POLICY]
        kernel.spawn(spin(phases=2), policy=POLICY)
        kernel.run_until_idle()
        assert first.events_of_kind("rwlock_read_acquire") == []
        reads = suite.summary()["rwlock_read_acquire"]
        assert reads == shim.lib.rwlock.read_acquisitions > 0
        suite.check()
        assert suite.ok, suite.violation_report()
        # A planted reader under the upgrade writer must be flagged.
        rwlock = shim.lib.rwlock
        rwlock.acquire_write()
        rwlock.on_event("read_acquire", rwlock.name)
        assert [v.sanitizer for v in suite.violations] == ["lock"]
        assert "read acquired while the upgrade writer holds it" in \
            suite.violations[0].detail

    def test_route_added_after_first_event_takes_effect(self):
        tracer = SchedTracer()
        tracer._hook("dispatch", t=1, cpu=0, pid=1)
        late = []
        tracer.add_route(lambda kind: (
            (lambda kind, t, cpu, pid, fields: late.append((kind, t)))
            if kind == "dispatch" else None))
        tracer._hook("dispatch", t=2, cpu=0, pid=1)
        tracer._hook("idle", t=3, cpu=0)
        assert late == [("dispatch", 2)]

    def test_scheduler_registered_after_attach_is_audited(self):
        """``dispatch`` is routed (and cached) long before the shim and
        its token tap exist; the late tap must still feed the token
        sanitizer, and the planted bug must still be caught."""
        kernel = Kernel(Topology.smp(2), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        suite = SanitizerSuite.attach(kernel)
        kernel.spawn(spin(phases=1), policy=0)
        kernel.run_until_idle()
        assert suite.summary().get("dispatch", 0) > 0
        assert "token_issue" not in suite.summary()
        shim = EnokiSchedClass.register(kernel, EnokiFifo(2, POLICY),
                                        POLICY, priority=10)
        suite.observe_framework()
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        suite.check()
        assert suite.ok, suite.violation_report()
        assert suite.summary().get("token_consume", 0) > 0
        assert suite.summary().get("rwlock_read_acquire", 0) > 0
        shim._test_skip_token_consume = True
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        assert {v.sanitizer for v in suite.violations} == {"token"}

    def test_detach_leaves_nothing_behind(self):
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        seen = suite.events_seen
        suite.detach()
        assert kernel.trace is None
        assert shim.tokens.on_event is None
        assert shim.lib.rwlock.on_event is None
        assert shim.profiler is None
        assert suite._resolvers == [] and suite._routes == {}
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        assert suite.events_seen == seen


class TestKindsFilter:
    """``kinds=`` narrows retention only: counters and sanitizers still
    see every event ("before ring-buffer filtering")."""

    def test_filtered_kinds_are_counted_but_not_retained(self):
        def run(kinds):
            kernel, _shim = make_enoki_kernel()
            observer = Observer.attach(kernel, kinds=kinds)
            for i in range(3):
                kernel.spawn(spin(), policy=POLICY, origin_cpu=i % 2)
            kernel.run_until_idle()
            return observer

        everything, narrow = run(None), run({"dispatch"})
        assert set(narrow.summary()) == {"dispatch"}
        assert narrow.summary()["dispatch"] == \
            everything.summary()["dispatch"]
        assert everything.filtered == 0
        assert narrow.filtered == \
            len(everything.events) - len(narrow.events) > 0
        assert narrow.registry.snapshot()["counters"] == \
            everything.registry.snapshot()["counters"]
        assert narrow.registry.histogram("enoki.msg_wall_ns").count == \
            everything.registry.counter("events.enoki_msg").value

    def test_sanitizers_see_filtered_kinds(self):
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel, kinds={"idle"})
        shim._test_skip_token_consume = True
        kernel.spawn(spin(), policy=POLICY)
        kernel.run_until_idle()
        assert set(suite.summary()) == {"idle"}
        assert suite.filtered > 0
        assert suite.events_seen == suite.filtered + len(suite.events)
        assert {v.sanitizer for v in suite.violations} == {"token"}
        assert "without consuming" in suite.violations[0].detail


class TestFuzzer:
    def test_generation_is_deterministic(self):
        assert generate_episode(77) == generate_episode(77)
        assert generate_episode(77) != generate_episode(78)

    def test_spec_roundtrips_through_json(self):
        for seed in (3, 11, 19, 27):
            spec = generate_episode(seed)
            data = json.loads(json.dumps(spec.to_dict()))
            assert type(spec).from_dict(data) == spec

    def test_episode_runs_are_reproducible(self):
        spec = generate_episode(123)
        first = run_episode(spec)
        second = run_episode(spec)
        assert first.events_seen == second.events_seen
        assert first.ok == second.ok
        assert len(first.violations) == len(second.violations)

    @pytest.mark.parametrize("sched", ["wfq", "fifo", "eevdf"])
    def test_small_clean_run_per_scheduler(self, sched):
        report = fuzz_run(5, seed=2, sched=sched)
        assert report.ok, [str(v) for r in report.failures
                           for v in r.violations[:3]]

    def test_recordable_episodes_are_replay_checked(self):
        report = fuzz_run(12, seed=4)
        checked = sum(1 for r in report.results if r.replay_checked)
        assert checked > 0
        assert all(r.control_checked for r in report.results)

    def test_planted_bug_fails_the_fuzz_run(self):
        report = fuzz_run(3, seed=9, bug="skip_consume")
        assert not report.ok
        kinds = {v.sanitizer for r in report.failures for v in r.violations}
        assert "token" in kinds


class TestShrinker:
    def _failing_spec(self):
        # A meaty episode (many tasks, no faults/upgrade so it records)
        # with the planted token bug.
        spec = generate_episode(4242, sched="wfq")
        return replace(spec, bug="skip_consume", plan=None, upgrade_at_ns=0)

    def test_shrinks_to_quarter_or_less(self):
        spec = self._failing_spec()
        result = shrink_episode(spec)
        assert result.shrunk_events <= result.original_events * 0.25, (
            f"only shrank {result.original_events} -> "
            f"{result.shrunk_events}")
        kinds = {v.sanitizer for v in result.violations}
        assert "token" in kinds         # the violation survived shrinking

    def test_refuses_to_shrink_a_passing_episode(self):
        spec = generate_episode(77, sched="fifo")
        with pytest.raises(ValueError):
            shrink_episode(spec)

    def test_artifact_roundtrip_reproduces(self, tmp_path):
        spec = self._failing_spec()
        result = shrink_episode(spec)
        path = str(tmp_path / "repro.json")
        write_artifact(path, result)
        loaded_spec, payload = load_artifact(path)
        assert payload["violations"]
        assert payload["repro_command"].endswith(path)
        rerun = run_episode(loaded_spec)
        assert not rerun.ok             # the artifact still fails
        assert {v.sanitizer for v in rerun.violations} == {"token"}

    def test_artifact_of_recordable_episode_carries_record_log(
            self, tmp_path):
        spec = self._failing_spec()
        result = shrink_episode(spec)
        path = str(tmp_path / "repro.json")
        write_artifact(path, result)
        _spec, payload = load_artifact(path)
        assert payload["record_log"], "recordable episode lost its log"
        assert payload["trace_tail"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "notrepro.json"
        path.write_text(json.dumps({"kind": "something else"}))
        with pytest.raises(ValueError):
            load_artifact(str(path))


class TestRingAccountingUnit:
    def test_balanced_after_mixed_traffic(self):
        ring = RingBuffer(4)
        for i in range(6):
            ring.push(i)
        ring.pop()
        ring.drain(2)
        assert ring.accounting_ok()
        ledger = ring.accounting()
        assert ledger["pushed"] == 4        # two rejected by drop-new
        assert ledger["dropped"] == 2

    def test_tampered_ledger_detected(self):
        ring = RingBuffer(4)
        ring.push(1)
        ring.popped += 1
        assert not ring.accounting_ok()
