"""Tests for the verify subsystem: sanitizers, fuzzer, and shrinker."""

import json
from dataclasses import replace

import pytest

from repro.core import EnokiSchedClass
from repro.core.hints import RingBuffer
from repro.exp import KernelBuilder
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.fifo import EnokiFifo
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.errors import SimError
from repro.obs import Observer
from repro.obs.metrics import Histogram
from repro.simkernel.program import Run, SendHint, Sleep
from repro.simkernel.tracing import EVENTS, GEN, LOCK, SchedTracer
from repro.verify import (EpisodeSpec, SanitizerError, SanitizerSuite,
                          ShrinkResult, assert_kernel_state,
                          check_kernel_state, fuzz_run, generate_episode,
                          load_artifact, run_episode, shrink_episode,
                          write_artifact)
from repro.verify.sanitizers import (DEFAULT_SANITIZERS, ClockSanitizer,
                                     Sanitizer, Violation,
                                     conservation_violations)

from tests.test_sanitizer_scans import (
    _blocked_in_limbo, _blocked_is_current, _dead_still_queued,
    _new_task_queued, _queued_twice, _runnable_in_limbo_and_queued,
    _runnable_is_current, _runnable_lost, _runnable_still_parked,
    _running_and_queued, _running_in_limbo, _running_on_wrong_cpu,
    _running_twice, _throttled_parked_twice, _throttled_still_queued,
    live_kernel)

POLICY = 7


def make_enoki_kernel(nr_cpus=2):
    session = (KernelBuilder(f"smp:{nr_cpus}").with_native("cfs")
               .with_enoki("fifo", policy=POLICY).build())
    return session.kernel, session.shim


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

    def test_task_of_an_unregistered_policy_is_not_monitored(self):
        kernel, _shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        task = kernel.spawn(spin(), policy=POLICY)
        suite._hook("dispatch", kernel.now, 0, (), pid=task.pid)
        assert [v.sanitizer for v in suite.violations] == ["token"]
        task.policy = 99
        suite._hook("dispatch", kernel.now, 0, (), pid=task.pid)
        assert [v.sanitizer for v in suite.violations] == ["token"]

    def test_unexpected_class_lookup_errors_propagate(self, monkeypatch):
        """Only the lookup's own error means "no class"; anything else
        is a bug and must not silently switch the token check off."""
        kernel, _shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        task = kernel.spawn(spin(), policy=POLICY)

        class Broken(dict):
            def __missing__(self, policy):
                raise KeyError(policy)
        monkeypatch.setattr(kernel, "_class_cache", Broken())
        with pytest.raises(KeyError):
            suite._hook("dispatch", kernel.now, 0, (), pid=task.pid)

    def test_an_unbacked_enoki_dispatch_is_flagged_a_failed_one_is_not(self):
        """Whether a class is an Enoki shim is settled once per class;
        whether it has failed is read at every dispatch."""
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        task = kernel.spawn(spin(), policy=POLICY)
        for failed in (False, True, False):
            shim.failed = failed
            suite._hook("dispatch", kernel.now, 0, (), pid=task.pid)
        assert [(v.sanitizer, v.pid) for v in suite.violations] == [
            ("token", task.pid)] * 2

    def test_a_failed_over_task_dispatches_without_a_token(self):
        kernel, shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        tasks = [kernel.spawn(spin(), policy=POLICY, origin_cpu=i % 2)
                 for i in range(4)]
        kernel.run_for(usecs(150))
        shim.containment.engage_failover(reason="test")
        failed_at = kernel.now
        kernel.run_until_idle()
        suite.check()
        assert suite.ok, suite.violation_report()
        assert shim.failed
        assert any(event.t_ns > failed_at and event.pid in
                   {task.pid for task in tasks}
                   for event in suite.events_of_kind("dispatch"))

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
        for detail, pid in (
                (f"task queued on 2 run queues {both}", queued.pid),
                (f"RUNNABLE task queued on {both}", queued.pid),
                (f"RUNNING task is current on {both} "
                 "(expected exactly one CPU)", running.pid)):
            assert Violation("conservation", kernel.now, detail,
                             pid) in violations, detail

    def test_conservation_flags_planted_states_exactly(self):
        """Every conservation flag, pinned with its time, wording, pid and
        cpu, in order: one planted corruption at a time (each reaches one
        of the scan's flags), then all of them at once."""
        plants = {
            _queued_twice: [
                (123, "task queued on 2 run queues [0, 1]", 1, -1),
                (123, "RUNNABLE task queued on [0, 1]", 1, -1)],
            _runnable_is_current: [
                (123, "RUNNABLE task is current on cpu 1", 1, -1),
                (123, "RUNNING task is current on [] (expected exactly "
                 "one CPU)", 4, -1)],
            _runnable_in_limbo_and_queued: [
                (123, "RUNNABLE task both in limbo and queued on [0]", 1,
                 -1)],
            _runnable_lost: [
                (123, "RUNNABLE task lost: on no run queue and not in "
                 "limbo", 1, -1)],
            _runnable_still_parked: [
                (123, "RUNNABLE task still parked in throttled group(s) "
                 "['b']", 3, -1)],
            _running_twice: [
                (123, "RUNNING task is current on [0, 1] (expected "
                 "exactly one CPU)", 4, -1),
                (123, "RUNNING task is current on [] (expected exactly "
                 "one CPU)", 7, -1)],
            _running_on_wrong_cpu: [
                (123, "RUNNING task thinks it is on cpu 0 but is current "
                 "on cpu 1", 4, -1)],
            _running_and_queued: [
                (123, "RUNNING task also queued=[1] limbo=False", 4, -1),
                (123, "run queue holds non-runnable task (state RUNNING)",
                 4, 1)],
            _running_in_limbo: [
                (123, "RUNNING task also queued=[] limbo=True", 4, -1)],
            _dead_still_queued: [
                (123, "dead task still scheduler-visible (queued=[0], "
                 "running=[], limbo=False)", 1, -1),
                (123, "run queue holds non-runnable task (state DEAD)", 1,
                 0)],
            _blocked_is_current: [
                (123, "BLOCKED task still scheduler-visible (queued=[], "
                 "running=[0], limbo=False)", 6, -1),
                (123, "RUNNING task is current on [] (expected exactly "
                 "one CPU)", 7, -1)],
            _blocked_in_limbo: [
                (123, "BLOCKED task still scheduler-visible (queued=[], "
                 "running=[], limbo=True)", 6, -1)],
            _throttled_still_queued: [
                (123, "THROTTLED task still scheduler-visible (queued=[0], "
                 "running=[], limbo=False)", 3, -1),
                (123, "THROTTLED task parked in no group(s) (expected "
                 "exactly one)", 3, -1),
                (123, "run queue holds non-runnable task (state "
                 "THROTTLED)", 3, 0)],
            _throttled_parked_twice: [
                (123, "THROTTLED task parked in ['a', 'b'] group(s) "
                 "(expected exactly one)", 3, -1)],
            _new_task_queued: [
                (123, "run queue holds non-runnable task (state NEW)", 1,
                 0)],
        }
        for plant, expected in plants.items():
            kernel = live_kernel()
            plant(kernel)
            assert [(v.sanitizer, v.at_ns, v.detail, v.pid, v.cpu)
                    for v in conservation_violations(kernel, at_ns=123)] \
                == [("conservation", *row) for row in expected], plant
        kernel = live_kernel()
        for plant in plants:
            if plant is not _throttled_parked_twice:   # no task left for it
                plant(kernel)
        assert [(v.at_ns, v.detail, v.pid, v.cpu)
                for v in conservation_violations(kernel)] == [
            (300000, "RUNNABLE task is current on cpu 1", 1, -1),
            (300000, "RUNNABLE task both in limbo and queued on [1]", 1, -1),
            (300000, "dead task still scheduler-visible (queued=[1], "
             "running=[], limbo=False)", 2, -1),
            (300000, "THROTTLED task still scheduler-visible (queued=[0], "
             "running=[], limbo=False)", 3, -1),
            (300000, "RUNNING task is current on [] (expected exactly one "
             "CPU)", 4, -1),
            (300000, "RUNNING task also queued=[0] limbo=True", 4, -1),
            (300000, "BLOCKED task still scheduler-visible (queued=[], "
             "running=[0], limbo=True)", 6, -1),
            (300000, "RUNNING task is current on [] (expected exactly one "
             "CPU)", 7, -1),
            (300000, "run queue holds non-runnable task (state THROTTLED)",
             3, 0),
            (300000, "run queue holds non-runnable task (state NEW)", 5, 0),
            (300000, "run queue holds non-runnable task (state RUNNING)",
             4, 0),
            (300000, "run queue holds non-runnable task (state DEAD)", 2, 1),
        ]

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
        suite._hook("dispatch", 100, 0, (), pid=1)
        suite._hook("dispatch", 50, 0, (), pid=2)
        assert any(v.sanitizer == "clock" for v in suite.violations)

    #: a stream whose stamps go backwards: (kind, t, thread, pid, fields)
    BACKWARDS_STREAM = (
        ("dispatch", 100, 0, 1, {}),
        ("wakeup", 50, 1, 2, {}),
        ("timer_fire", 0, 0, None, {}),     # still after 100: not advanced
        ("enoki_msg", 120, 1, 3, {"func": "pick_next_task", "wall_ns": 5}),
        ("lock_acquire", 110, 0, None, {"lock": "A"}),
        ("lock_release", 130, 0, None, {"lock": "A"}),
        ("token_consume", 125, 1, 4, {"gen": 1}),   # and a double consume
        ("hint_enqueue", 130, 0, 5, {"depth": 1}),  # an equal stamp
        ("never_heard_of_it", 129, 2, None, {}),
        ("rwlock_read_acquire", 140, -1, None, {"lock": "q"}),
        ("rwlock_read_release", 0, -1, None, {"lock": "q"}),
        ("throttle", 135, 0, None, {"group": "g0"}),
        ("idle", 140, 1, None, {}),
    )

    def test_backwards_stamps_are_flagged_exactly(self):
        """Every clock flag of a stream with backwards stamps of several
        kinds, with its time, wording, pid and cpu, in order."""
        suite = SanitizerSuite()
        for kind, t, cpu, pid, fields in self.BACKWARDS_STREAM:
            suite._hook(kind, t, cpu, tuple(fields), *fields.values(),
                        pid=pid)
        suite.check()
        backwards = "clock went backwards: {} at {} ns after an event at " \
            "{} ns"
        assert [(v.sanitizer, v.at_ns, v.detail, v.pid, v.cpu)
                for v in suite.violations] == [
            ("clock", 50, backwards.format("wakeup", 50, 100), 2, 1),
            ("clock", 0, backwards.format("timer_fire", 0, 100), -1, 0),
            ("clock", 110, backwards.format("lock_acquire", 110, 120), -1, 0),
            ("token", 125, "token consumed while none live "
             "(double-consume or use-after-revoke)", 4, 1),
            ("clock", 125, backwards.format("token_consume", 125, 130), 4, 1),
            ("clock", 129, backwards.format("never_heard_of_it", 129, 130),
             -1, 2),
            ("clock", 0, backwards.format("rwlock_read_release", 0, 140),
             -1, -1),
            ("clock", 135, backwards.format("throttle", 135, 140), -1, 0),
        ]

    def test_a_backwards_stamp_is_flagged_after_its_sinks(self):
        """The intake checks the stamp once the event's sinks have run,
        so the clock flag follows every other flag that event drew."""
        suite = SanitizerSuite()
        suite._hook("idle", 10, 0, ())
        suite._hook("lock_release", 5, 1, LOCK, "Z")
        suite._hook("token_consume", 5, 1, GEN, 3, pid=9)
        assert [v.sanitizer for v in suite.violations] == [
            "lock", "clock", "token", "clock"]

    def test_release_of_unheld_lock(self):
        suite = SanitizerSuite()
        suite._hook("lock_release", 10, 0, LOCK, 3)
        assert any(v.sanitizer == "lock"
                   and "does not hold" in v.detail
                   for v in suite.violations)

    def test_lock_order_inversion(self):
        suite = SanitizerSuite()
        # thread 0 takes A then B; thread 1 takes B then A: ABBA.
        suite._hook("lock_acquire", 1, 0, LOCK, "A")
        suite._hook("lock_acquire", 2, 0, LOCK, "B")
        suite._hook("lock_release", 3, 0, LOCK, "B")
        suite._hook("lock_release", 4, 0, LOCK, "A")
        suite._hook("lock_acquire", 5, 1, LOCK, "B")
        suite._hook("lock_acquire", 6, 1, LOCK, "A")
        assert any("inversion" in v.detail for v in suite.violations)

    def test_consistent_lock_order_is_clean(self):
        suite = SanitizerSuite()
        for thread in (0, 1):
            suite._hook("lock_acquire", thread * 10 + 1, thread, LOCK, "A")
            suite._hook("lock_acquire", thread * 10 + 2, thread, LOCK, "B")
            suite._hook("lock_release", thread * 10 + 3, thread, LOCK, "B")
            suite._hook("lock_release", thread * 10 + 4, thread, LOCK, "A")
        suite.check()
        assert suite.ok, suite.violation_report()

    def test_held_lock_at_end_of_run(self):
        suite = SanitizerSuite()
        suite._hook("lock_acquire", 1, 0, LOCK, "A")
        suite.check()
        assert any("still holds" in v.detail for v in suite.violations)

    def test_lock_leaks_are_reported_at_the_end_of_run_time(self):
        kernel, _shim = make_enoki_kernel()
        suite = SanitizerSuite.attach(kernel)
        kernel.spawn(spin(phases=1), policy=POLICY)
        kernel.run_until_idle()
        suite._hook("lock_acquire", 1, 0, LOCK, "A")
        suite._hook("rwlock_read_acquire", 2, -1, LOCK, "q")
        suite.check()
        leaks = [v for v in suite.violations if v.sanitizer == "lock"]
        assert [v.detail.split()[0] for v in leaks] == ["thread", "rwlock"]
        assert kernel.now > 0
        assert {v.at_ns for v in leaks} == {kernel.now}

    def test_lock_leaks_of_a_detached_suite_are_reported_at_zero(self):
        suite = SanitizerSuite()
        suite._hook("lock_acquire", 1, 0, LOCK, "A")
        suite.check()
        assert [v.at_ns for v in suite.violations] == [0]

    def test_rwlock_reader_during_writer(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_write_acquire", 1, -1, LOCK, "q")
        suite._hook("rwlock_read_acquire", 2, -1, LOCK, "q")
        assert any(v.sanitizer == "lock" and "writer holds" in v.detail
                   for v in suite.violations)

    def test_rwlock_release_underflow(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_read_release", 1, -1, LOCK, "q")
        assert any("underflow" in v.detail for v in suite.violations)

    #: one broken lock stream: (kind, thread, lock field or None)
    BROKEN_LOCK_STREAM = (
        ("lock_acquire", 0, "A"),
        ("lock_acquire", 1, "A"),           # A taken by a second thread
        ("lock_acquire", 0, "B"),
        ("lock_acquire", 0, "A"),           # re-acquired by its holder
        ("lock_release", 0, "A"),           # thread 0 still holds B, A
        ("lock_release", 2, "B"),           # released by a non-holder
        ("lock_acquire", 3, "C"),
        ("lock_acquire", 3, "D"),
        ("lock_release", 3, "D"),
        ("lock_release", 3, "C"),
        ("lock_acquire", 4, "D"),
        ("lock_acquire", 4, "C"),           # ABBA: D -> C against C -> D
        ("lock_release", 4, "C"),
        ("lock_release", 4, "D"),
        ("lock_acquire", 7, "C"),           # free again: no flag
        ("lock_release", 7, "C"),
        ("lock_acquire", 5, None),          # no ``lock`` field
        ("lock_release", 5, None),
        ("lock_release", 6, None),
        ("rwlock_write_acquire", -1, "q"),
        ("rwlock_read_acquire", -1, "q"),   # a reader under the writer
        ("rwlock_read_release", -1, "q"),
        ("rwlock_read_release", -1, "q"),   # read underflow
        ("rwlock_write_release", -1, "q"),
        ("rwlock_read_acquire", -1, "r"),
        ("rwlock_write_acquire", -1, "r"),  # a writer over a reader
        ("rwlock_write_release", -1, "r"),
        ("rwlock_read_release", -1, "r"),
        ("rwlock_write_release", -1, "s"),  # write release without hold
        ("rwlock_read_acquire", -1, None),  # no ``lock`` field: leaks
    )

    def test_lock_sanitizer_flags_a_broken_stream_exactly(self):
        """Every lock flag, its time and its wording, in order."""
        suite = SanitizerSuite()
        for t, (kind, thread, lock) in enumerate(self.BROKEN_LOCK_STREAM):
            if lock is None:
                suite._hook(kind, t + 1, thread, ())
            else:
                suite._hook(kind, t + 1, thread, LOCK, lock)
        suite.check()
        inversion = "lock-order inversion: {} closes a cycle in the " \
            "acquisition graph"
        assert [(v.sanitizer, v.at_ns, v.detail)
                for v in suite.violations] == [
            ("lock", 2, "lock A acquired by thread 1 while held by thread 0"),
            ("lock", 4, "lock A acquired by thread 0 while held by thread 0"),
            ("lock", 4, "lock A acquired by thread 0 while held by thread 1"),
            ("lock", 4, inversion.format("A -> A")),
            ("lock", 4, inversion.format("B -> A")),
            ("lock", 6, "lock B released by thread 2 which does not hold it"),
            ("lock", 12, inversion.format("D -> C")),
            ("lock", 19,
             "lock None released by thread 6 which does not hold it"),
            ("lock", 21,
             "rwlock 'q': read acquired while the upgrade writer holds it"),
            ("lock", 23, "rwlock 'q': read release underflow"),
            ("lock", 26,
             "rwlock 'r': write acquired with 1 readers inside "
             "(writer=False)"),
            ("lock", 29, "rwlock 's': write release without hold"),
            ("lock", 0, "thread 0 still holds locks ['B', 'A'] at end of run"),
            ("lock", 0, "thread 1 still holds locks ['A'] at end of run"),
            ("lock", 0, "rwlock '?' leaked: readers=1 writer=False"),
        ]

    def test_double_consume_without_issue(self):
        suite = SanitizerSuite()
        suite._hook("token_consume", 5, 0, GEN, 1, pid=1)
        assert any(v.sanitizer == "token"
                   and "none live" in v.detail
                   for v in suite.violations)


#: kind -> the default sanitizers routed its events (everything else
#: returned immediately when all six were offered every event).  Covers
#: every kind of ``repro.simkernel.tracing.EVENTS``, one kind nobody has
#: heard of and one the lock sanitizer lacks.  ``clock`` is routed
#: nothing: the intake checks every stamp itself (see
#: ``test_a_backwards_stamp_of_each_kind_is_flagged_once``).
ROUTING_TABLE = {
    "dispatch": {"token", "conservation"},
    "idle": {"conservation"},
    "wakeup": {"conservation"},
    "fork": {"conservation"},
    "preempt": {"conservation"},
    "migrate": {"conservation"},
    "migrate_failed": set(),
    "timer_fire": set(),
    "enoki_msg": set(),
    "lock_acquire": {"lock"},
    "lock_release": {"lock"},
    "rwlock_read_acquire": {"lock"},
    "rwlock_read_release": {"lock"},
    "rwlock_write_acquire": {"lock"},
    "rwlock_write_release": {"lock"},
    "upgrade": {"conservation"},
    "hint_enqueue": set(),
    "hint_drop": set(),
    "hint_dequeue": set(),
    "token_issue": {"token"},
    "token_consume": {"token"},
    "token_revoke": {"token"},
    "failover": {"conservation"},
    "throttle": {"conservation", "group_bandwidth"},
    "unthrottle": {"conservation", "group_bandwidth"},
    "quota_refill": {"group_bandwidth"},
    "enoki_panic": set(),
    "slo_violation": set(),
    "watchdog_finding": set(),
    "never_heard_of_it": set(),
    "rwlock_downgrade": set(),          # an op the lock sanitizer lacks:
    #                                     still retained and counted
}


#: a value for the fields some sink reads, as their emitters pass them;
#: every other field carries its own name, so a sink that reads a field
#: off the wrong index shows it
FIELD_VALUES = {"lock": "L", "gen": 1, "slo": "s", "hook": "task_tick",
                "group": "g0", "finding": "lost_task", "depth": 3}


def payload(kind):
    """The keys and values of one event of ``kind``: its first keys
    tuple in the table (none for a kind the table lacks)."""
    keys = EVENTS[kind][1][0] if kind in EVENTS else ()
    return keys, tuple(FIELD_VALUES[field] if field in FIELD_VALUES
                       else field for field in keys)


def spying(cls, seen):
    """``cls`` with every sink its ``route`` hands out noting the
    delivery first (so per-kind sinks are held to the table too)."""
    class Spy(cls):
        def route(self, kind):
            sink = super().route(kind)
            if sink is None:
                return None

            def spy(kind, t, cpu, pid, cost, keys, values):
                seen.append((cls.name, kind))
                sink(kind, t, cpu, pid, cost, keys, values)
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
        keys, values = payload(kind)
        for t in (1, 2):        # second event rides the cached route
            suite._hook(kind, t, 0, keys, *values, pid=1)
        assert seen == [(name, kind) for _ in (1, 2)
                        for name in [cls.name for cls in DEFAULT_SANITIZERS]
                        if name in ROUTING_TABLE[kind]]
        assert suite.events_seen == 2
        assert [event.kind for event in suite.events] == [kind, kind]
        assert suite.registry.counter("events." + kind).value == 2

    @pytest.mark.parametrize("kind", sorted(ROUTING_TABLE))
    def test_a_backwards_stamp_of_each_kind_is_flagged_once(self, kind):
        """Stamp order is the intake's check: one backwards stamp, of any
        kind, draws exactly one ``clock`` flag, worded as the per-event
        sink worded it, and only from a suite that holds the clock
        sanitizer.  The other sanitizers flag what they flagged."""
        others = [cls for cls in DEFAULT_SANITIZERS
                  if cls is not ClockSanitizer]
        suite, without = SanitizerSuite(), SanitizerSuite(sanitizers=others)
        observer = Observer()
        keys, values = payload(kind)
        for watcher in (suite, without, observer):
            watcher._hook("idle", 10, 1, ())
            watcher._hook(kind, 5, 0, keys, *values, pid=1)
            watcher._hook("idle", 10, 1, ())      # equal: in order
        assert [v for v in suite.violations if v.sanitizer == "clock"] == [
            Violation("clock", 5, f"clock went backwards: {kind} at 5 ns "
                      "after an event at 10 ns", pid=1, cpu=0)]
        assert [v for v in suite.violations if v.sanitizer != "clock"] \
            == without.violations
        assert suite.registry.counter("verify.clock").value == 1
        assert "verify.clock" not in without.registry.counters
        assert not any(name.startswith("verify.")
                       for name in observer.registry.counters)
        assert [e.kind for e in observer.events] == ["idle", kind, "idle"]

    def test_table_covers_the_documented_taxonomy(self):
        assert set(ROUTING_TABLE) == set(EVENTS) | {"never_heard_of_it",
                                                    "rwlock_downgrade"}

    def test_named_counters_read_the_fields_the_table_gives(self):
        """An observer fed one event of each kind names its counters
        after the fields the table puts at the index it reads."""
        observer = Observer()
        for kind in sorted(ROUTING_TABLE):
            keys, values = payload(kind)
            observer._hook(kind, 1, 0, keys, *values, pid=1)
        named = {name for name in observer.registry.counters
                 if not name.startswith("events.")}
        assert named == {
            "slo.traced.s", "containment.panics",
            "containment.panic.task_tick", "containment.failovers",
            "group_throttles", "groups.g0.throttles", "group_refills",
            "watchdog.lost_task"}
        assert observer.registry.gauge("enoki.hint_ring_depth").value == 3

    def test_sanitizer_overriding_only_on_event_sees_every_event(self):
        seen = []

        class Everything(Sanitizer):
            name = "everything"

            def on_event(self, kind, t, cpu, pid, cost, keys, values):
                seen.append(kind)

        suite = SanitizerSuite(sanitizers=[Everything])
        for kind in sorted(ROUTING_TABLE):
            keys, values = payload(kind)
            suite._hook(kind, 1, 0, keys, *values)
        assert seen == sorted(ROUTING_TABLE)

    def test_rwlock_prefix_reaches_the_lock_sanitizer(self):
        suite = SanitizerSuite()
        suite._hook("rwlock_write_acquire", 1, -1, LOCK, "q")
        suite._hook("rwlock_write_acquire", 2, -1, LOCK, "q")
        assert any(v.sanitizer == "lock" and "write acquired" in v.detail
                   for v in suite.violations)

    def test_no_default_sink_changes_the_fields_the_ring_retains(self):
        """Every sink is handed the emitter's own keys and values, after
        the default sinks have run on them, and the ring retains that
        payload; ``cost`` travels on its own."""
        suite = SanitizerSuite()

        def unchanged(kind, t, cpu, pid, cost, keys, values):  # routed last
            assert (keys, values, cost) == (*payload(kind), 7), kind
        suite.add_route(lambda kind: unchanged)
        for kind in sorted(ROUTING_TABLE):
            keys, values = payload(kind)
            suite._hook(kind, 1, 0, keys, *values, pid=1, cost=7)
        assert [(e.kind, e.cost_ns, e.args) for e in suite.events] == [
            (kind, 7, tuple(sorted(zip(*payload(kind)))))
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
        assert rwlock.try_acquire_write()
        rwlock.on_event("rwlock_read_acquire", rwlock.clock.now, -1, LOCK,
                        rwlock.name)
        assert [v.sanitizer for v in suite.violations] == ["lock"]
        assert "read acquired while the upgrade writer holds it" in \
            suite.violations[0].detail

    def test_route_added_after_first_event_takes_effect(self):
        tracer = SchedTracer()
        tracer._hook("dispatch", 1, 0, (), pid=1)
        late = []
        tracer.add_route(lambda kind: (
            (lambda kind, t, cpu, pid, cost, keys, values:
             late.append((kind, t)))
            if kind == "dispatch" else None))
        tracer._hook("dispatch", 2, 0, (), pid=1)
        tracer._hook("idle", 3, 0, ())
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
        # Registered into a kernel that has already run, which a build
        # cannot do: the late registration is what this test is about.
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
        assert narrow.collect().histograms["enoki.msg_wall_ns"].count == \
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


class TestMsgWallHistogram:
    """``enoki.msg_wall_ns`` is built at ``collect()`` as the merge of the
    profilers' per-hook histograms, not recorded a second time live."""

    def test_merge_is_every_crossing_of_every_shim_once(self):
        kernel, _shim = make_enoki_kernel()
        observer = Observer.attach(kernel)
        kernel.spawn(spin(), policy=POLICY)
        kernel.run_until_idle()
        # A second Enoki class, registered after attach (as in
        # ``test_scheduler_registered_after_attach_is_audited``).
        EnokiSchedClass.register(kernel, EnokiFifo(2, POLICY + 1),
                                 POLICY + 1, priority=11)
        observer.observe_framework()
        for i in range(3):
            kernel.spawn(spin(), policy=POLICY + i % 2, origin_cpu=i % 2)
        kernel.run_until_idle()
        assert sorted(observer.profilers) == [POLICY, POLICY + 1]
        registry = observer.collect()
        merged = registry.histograms["enoki.msg_wall_ns"]
        assert merged.count == registry.counter("events.enoki_msg").value > 0
        profiles = [profile for profiler in observer.profilers.values()
                    for profile in profiler.hooks.values()]
        buckets = {}
        for profile in profiles:
            for index, samples in profile.wall_hist.buckets.items():
                buckets[index] = buckets.get(index, 0) + samples
        assert merged.buckets == buckets
        assert merged.sum == sum(profile.wall_ns for profile in profiles)
        # What recording each crossing's ``wall_ns`` live would have held.
        live = Histogram("enoki.msg_wall_ns")
        for event in observer.events_of_kind("enoki_msg"):
            live.record(event.arg("wall_ns"))
        assert merged.snapshot() == live.snapshot()
        assert observer.collect().histograms["enoki.msg_wall_ns"] \
            .snapshot() == live.snapshot()      # collect is idempotent

    def test_no_crossing_no_histogram(self):
        kernel = Kernel(Topology.smp(2), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
        observer = Observer.attach(kernel)
        kernel.spawn(spin(phases=1), policy=0)
        kernel.run_until_idle()
        assert "enoki.msg_wall_ns" not in observer.collect().histograms


class TestFuzzer:
    def test_generation_is_deterministic(self):
        assert generate_episode(77) == generate_episode(77)
        assert generate_episode(77) != generate_episode(78)

    def test_spec_roundtrips_through_json(self):
        for seed in (3, 11, 19, 27):
            spec = generate_episode(seed)
            data = json.loads(json.dumps(spec.to_dict()))
            assert type(spec).from_dict(data) == spec

    @pytest.mark.parametrize("task, key, value", [
        (False, "nr_cpus", "x"), (False, "seed", 1.5),
        (False, "upgrade_at_ns", "5"), (False, "plan", []),
        (False, "tasks", "t"), (True, "run_ns", "5"),
        (True, "hints", 1), (True, "phases", True), (True, "group", None),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_wrong_typed_value_is_named_at_load(self, task, key, value):
        data = generate_episode(3).to_dict()
        (data["tasks"][0] if task else data)[key] = value
        with pytest.raises(SimError, match=repr(key)):
            EpisodeSpec.from_dict(data)

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

    def test_artifact_record_log_is_the_failing_runs_own(self, tmp_path):
        # A recordable episode inside a group forest: the log must come
        # from the run that failed, groups and group policies included.
        spec = replace(generate_episode(9), bug="skip_consume")
        assert spec.groups and spec.recordable
        failing = run_episode(spec, capture=True)
        assert not failing.ok
        path = str(tmp_path / "repro.json")
        write_artifact(path, ShrinkResult(
            original=spec, shrunk=spec,
            original_events=failing.events_seen,
            shrunk_events=failing.events_seen,
            violations=failing.violations))
        _spec, payload = load_artifact(path)
        own = json.loads(json.dumps(failing.recorder.entries[:2000]))
        assert payload["record_log"] == own

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
