"""The two per-event state scans report exactly what their reference
versions report.

``conservation_violations`` and ``group_bandwidth_violations`` run on
every scan-kind event of a watched kernel, so they are written for speed.
The reference below is the straightforward form they replaced, kept
verbatim except that the two kernel helpers it called (``in_limbo`` and
``parked_containers``) are inlined.  Every verdict — detail, order,
``at_ns``, pid and cpu — must match: first on a catalogue of planted
corruptions that reaches every distinct flag of both scans, then on every
scan of a sweep of live fuzz episodes.
"""

import pytest

from repro.schedulers.cfs import CfsSchedClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.task import TaskState
from repro.verify.fuzz import _run_episode_session, generate_episode
from repro.verify.sanitizers import (ConservationSanitizer,
                                     GroupBandwidthSanitizer, SanitizerSuite,
                                     TokenSanitizer, Violation,
                                     conservation_violations,
                                     group_bandwidth_violations)
from tests.call_census import CallCensus


# ----------------------------------------------------------------------
# the reference scans
# ----------------------------------------------------------------------

def _in_limbo(kernel, pid):
    return pid in kernel._limbo


def _parked_containers(kernel, pid):
    return [g.name for g in kernel.groups.all_groups() if pid in g.parked]


def reference_conservation_violations(kernel, at_ns=None):
    out = []
    now = kernel.now if at_ns is None else at_ns

    def flag(detail, pid=-1, cpu=-1):
        out.append(Violation("conservation", now, detail, pid, cpu))

    queued_on, running_on = {}, {}
    for rq in kernel.rqs:
        for pid in rq.queued:
            queued_on.setdefault(pid, []).append(rq.cpu)
        if rq.current is not None:
            running_on.setdefault(rq.current.pid, []).append(rq.cpu)
    nowhere = []
    for pid, task in kernel.tasks.items():
        queued = queued_on.get(pid, nowhere)
        running = running_on.get(pid, nowhere)
        limbo = _in_limbo(kernel, pid)
        state = task.state
        if len(queued) > 1:
            flag(f"task queued on {len(queued)} run queues {queued}",
                 pid=pid)
        if state is TaskState.DEAD:
            if queued or running or limbo:
                flag("dead task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
        elif state is TaskState.RUNNING:
            if len(running) != 1:
                flag(f"RUNNING task is current on {running} "
                     "(expected exactly one CPU)", pid=pid)
            elif running[0] != task.cpu:
                flag(f"RUNNING task thinks it is on cpu {task.cpu} but "
                     f"is current on cpu {running[0]}", pid=pid)
            if queued or limbo:
                flag(f"RUNNING task also queued={queued} limbo={limbo}",
                     pid=pid)
        elif state is TaskState.RUNNABLE:
            if running:
                flag(f"RUNNABLE task is current on cpu {running[0]}",
                     pid=pid)
            if limbo and queued:
                flag(f"RUNNABLE task both in limbo and queued on "
                     f"{queued}", pid=pid)
            if not limbo and len(queued) != 1:
                flag("RUNNABLE task lost: on no run queue and not in "
                     "limbo" if not queued else
                     f"RUNNABLE task queued on {queued}", pid=pid)
            if _parked_containers(kernel, pid):
                flag("RUNNABLE task still parked in throttled group(s) "
                     f"{_parked_containers(kernel, pid)}", pid=pid)
        elif state is TaskState.BLOCKED:
            if queued or running or limbo:
                flag(f"BLOCKED task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
        elif state is TaskState.THROTTLED:
            if queued or running or limbo:
                flag(f"THROTTLED task still scheduler-visible "
                     f"(queued={queued}, running={running}, "
                     f"limbo={limbo})", pid=pid)
            containers = _parked_containers(kernel, pid)
            if len(containers) != 1:
                flag("THROTTLED task parked in "
                     f"{containers if containers else 'no'} group(s) "
                     "(expected exactly one)", pid=pid)
    for rq in kernel.rqs:
        for pid, task in rq.queued.items():
            if task.state is not TaskState.RUNNABLE:
                flag(f"run queue holds non-runnable task "
                     f"(state {task.state.name})", pid=pid, cpu=rq.cpu)
    return out


def reference_group_bandwidth_violations(kernel, at_ns=None):
    out = []
    now = kernel.now if at_ns is None else at_ns
    groups = kernel.groups
    if not groups.has_groups():
        return out

    def flag(detail, pid=-1, cpu=-1):
        out.append(Violation("group_bandwidth", now, detail, pid, cpu))

    nr_cpus = kernel.topology.nr_cpus
    slack = kernel.config.bandwidth_slack_ns(nr_cpus)
    all_groups = groups.all_groups()

    # -- recount the per-CPU runnable index from task states -----------
    task_weight = {g.name: [0] * nr_cpus for g in all_groups}
    counted = {g.name: [0] * nr_cpus for g in all_groups}
    for pid, task in kernel.tasks.items():
        group = task.group
        accounted = (task.state is TaskState.RUNNING
                     or (task.state is TaskState.RUNNABLE and task.on_rq))
        if group is None:
            if task.group_cpu != -1:
                flag(f"ungrouped task has group_cpu {task.group_cpu}",
                     pid=pid)
            continue
        if accounted:
            if task.group_cpu != task.cpu:
                flag(f"runnable grouped task accounted on cpu "
                     f"{task.group_cpu}, lives on cpu {task.cpu}",
                     pid=pid, cpu=task.cpu)
            elif 0 <= task.group_cpu < nr_cpus:
                task_weight[group.name][task.group_cpu] += task.weight
                counted[group.name][task.group_cpu] += 1
        elif task.group_cpu != -1:
            flag(f"{task.state.name} grouped task still accounted on "
                 f"cpu {task.group_cpu}", pid=pid)

    for group in all_groups:
        for cpu in range(nr_cpus):
            expect_tw = task_weight[group.name][cpu]
            expect_nr = counted[group.name][cpu]
            expect_cw = 0
            for child in group.children:
                if child.nr_runnable[cpu] > 0:
                    expect_nr += 1
                    expect_cw += child.weight
            if group.task_weight[cpu] != expect_tw:
                flag(f"group {group.name!r} task_weight[{cpu}] is "
                     f"{group.task_weight[cpu]}, recount says "
                     f"{expect_tw}", cpu=cpu)
            if group.child_weight[cpu] != expect_cw:
                flag(f"group {group.name!r} child_weight[{cpu}] is "
                     f"{group.child_weight[cpu]}, recount says "
                     f"{expect_cw}", cpu=cpu)
            if group.nr_runnable[cpu] != expect_nr:
                flag(f"group {group.name!r} nr_runnable[{cpu}] is "
                     f"{group.nr_runnable[cpu]}, recount says "
                     f"{expect_nr}", cpu=cpu)

    # -- bandwidth, conservation, throttle containment -----------------
    for group in all_groups:
        if group.quota_ns:
            for label, consumed in (
                    ("current", group.period_consumed_ns),
                    ("max", group.max_period_consumed_ns)):
                if consumed > group.quota_ns + slack:
                    flag(f"group {group.name!r} {label} period "
                         f"consumption {consumed} exceeds quota "
                         f"{group.quota_ns} + slack {slack}")
        subtree_runtime = 0
        for node in group.iter_subtree():
            subtree_runtime += sum(
                t.sum_exec_runtime_ns for t in node.members.values())
        if subtree_runtime != group.total_runtime_ns:
            flag(f"group {group.name!r} runtime {group.total_runtime_ns}"
                 f" != subtree task runtime {subtree_runtime} "
                 "(runtime lost or invented)")
        if group.throttled:
            for node in group.iter_subtree():
                for pid, task in node.members.items():
                    if (task.state is TaskState.RUNNABLE
                            and task.on_rq):
                        flag(f"throttled group {group.name!r} has "
                             f"queued member via {node.name!r}",
                             pid=pid)
    return out


# ----------------------------------------------------------------------
# a live grouped kernel, and the corruptions planted in it
# ----------------------------------------------------------------------

def _bursts(run_ns):
    def prog():
        for _ in range(3):
            yield Run(run_ns)
            yield Sleep(msecs(5))
    return prog


def live_kernel():
    """Mid-flight on two CPUs: a running task on each, queued tasks in
    every group, blocked ones, and a forest ``a`` -> ``b`` (capped) plus
    ``c``; pids 7 and 8 are ungrouped."""
    kernel = Kernel(Topology.smp(2), SimConfig())
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    kernel.groups.create("a", weight=2048)
    kernel.groups.create("b", parent="a", quota_ns=msecs(1),
                         period_ns=msecs(10))
    kernel.groups.create("c")
    for i, (group, run_us) in enumerate((
            ("a", 500), ("a", 40), ("b", 500), ("b", 500),
            ("c", 500), ("c", 40), (None, 500), (None, 40))):
        kernel.spawn(_bursts(usecs(run_us)), group=group, origin_cpu=i % 2)
    kernel.run_for(usecs(300))
    return kernel


def pick(kernel, state, group=False, on_rq=None):
    """The first task in ``state`` (and ``group`` by name, None meaning
    ungrouped, False meaning any)."""
    for task in kernel.tasks.values():
        if task.state is not state:
            continue
        name = task.group.name if task.group is not None else None
        if group is not False and name != group:
            continue
        if on_rq is not None and task.on_rq != on_rq:
            continue
        return task
    raise LookupError(f"no {state.name} task in group {group!r}")


def queued(kernel, group=False):
    return pick(kernel, TaskState.RUNNABLE, group, on_rq=True)


def running(kernel, group=False):
    return pick(kernel, TaskState.RUNNING, group)


def other_rq(kernel, task):
    return kernel.rqs[1 - task.cpu]


def _queued_twice(k):
    task = queued(k)
    other_rq(k, task).queued[task.pid] = task


def _running_twice(k):
    task = running(k)
    other_rq(k, task).current = task


def _running_on_wrong_cpu(k):
    task = running(k)
    task.cpu = 1 - task.cpu


def _running_and_queued(k):
    task = running(k)
    k.rqs[task.cpu].queued[task.pid] = task


def _running_in_limbo(k):
    k._limbo.add(running(k).pid)


def _runnable_is_current(k):
    task = queued(k)
    other_rq(k, task).current = task


def _runnable_in_limbo_and_queued(k):
    k._limbo.add(queued(k).pid)


def _runnable_lost(k):
    task = queued(k)
    k.rqs[task.cpu].detach(task)


def _runnable_in_limbo_only(k):         # legal: deferred placement
    task = queued(k)
    k.rqs[task.cpu].detach(task)
    k.groups.unaccount(task)
    k._limbo.add(task.pid)


def _runnable_still_parked(k):
    task = queued(k, "b")
    k.groups.group("b").parked[task.pid] = (task, "wake")


def _dead_still_queued(k):
    queued(k).state = TaskState.DEAD


def _blocked_in_limbo(k):
    k._limbo.add(pick(k, TaskState.BLOCKED).pid)


def _blocked_is_current(k):
    k.rqs[0].current = pick(k, TaskState.BLOCKED)


def _throttled_still_queued(k):
    queued(k, "b").state = TaskState.THROTTLED


def _throttled_parked_twice(k):
    task = queued(k, "b")
    k.rqs[task.cpu].detach(task)
    k.groups.unaccount(task)
    task.state = TaskState.THROTTLED
    for name in ("a", "b"):
        k.groups.group(name).parked[task.pid] = (task, "wake")


def _legally_throttled(k):
    task = queued(k, "b")
    k.rqs[task.cpu].detach(task)
    k.groups.park(task, k.groups.group("b"))


def _new_task_queued(k):
    queued(k).state = TaskState.NEW


def _ungrouped_with_group_cpu(k):
    pick(k, TaskState.BLOCKED, None).group_cpu = 0


def _accounted_on_wrong_cpu(k):
    task = queued(k, "c")
    task.group_cpu = 1 - task.cpu


def _blocked_still_accounted(k):
    pick(k, TaskState.BLOCKED, "c").group_cpu = 1


def _task_weight_drift(k):
    k.groups.group("c").task_weight[0] += 1


def _child_weight_drift(k):
    k.groups.group("a").child_weight[1] -= 1


def _nr_runnable_drift_childless(k):
    k.groups.group("b").nr_runnable[1] += 1


def _nr_runnable_drift_with_children(k):
    k.groups.group("root").nr_runnable[0] += 2


def _runtime_lost(k):
    k.groups.group("b").total_runtime_ns += 1


def _over_quota_now(k):
    k.groups.group("b").period_consumed_ns = msecs(1) + msecs(5)


def _over_quota_max(k):
    k.groups.group("b").max_period_consumed_ns = msecs(9)


def _throttled_with_queued_member(k):
    queued(k, "b")
    k.groups.group("a").throttled = True


#: plant -> a detail fragment the reference must report for it (None:
#: the planted state is legal and both scans must stay silent)
CATALOGUE = {
    _queued_twice: "task queued on 2 run queues",
    _running_twice: "(expected exactly one CPU)",
    _running_on_wrong_cpu: "RUNNING task thinks it is on cpu",
    _running_and_queued: "RUNNING task also queued=",
    _running_in_limbo: "limbo=True",
    _runnable_is_current: "RUNNABLE task is current on cpu",
    _runnable_in_limbo_and_queued: "RUNNABLE task both in limbo",
    _runnable_lost: "RUNNABLE task lost",
    _runnable_in_limbo_only: None,
    _runnable_still_parked: "RUNNABLE task still parked",
    _dead_still_queued: "dead task still scheduler-visible",
    _blocked_in_limbo: "BLOCKED task still scheduler-visible",
    _blocked_is_current: "BLOCKED task still scheduler-visible "
                         "(queued=[], running=[0], limbo=False)",
    _throttled_still_queued: "THROTTLED task parked in no group(s)",
    _throttled_parked_twice: "THROTTLED task parked in ['a', 'b']",
    _legally_throttled: None,
    _new_task_queued: "run queue holds non-runnable task (state NEW)",
    _ungrouped_with_group_cpu: "ungrouped task has group_cpu 0",
    _accounted_on_wrong_cpu: "runnable grouped task accounted on cpu",
    _blocked_still_accounted: "BLOCKED grouped task still accounted",
    _task_weight_drift: "group 'c' task_weight[0]",
    _child_weight_drift: "group 'a' child_weight[1]",
    _nr_runnable_drift_childless: "group 'b' nr_runnable[1]",
    _nr_runnable_drift_with_children: "group 'root' nr_runnable[0]",
    _runtime_lost: "(runtime lost or invented)",
    _over_quota_now: "group 'b' current period consumption",
    _over_quota_max: "group 'b' max period consumption",
    _throttled_with_queued_member: "has queued member via 'b'",
}


class TestCorruptionCatalogue:
    def test_the_unplanted_live_state_is_clean(self):
        kernel = live_kernel()
        assert conservation_violations(kernel) == []
        assert group_bandwidth_violations(kernel) == []

    @pytest.mark.parametrize("plant", CATALOGUE,
                             ids=lambda plant: plant.__name__.strip("_"))
    def test_verdicts_match_the_reference(self, plant):
        kernel = live_kernel()
        plant(kernel)
        expected = (reference_conservation_violations(kernel, at_ns=123)
                    + reference_group_bandwidth_violations(kernel))
        fragment = CATALOGUE[plant]
        if fragment is None:
            assert expected == []
        else:
            assert any(fragment in v.detail for v in expected), expected
        got = (conservation_violations(kernel, at_ns=123)
               + group_bandwidth_violations(kernel))
        assert got == expected

    def test_a_scan_without_groups_matches_the_reference(self):
        kernel = Kernel(Topology.smp(2), SimConfig())
        kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
        for i in range(4):
            kernel.spawn(_bursts(usecs(500)), origin_cpu=i % 2)
        kernel.run_for(usecs(300))
        _runnable_lost(kernel)
        _running_on_wrong_cpu(kernel)
        expected = reference_conservation_violations(kernel)
        assert len(expected) == 2
        assert conservation_violations(kernel) == expected
        assert group_bandwidth_violations(kernel) == [] == \
            reference_group_bandwidth_violations(kernel)


class TestLiveSweep:
    def test_every_scan_of_forty_episodes_matches_the_reference(self):
        """Every scan-kind event of ``generate_episode(0..39)``: the
        state each scan sees is a live one, mid-dispatch included."""
        scans = {"conservation": 0, "group_bandwidth": 0}
        mismatches = []

        def compare(kind, t, cpu, pid, cost, keys, values):
            kernel = suite._kernel
            if kind in ConservationSanitizer.SCAN_KINDS:
                scans["conservation"] += 1
                got = conservation_violations(kernel, at_ns=t)
                if got != reference_conservation_violations(kernel, t):
                    mismatches.append((kind, t, got))
            if kind in GroupBandwidthSanitizer.SCAN_KINDS:
                scans["group_bandwidth"] += 1
                got = group_bandwidth_violations(kernel, at_ns=t)
                if got != reference_group_bandwidth_violations(kernel, t):
                    mismatches.append((kind, t, got))

        scan_kinds = (ConservationSanitizer.SCAN_KINDS
                      | GroupBandwidthSanitizer.SCAN_KINDS)
        suite = None

        def attach(kernel):
            nonlocal suite
            suite = SanitizerSuite.attach(kernel)
            suite.add_route(
                lambda kind: compare if kind in scan_kinds else None)
            return suite

        for seed in range(40):
            _run_episode_session(generate_episode(seed), attach)
        assert mismatches == []
        assert scans["conservation"] > 4000
        assert scans["group_bandwidth"] > 500

    @staticmethod
    def _clean_scans(scanner, kinds, split, seeds=range(8)):
        """Run ``scanner(kernel, at_ns=t)`` under a :class:`CallCensus`
        on each event of ``kinds`` of fuzz episodes ``seeds``: ``(the
        census, {split(kernel): scans})``, every scan clean."""
        census, scans = CallCensus(scanner), {False: 0, True: 0}

        def scan(kind, t, cpu, pid, cost, keys, values):
            kernel = suite._kernel
            with census:
                got = scanner(kernel, at_ns=t)
            assert got == []
            scans[split(kernel)] += 1

        suite = None

        def attach(kernel):
            nonlocal suite
            suite = SanitizerSuite.attach(kernel)
            suite.add_route(lambda kind: scan if kind in kinds else None)
            return suite

        for seed in seeds:
            _run_episode_session(generate_episode(seed), attach)
        return census, scans

    def test_a_clean_group_bandwidth_scan_calls_no_builtin(self):
        """A group-bandwidth scan that finds nothing subscripts and
        walks by hand: it makes no call into a builtin, with or without
        a throttled group to walk.  Its one Python call reads the
        config's slack."""
        census, scans = self._clean_scans(
            group_bandwidth_violations, GroupBandwidthSanitizer.SCAN_KINDS,
            lambda kernel: any(g.throttled
                               for g in kernel.groups.all_groups()))
        assert census.builtins == []
        assert set(census.calls) == {
            "group_bandwidth_violations: SimConfig.bandwidth_slack_ns"}
        assert scans[False] > 100 and scans[True] > 100, scans

    def test_a_clean_conservation_scan_calls_no_builtin(self):
        """The conservation scan calls nothing at all when it finds
        nothing, with and without a group forest whose parked tasks it
        collects (so no ``all_groups()`` either)."""
        census, scans = self._clean_scans(
            conservation_violations, ConservationSanitizer.SCAN_KINDS,
            lambda kernel: bool(kernel.groups.root.children))
        assert census.builtins == [] and census.calls == []
        assert scans[False] > 100 and scans[True] > 100, scans

    def test_the_token_sanitizer_calls_no_builtin_on_a_clean_stream(self):
        """Every event the token sanitizer is routed on a clean episode,
        ``token_*`` and ``dispatch`` alike, is handled with tests,
        subscripts and ``del``: no builtin call of its own."""
        census, seen = CallCensus(TokenSanitizer.on_event), {}

        class Profiled(TokenSanitizer):
            def on_event(self, kind, t, cpu, pid, cost, keys, values):
                seen[kind] = seen.get(kind, 0) + 1
                with census:
                    super().on_event(kind, t, cpu, pid, cost, keys, values)

        class Suite(SanitizerSuite):
            def __init__(self, capacity=200_000, kinds=None):
                super().__init__(capacity, kinds, sanitizers=[Profiled])

        for seed in range(8):
            _, suite, _ = _run_episode_session(generate_episode(seed),
                                               Suite.attach)
            assert suite.check() == [], suite.violation_report()
        assert census.builtins == []
        assert seen.keys() == TokenSanitizer.KINDS, seen
        assert min(seen.values()) > 100, seen
