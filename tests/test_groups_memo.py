"""The memoised hierarchical weight never goes stale.

``GroupManager.effective_weight`` leaves its result on the task under
``(cpu, index_gen[cpu], own weight)`` and CFS trusts that key without
walking the chain (DESIGN §10, §12).  The property: whatever sequence of
spawns, wakes, blocks, migrations, renices, throttles and unthrottles a
random forest goes through, a key that still matches holds exactly what a
from-scratch walk computes, and what ``cfs.update_curr`` charges with is
that value.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.cfs import CfsSchedClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.program import (
    Run,
    SetAffinity,
    SetNice,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.simkernel.task import NICE_0_WEIGHT, TaskState
from repro.verify.sanitizers import check_kernel_state

NR_CPUS = 3
MAX_DEPTH = 3
CPU_SETS = [frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 1, 2})]


def walk(task, cpu):
    """The oracle: the chain walked leaf to root, nothing remembered."""
    eff = task.weight
    group = task.group
    while group is not None and group.parent is not None:
        inside = group.task_weight[cpu] + group.child_weight[cpu]
        if inside > 0:
            eff = max(1, eff * group.weight // inside)
        group = group.parent
    return eff


def charged_weight(cfs, task):
    """The weight ``cfs.update_curr`` divides by, recovered from the
    vruntime it adds (the accounting it touches is put back)."""
    rq = cfs._rqs[task.cpu]
    saved = task.vruntime, rq.min_vruntime
    delta = 1 << 40
    cfs.update_curr(task, delta)
    added = task.vruntime - saved[0]
    task.vruntime, rq.min_vruntime = saved
    return added, delta * NICE_0_WEIGHT


def assert_memo_sound(kernel, cfs):
    """Checks what the run left behind, and leaves it behind: a refresh
    here would paper over an invalidation the kernel forgot."""
    groups = kernel.groups
    for task in kernel.tasks.values():
        if task.group is None:
            continue
        left = task.eff_weight, task.eff_weight_key
        if task.state is not TaskState.DEAD and task.cpu >= 0:
            added, scaled = charged_weight(cfs, task)
            assert added == scaled // walk(task, task.cpu), task
            task.eff_weight, task.eff_weight_key = left
        for cpu in range(NR_CPUS):
            key = (cpu, groups.index_gen[cpu], task.weight)
            if task.eff_weight_key == key:
                assert task.eff_weight == walk(task, cpu), (task, cpu)
            assert groups.effective_weight(task, cpu) == walk(task, cpu)
            assert task.eff_weight_key == key
            task.eff_weight, task.eff_weight_key = left
    assert check_kernel_state(kernel) == []


ops = st.one_of(
    st.builds(Run, st.integers(usecs(20), usecs(400))),
    st.builds(Run, st.integers(usecs(400), usecs(3000))),
    st.builds(Sleep, st.integers(usecs(10), usecs(300))),
    st.builds(SetNice, st.integers(-6, 6)),
    st.builds(SetAffinity, st.sampled_from(CPU_SETS)),
    st.just(YieldCpu()),
)
programs = st.lists(ops, min_size=1, max_size=12)


@st.composite
def forests(draw):
    """Up to six groups at most three deep: (parent index or None,
    weight, quota in microseconds or 0)."""
    depth, out = [], []
    for _ in range(draw(st.integers(1, 6))):
        parents = [None] + [i for i, d in enumerate(depth)
                            if d < MAX_DEPTH]
        parent = draw(st.sampled_from(parents))
        depth.append(1 if parent is None else depth[parent] + 1)
        out.append((parent, draw(st.integers(1, 4096)),
                    draw(st.sampled_from((0, 0, 150, 400)))))
    return out


def program_of(op_list, child=None):
    def prog():
        for op in op_list:
            yield op
        if child is not None:
            yield Spawn(program_of(child))
            yield Run(usecs(100))
    return prog


@settings(max_examples=60, deadline=None)
@given(forest=forests(),
       tasks=st.lists(st.tuples(st.integers(0, 6), st.integers(-4, 4),
                                programs, st.none() | programs),
                      min_size=1, max_size=8),
       steps=st.lists(st.tuples(st.integers(usecs(5), usecs(700)),
                                st.integers(0, 7), st.integers(0, 2)),
                      min_size=1, max_size=25))
def test_memoised_weight_equals_a_fresh_walk(forest, tasks, steps):
    kernel = Kernel(Topology.smp(NR_CPUS), SimConfig(seed=11))
    cfs = kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    for index, (parent, weight, quota_us) in enumerate(forest):
        kernel.groups.create(
            f"g{index}", parent="root" if parent is None else f"g{parent}",
            weight=weight, quota_ns=usecs(quota_us), period_ns=usecs(1000))
    spawned = []
    for slot, nice, op_list, child in tasks:
        group = f"g{slot}" if slot < len(forest) else None
        spawned.append(kernel.spawn(program_of(op_list, child), nice=nice,
                                    group=group))
    assert_memo_sound(kernel, cfs)
    for advance_ns, pick, cpu in steps:
        kernel.run_for(advance_ns)
        # A balancer-style pull of a queued task, on top of what the
        # programs and the bandwidth timers do to the index themselves.
        task = spawned[pick % len(spawned)]
        if task.state is TaskState.RUNNABLE and task.on_rq \
                and task.cpu != cpu and task.can_run_on(cpu):
            kernel.try_migrate(task.pid, cpu, cfs)
        assert_memo_sound(kernel, cfs)
    kernel.run_until_idle()
    assert_memo_sound(kernel, cfs)
