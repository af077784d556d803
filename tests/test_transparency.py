"""Transparency oracles: a zero-cost upgrade or recording leaves the run
unchanged.

Every cost a live upgrade or the recorder charges is a ``SimConfig``
constant.  With those constants at 0 the machinery must be invisible:
a self-upgrade at time T, or a recorder on the shim, gives the same
``state_digest`` as the plain run of the same episode.  The episodes
are the fuzzer's, with faults and groups stripped so the only
difference between the two runs is the upgrade or the recorder.

EEVDF and Nest lose scheduler state across a self-upgrade (ROADMAP item
2(b)); their upgrade cases are strict xfails, so the fix flips them.
"""

from dataclasses import replace

import pytest

from repro.core import Recorder
from repro.exp import KernelBuilder
from repro.exp.builder import enoki_scheduler_names
from repro.verify import generate_episode, state_digest
from repro.verify.fuzz import _spawn_tasks

ZERO_UPGRADE = {"upgrade_sync_per_cpu_ns": 0, "upgrade_swap_ns": 0,
                "upgrade_per_task_ns": 0}
ZERO_RECORD = {"record_overhead_ns": 0}

#: (episode seed, upgrade time): EEVDF and Nest move the digest on
#: every one of these
UPGRADE_CASES = ((3, 60_000), (5, 400_000), (5, 1_500_000))
RECORD_SEEDS = (3, 4)

#: ROADMAP item 2(b): transferred scheduler state is incomplete
LOSES_STATE = {"eevdf", "nest"}


def plain_episode(seed, sched):
    spec = generate_episode(seed, sched)
    return replace(spec, plan=None, groups=(), upgrade_at_ns=0,
                   tasks=tuple(replace(t, group="") for t in spec.tasks))


def run(spec, config, upgrade_at_ns=0, recorder=None):
    """Run ``spec`` under ``config``; the digest and the session."""
    session = KernelBuilder.session_from_spec(
        replace(spec.scenario(), config=config,
                upgrade_at_ns=upgrade_at_ns),
        recorder=recorder)
    _spawn_tasks(session, spec)
    session.kernel.run_until_idle(max_events=500_000)
    session.stop()
    return state_digest(session.kernel), session


def upgrade_params():
    for sched in enoki_scheduler_names():
        marks = ([pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 2(b): EEVDF and Nest lose scheduler "
            "state across a self-upgrade")]
            if sched in LOSES_STATE else [])
        yield pytest.param(sched, marks=marks, id=sched)


@pytest.mark.parametrize("sched", upgrade_params())
def test_zero_cost_self_upgrade_leaves_the_digest(sched):
    moved = []
    for seed in sorted({seed for seed, _ in UPGRADE_CASES}):
        spec = plain_episode(seed, sched)
        plain, _ = run(spec, ZERO_UPGRADE)
        for case_seed, at_ns in UPGRADE_CASES:
            if case_seed != seed:
                continue
            upgraded, session = run(spec, ZERO_UPGRADE, at_ns)
            assert len(session.upgrades.reports) == 1, (seed, at_ns)
            if upgraded != plain:
                moved.append((seed, at_ns))
    assert moved == []


@pytest.mark.parametrize("sched", enoki_scheduler_names())
def test_zero_cost_recording_leaves_the_digest(sched):
    for seed in RECORD_SEEDS:
        spec = plain_episode(seed, sched)
        plain, _ = run(spec, ZERO_RECORD)
        recorder = Recorder()
        recorded, _ = run(spec, ZERO_RECORD, recorder=recorder)
        recorder.stop()
        assert recorder.entries, seed
        assert recorded == plain, seed
