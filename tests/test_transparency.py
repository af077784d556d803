"""Transparency oracles: a zero-cost upgrade or recording leaves the run
unchanged.

Every cost a live upgrade or the recorder charges is a ``SimConfig``
constant.  With those constants at 0 the machinery must be invisible:
a self-upgrade at time T, or a recorder on the shim, gives the same
``state_digest`` as the plain run of the same episode.  The episodes
are the fuzzer's, with faults and groups stripped so the only
difference between the two runs is the upgrade or the recorder.

The upgrade oracle is only as good as the state it can see go missing,
so it is checked against planted drops: a transfer dataclass without
Nest's ``nest``, or without the ``vruntime`` EEVDF carries, moves the
digest on every upgrade case.  Dropping Nest's ``_idle_picks``,
``expansions`` or ``contractions`` does not move it on these cases.
"""

from dataclasses import fields, make_dataclass, replace

import pytest

from repro.core import Recorder
from repro.exp import KernelBuilder
from repro.exp.builder import enoki_scheduler_names
from repro.schedulers.eevdf import EnokiEevdf
from repro.schedulers.nest import EnokiNest
from repro.verify import generate_episode, state_digest
from repro.verify.fuzz import _spawn_tasks

ZERO_UPGRADE = {"upgrade_sync_per_cpu_ns": 0, "upgrade_swap_ns": 0,
                "upgrade_per_task_ns": 0}
ZERO_RECORD = {"record_overhead_ns": 0}

#: (episode seed, upgrade time): EEVDF and Nest moved the digest on
#: every one of these while their transferred state was incomplete
UPGRADE_CASES = ((3, 60_000), (5, 400_000), (5, 1_500_000))
RECORD_SEEDS = (3, 4)


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


def moved_cases(sched):
    """The upgrade cases whose zero-cost self-upgrade moves the digest."""
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
    return moved


@pytest.mark.parametrize("sched", enoki_scheduler_names())
def test_zero_cost_self_upgrade_leaves_the_digest(sched):
    assert moved_cases(sched) == []


@pytest.mark.parametrize("sched, cls, field", [
    ("nest", EnokiNest, "nest"),
    ("eevdf", EnokiEevdf, "vruntime"),
])
def test_a_planted_transfer_drop_moves_the_digest(monkeypatch, sched, cls,
                                                  field):
    declared = cls.TRANSFER_TYPE
    monkeypatch.setattr(cls, "TRANSFER_TYPE", make_dataclass(
        f"{declared.__name__}Without_{field}",
        [(f.name, f.type) for f in fields(declared) if f.name != field]))
    assert moved_cases(sched) == list(UPGRADE_CASES)


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
