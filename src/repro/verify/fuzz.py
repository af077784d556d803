"""Seeded simulation fuzzing: random episodes, audited by sanitizers.

One *episode* is a complete simulated machine life: a scheduler module,
a workload mix, and optionally a mid-run live upgrade and a fault plan —
all derived from a single integer seed, so any failure is a one-number
reproducer.  Each episode runs under the full
:class:`~repro.verify.sanitizers.SanitizerSuite` plus two differential
oracles:

* **replay** — when the episode is recordable (no faults, no upgrade:
  the recorder legitimately refuses those), the recorded dispatch log is
  replayed sequentially against a fresh module instance and must match
  bit-for-bit (paper section 3.4's determinism claim, used as an
  oracle);
* **control** — the same workload (policy/hints stripped) runs on a
  plain native-class kernel; if the control machine finishes every task,
  the Enoki machine must too, so any loss is the framework's fault, not
  the workload's.

``repro fuzz --episodes N --seed S`` drives this from the CLI;
:func:`fuzz_run` is the library entry.  Seeds are stable across runs —
the same (master seed, episode index) always builds the same episode.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field, replace

from repro import dataclass_kwargs
from repro.core import FaultPlan, Recorder, ReplayEngine
from repro.core.faults import FaultSpec
from repro.exp import (SCHEDULERS, KernelBuilder, ScenarioSpec,
                       enoki_scheduler_names)
from repro.exp.spec import GroupSpec, spec_kwargs
from repro.simkernel.clock import usecs
from repro.simkernel.errors import SimError
from repro.simkernel.program import Run, SendHint, Sleep, YieldCpu
from repro.simkernel.task import TaskState
from repro.verify.sanitizers import SanitizerSuite, Violation

#: the policy number every fuzzed Enoki module is registered under
TASK_POLICY = 7

#: the fuzz pool: the table rows that admit the fuzz leg, sorted (the
#: episode generator draws from this order); each admits the upgrade leg
#: too, since an episode may upgrade it to a fresh instance mid-run
SCHEDULER_NAMES = tuple(sorted(name for name, row in SCHEDULERS.items()
                               if not row.fuzz))

#: fault kinds the fuzzer composes ad-hoc plans from (beyond the built-in
#: plans).  ``hang`` is excluded: its hang_ns needs workload-aware tuning
#: and the built-in plans already cover it.
_COMPOSED_KINDS = (
    ("raise", "task_tick"),
    ("raise", "task_wakeup"),
    ("raise", "balance"),
    ("corrupt_token", ""),
    ("duplicate_token", ""),
    ("drop_hint", ""),
    ("delay_hint", ""),
)

_EVENT_BUDGET = 500_000


@dataclass(frozen=True)
class TaskSpec:
    """One fuzzed task: ``phases`` bursts of ``run_ns`` each, optionally
    sleeping, yielding, and sending hints between bursts."""

    run_ns: int
    sleep_ns: int = 0
    phases: int = 4
    hints: bool = False
    yield_every: int = 0      # 0 = never
    #: FaaS-style declared duration: when nonzero (and hints are on) the
    #: task announces ``{"expected_ns": declare_ns}`` before each burst,
    #: exercising the serverless scheduler's classification fast path.
    declare_ns: int = 0
    #: task-group name ("" = the implicit root group); the group decides
    #: the policy when it (or an ancestor) declares one
    group: str = ""

    def to_dict(self):
        return {"run_ns": self.run_ns, "sleep_ns": self.sleep_ns,
                "phases": self.phases, "hints": self.hints,
                "yield_every": self.yield_every,
                "declare_ns": self.declare_ns,
                "group": self.group}

    @classmethod
    def from_dict(cls, data):
        return cls(**spec_kwargs(cls, data))


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything needed to rebuild one episode, JSON-serialisable."""

    seed: int
    sched: str
    nr_cpus: int
    tasks: tuple                  # of TaskSpec
    upgrade_at_ns: int = 0        # 0 = no live upgrade
    plan: dict = None             # FaultPlan.to_dict() or None
    bug: str = ""                 # test-only planted bug, e.g. "skip_consume"
    groups: tuple = ()            # task-group forest (dicts, parents first)

    def to_dict(self):
        return {
            "seed": self.seed,
            "sched": self.sched,
            "nr_cpus": self.nr_cpus,
            "tasks": [t.to_dict() for t in self.tasks],
            "upgrade_at_ns": self.upgrade_at_ns,
            "plan": self.plan,
            "bug": self.bug,
            "groups": [dict(g) for g in self.groups],
        }

    @classmethod
    def from_dict(cls, data):
        """Inverse of :meth:`to_dict`; raises :class:`SimError` naming an
        unknown field or scheduler or a bad :class:`GroupSpec` entry."""
        known = spec_kwargs(cls, data)
        sched = known.get("sched")
        if sched not in enoki_scheduler_names():
            raise SimError(f"unknown Enoki scheduler {sched!r}")
        known["tasks"] = tuple(TaskSpec.from_dict(t) for t in known["tasks"])
        known["groups"] = tuple(dataclass_kwargs(GroupSpec, g, SimError)
                                for g in known.get("groups", ()))
        return cls(**known)

    @property
    def recordable(self):
        """The recorder refuses faults and upgrades (paper section 3.4)."""
        return self.plan is None and self.upgrade_at_ns == 0

    def scenario(self):
        """The episode's machine as a :class:`~repro.exp.ScenarioSpec`:
        scheduler, topology, group forest, fault plan and upgrade."""
        return ScenarioSpec(topology=f"smp:{self.nr_cpus}", seed=self.seed,
                            sched=self.sched, policy=TASK_POLICY,
                            groups=self.groups, fault_plan=self.plan,
                            upgrade_at_ns=self.upgrade_at_ns)


@dataclass
class EpisodeResult:
    spec: EpisodeSpec
    violations: list
    events_seen: int = 0
    completed: int = 0
    total_tasks: int = 0
    replay_checked: bool = False
    control_checked: bool = False
    faults_fired: int = 0
    sim_ns: int = 0           # virtual time the episode covered

    @property
    def ok(self):
        return not self.violations

    def to_dict(self):
        return {
            "spec": self.spec.to_dict(),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "events_seen": self.events_seen,
            "completed": self.completed,
            "total_tasks": self.total_tasks,
            "replay_checked": self.replay_checked,
            "control_checked": self.control_checked,
            "faults_fired": self.faults_fired,
            "sim_ns": self.sim_ns,
        }


# ----------------------------------------------------------------------
# episode generation
# ----------------------------------------------------------------------

def generate_episode(seed, sched=None):
    """Derive a complete :class:`EpisodeSpec` from one integer seed."""
    rng = random.Random(seed)
    name = sched if sched is not None else rng.choice(SCHEDULER_NAMES)
    nr_cpus = rng.choice((1, 2, 2, 4))
    tasks = []
    for _ in range(rng.randint(2, 8)):
        tasks.append(TaskSpec(
            # Bursts up to 2 ms so tick-window faults have traffic to hit.
            run_ns=rng.randrange(usecs(20), usecs(2_000)),
            sleep_ns=(rng.randrange(usecs(10), usecs(400))
                      if rng.random() < 0.6 else 0),
            phases=rng.randint(1, 8),
            hints=rng.random() < 0.4,
            yield_every=rng.choice((0, 0, 2, 3)),
            # A third of hinting tasks declare a duration (faas-style);
            # the declaration may lie relative to run_ns, which is the
            # interesting case for runtime classifiers.
            declare_ns=(rng.randrange(usecs(20), usecs(4_000))
                        if rng.random() < 0.33 else 0),
        ))
    upgrade_at_ns = 0
    if rng.random() < 0.3:
        upgrade_at_ns = rng.randrange(usecs(50), usecs(3_000))
    plan = None
    if rng.random() < 0.4:
        plan = _random_plan(rng).to_dict()
    # A third of episodes run inside a random task-group forest; the
    # draws come last so ungrouped episodes are unchanged for old seeds.
    groups = ()
    if rng.random() < 0.35:
        groups = _random_groups(rng)
        names = [g["name"] for g in groups]
        tasks = [replace(t, group=rng.choice(names))
                 if rng.random() < 0.6 else t for t in tasks]
    return EpisodeSpec(seed=seed, sched=name, nr_cpus=nr_cpus,
                       tasks=tuple(tasks), upgrade_at_ns=upgrade_at_ns,
                       plan=plan, groups=groups)


def _random_groups(rng):
    """A random group forest: depth <= 3, mixed quotas and weights, and
    the occasional per-group policy override (0 sends a group's tasks to
    the native class; quota throttling is what keeps that mix live)."""
    groups = []
    depth = {"root": 0}
    for i in range(rng.randint(1, 4)):
        name = f"g{i}"
        candidates = ["root"] + [g["name"] for g in groups
                                 if depth[g["name"]] < 3]
        parent = rng.choice(candidates)
        entry = {"name": name, "parent": parent,
                 "weight": rng.choice((256, 512, 1024, 2048))}
        if rng.random() < 0.4:
            entry["quota_ns"] = rng.randrange(usecs(200), usecs(2_000))
            entry["period_ns"] = rng.choice(
                (usecs(1_000), usecs(2_000), usecs(5_000)))
        if rng.random() < 0.25:
            entry["policy"] = rng.choice((0, TASK_POLICY))
        depth[name] = depth[parent] + 1
        groups.append(entry)
    return tuple(groups)


def _random_plan(rng):
    if rng.random() < 0.5:
        name = rng.choice(FaultPlan.builtin_names())
        return FaultPlan.builtin(name).with_seed(rng.randrange(1 << 16))
    specs = []
    for _ in range(rng.randint(1, 3)):
        kind, callback = rng.choice(_COMPOSED_KINDS)
        specs.append(FaultSpec(
            kind=kind, callback=callback,
            at=rng.randint(1, 20), count=rng.randint(1, 3),
            probability=rng.choice((1.0, 1.0, 0.5)),
        ))
    return FaultPlan(name="composed", specs=tuple(specs),
                     seed=rng.randrange(1 << 16),
                     description="fuzzer-composed plan").validate()


def _run_episode_session(spec, attach, recorder=None):
    """Build, observe, populate and run the machine ``spec`` describes.

    The one way an episode is built: :meth:`KernelBuilder
    .session_from_spec` creates the group forest, installs the fault plan
    with its watchdog and schedules the upgrade; the planted ``bug`` goes
    in here and nowhere else.  ``attach(kernel)`` hooks an observer on
    before the first task spawns.  Returns ``(session, what attach
    returned, the SimError that stopped the run or None)``.
    """
    session = KernelBuilder.session_from_spec(spec.scenario(),
                                              recorder=recorder)
    if spec.bug == "skip_consume":
        session.shim._test_skip_token_consume = True
    hook = attach(session.kernel)
    _spawn_tasks(session, spec)
    error = None
    try:
        session.kernel.run_until_idle(max_events=_EVENT_BUDGET)
    except SimError as exc:
        error = exc
    session.stop()
    return session, hook, error


def _spawn_tasks(session, spec):
    """Spawn every episode task, honouring group placement and each
    group's resolved policy."""
    for i, task_spec in enumerate(spec.tasks):
        group = task_spec.group or None
        policy = (session.group_policy(group) if group is not None
                  else TASK_POLICY)
        session.spawn(_make_program(task_spec, policy),
                      name=f"fuzz-{i}", policy=policy, group=group,
                      origin_cpu=i % spec.nr_cpus)


def _make_program(task_spec, policy):
    """Build the generator function a :class:`TaskSpec` describes."""
    def program():
        for i in range(task_spec.phases):
            if task_spec.hints and task_spec.declare_ns and policy != 0:
                yield SendHint({"expected_ns": task_spec.declare_ns},
                               policy=policy)
            yield Run(task_spec.run_ns)
            if task_spec.hints and policy != 0:
                yield SendHint({"tid": None, "seq": i}, policy=policy)
            if task_spec.yield_every and (i + 1) % task_spec.yield_every == 0:
                yield YieldCpu()
            if task_spec.sleep_ns:
                yield Sleep(task_spec.sleep_ns)
    return program


# ----------------------------------------------------------------------
# episode digests (the differential-replay oracle's external face)
# ----------------------------------------------------------------------

def state_digest(kernel):
    """A stable hash of everything the simulation computed.

    Two runs of the same episode are *behaviourally identical* iff their
    digests match: final virtual time, every task's lifecycle counters
    and runtimes, and the per-CPU switch/busy/idle accounting all go into
    the hash.  This is what the fast-path guarantees are stated against —
    attaching observers must not change the digest.
    """
    tasks = []
    for pid in sorted(kernel.tasks):
        task = kernel.tasks[pid]
        tasks.append([pid, task.name, task.state.name,
                      task.sum_exec_runtime_ns, task.stats.preemptions,
                      task.stats.yields, task.stats.blocked_count,
                      task.stats.migrations, task.stats.finished_ns])
    stats = kernel.stats
    payload = {
        "now": kernel.now,
        "tasks": tasks,
        "wakeups": stats.total_wakeups,
        "migrations": stats.total_migrations,
        "failed_migrations": stats.failed_migrations,
        "sched_invocations": stats.sched_invocations,
        "switches": [c.switches for c in stats.cpus],
        "busy": [c.busy_ns for c in stats.cpus],
        "idle": [c.idle_ns for c in stats.cpus],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def episode_digest(seed, observe=False, sched=None):
    """Run the episode ``seed`` describes and return its state digest.

    With ``observe`` a full :class:`~repro.obs.Observer` is attached
    (trace + metrics + profilers); without it the machine runs the
    no-observer fast path.  The two must digest identically — that
    equivalence is tested for fixed seeds and is the contract every
    hot-path optimisation is held to.
    """
    from repro.obs import Observer

    # A run that stops on a SimError digests however far it got.
    session, _observer, _error = _run_episode_session(
        generate_episode(seed, sched=sched),
        Observer.attach if observe else lambda _kernel: None)
    return state_digest(session.kernel)


# ----------------------------------------------------------------------
# episode execution
# ----------------------------------------------------------------------

def run_episode(spec, capture=False):
    """Run one episode under the sanitizer suite and both oracles.

    Returns an :class:`EpisodeResult`; with ``capture`` the attached
    suite (``result.suite``, for trace inspection) and the recorder of a
    recordable episode (``result.recorder``) are included.
    """
    recorder = Recorder() if spec.recordable else None

    # The episode seed lands in SimConfig at build, so the kernel's
    # jitter RNG is episode-deterministic too (not just the
    # episode-generation RNG).
    session, suite, error = _run_episode_session(
        spec, SanitizerSuite.attach, recorder=recorder)
    kernel, injector = session.kernel, session.injector
    if error is not None:
        suite.record_violation(Violation(
            "completion", kernel.now,
            f"episode did not quiesce: {error}"))
    if recorder is not None:
        recorder.stop()

    suite.check()

    completed = sum(1 for t in kernel.tasks.values()
                    if t.state is TaskState.DEAD)
    for pid, task in kernel.tasks.items():
        if task.state is not TaskState.DEAD:
            suite.record_violation(Violation(
                "completion", kernel.now,
                f"task never completed (state {task.state.name})",
                pid=pid))

    result = EpisodeResult(
        spec=spec, violations=list(suite.violations),
        events_seen=suite.events_seen, completed=completed,
        total_tasks=len(kernel.tasks),
        faults_fired=(sum(injector.summary().values())
                      if injector is not None else 0),
        sim_ns=kernel.now,
    )
    if capture:
        result.suite = suite
        result.recorder = recorder

    _replay_oracle(spec, recorder, session.scheduler_factory, result)
    _control_oracle(spec, result)
    return result


def _replay_oracle(spec, recorder, factory, result):
    """Recorded episodes must replay bit-identically (section 3.4)."""
    if recorder is None or not recorder.entries:
        return
    engine = ReplayEngine(factory, recorder.entries)
    replay = engine.run_sequential()
    result.replay_checked = True
    if not replay.matched:
        for divergence in replay.divergences[:5]:
            result.violations.append(Violation(
                "replay", 0,
                f"record/replay divergence: {divergence}"))


def _control_oracle(spec, result):
    """The same workload on a plain native kernel must also finish; when
    it does and the Enoki machine lost tasks, the loss is real."""
    # Same seed as the Enoki machine: the control differs only in its
    # scheduler stack, never in jitter.
    session = KernelBuilder.session_from_spec(ScenarioSpec(
        sched="cfs", topology=f"smp:{spec.nr_cpus}", seed=spec.seed))
    kernel = session.kernel
    for i, task_spec in enumerate(spec.tasks):
        # Policy 0 has no hint handler; the control program strips hints.
        control_spec = replace(task_spec, hints=False)
        session.spawn(_make_program(control_spec, 0), name=f"ctrl-{i}",
                      policy=0, origin_cpu=i % spec.nr_cpus)
    try:
        kernel.run_until_idle(max_events=_EVENT_BUDGET)
    except SimError:
        return      # control itself livelocked: no verdict
    control_done = sum(1 for t in kernel.tasks.values()
                       if t.state is TaskState.DEAD)
    result.control_checked = True
    if control_done == len(kernel.tasks) and result.completed < control_done:
        result.violations.append(Violation(
            "differential", kernel.now,
            f"native control completed all {control_done} tasks but the "
            f"Enoki run completed only {result.completed}"))


# ----------------------------------------------------------------------
# the fuzzing loop
# ----------------------------------------------------------------------

@dataclass
class FuzzReport:
    master_seed: int
    results: list = field(default_factory=list)

    @property
    def failures(self):
        return [r for r in self.results if not r.ok]

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "master_seed": self.master_seed,
            "episodes": len(self.results),
            "ok": self.ok,
            "failures": [r.to_dict() for r in self.failures],
            "replay_checked": sum(1 for r in self.results
                                  if r.replay_checked),
            "control_checked": sum(1 for r in self.results
                                   if r.control_checked),
            "faults_fired": sum(r.faults_fired for r in self.results),
            "events_seen": sum(r.events_seen for r in self.results),
        }


def fuzz_run(episodes, seed, sched=None, bug="", on_episode=None):
    """Run ``episodes`` seeded episodes; returns a :class:`FuzzReport`.

    ``sched`` pins every episode to one scheduler; ``bug`` plants a
    test-only defect (see ``EnokiSchedClass._test_skip_token_consume``)
    in every episode — used by the CLI's hidden ``--bug`` flag and the
    shrinker tests to prove the sanitizers catch what they claim to.
    """
    master = random.Random(seed)
    report = FuzzReport(master_seed=seed)
    for index in range(episodes):
        episode_seed = master.randrange(1 << 32)
        spec = generate_episode(episode_seed, sched=sched)
        if bug:
            spec = replace(spec, bug=bug)
        result = run_episode(spec)
        report.results.append(result)
        if on_episode is not None:
            on_episode(index, result)
    return report
