"""Golden quiet-path digests.

``tests/test_obs_stream.py`` pins the *observed* stream; this file pins
the quiet path — no tracer, no observer — that every workload and every
benchmark actually runs: the pick walk, the wakeup chain, the cost model
and the event loop.  The literals are ``state_digest`` values (final
virtual time, every task's runtimes and counters, per-CPU accounting)
recorded on the commit *before* the schedule path was made single-pass,
with ``src/`` untouched, and must never change because of a refactor:
every virtual cost, RNG draw and ``(time, seq)`` order feeds them.

The ``nest`` / ``arachne`` / ``upgrade-mixed`` literals were recorded the
same way on the commit before the Enoki policies moved onto one shared
token queue: they pin the two policies the builder could not name then
and one mid-run live upgrade per transfer family, taken while run queues
are several deep and both serverless tiers are populated.  Locality's
``upgrade-mixed`` literal was recorded on the commit before the scheduler
table listed its upgrade leg; it already transferred its state there.

The ``group-forest`` literal was recorded on the commit before the
hierarchical effective weight was memoised: a stale weight after a
renice, a migration or an unthrottle moves vruntime, so the pick order,
so the digest.

The ``flat-cfs`` and ``class-stack`` literals were recorded on the
commit that retired the RT and deadline classes and moved both scenarios
onto native FIFO classes.  ``flat-cfs`` therefore postdates CFS's
memoised time slice: ``TestSliceMemo`` in ``tests/test_cfs.py`` checks
the memo against a full re-sum at its every tick (``group-forest`` keeps
its pre-memo literal).

The ``upgrade-mixed`` literals for ``eevdf`` and ``nest`` and fuzz
episode 2's were re-recorded when those two policies stopped losing
state: EEVDF assigns a deadline on every queue entry (yield and
migration included) and re-derives the queued ones after an upgrade,
and Nest carries its nest across one.

The ``group-forest``, ``flat-cfs``, ``upgrade-mixed`` and ``mixed``
literals were re-recorded when a task's forced move off a CPU its own
``SetAffinity`` disallows began to count as a migration: each scenario
issues ``SetAffinity``, and only the two migration counters moved (a
digest with them left out is identical before and after).

The ``faas`` literals were recorded on the commit before the serverless
policy's bookkeeping, the shim's resched timer and the FaaS sampler were
reworked for speed: they pin the sampler's draw order, the guard and
wakeup-preemption timers' re-arms, the hint ring and placement.
"""

import pytest

from repro.arachne_rt import ArachneRuntime, URun
from repro.arachne_rt.clients import EnokiArbiterClient
from repro.core.record import Recorder
from repro.exp import SCHEDULERS, KernelBuilder, ScenarioSpec
from repro.simkernel import TaskState, Topology
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.pipe import Pipe
from repro.simkernel.program import (
    PipeRead,
    PipeWrite,
    Run,
    SendHint,
    SetAffinity,
    SetNice,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.verify import episode_digest, state_digest
from repro.workloads.faas import FAAS_BASE_OPTIONS, run_faas
from repro.workloads.hackbench import run_hackbench
from repro.workloads.multitenant import run_multitenant
from repro.workloads.pipe_bench import run_pipe_benchmark

SEED = 1905

#: the table's schedulers under pipe and hackbench traffic: all but the
#: arbiter, which schedules Arachne runtimes (its workload is below)
PINNED = sorted(n for n, row in SCHEDULERS.items() if row.kind != "arbiter")
#: ``sched_options`` on smp:4 (ghost_shinjuku's default split needs eight)
SMP4_OPTIONS = {"ghost_shinjuku": {"managed_cpus": [0, 1, 2], "agent_cpu": 3}}


def session_for(sched, upgrade_at_ns=0):
    return KernelBuilder.session_from_spec(ScenarioSpec(
        name=f"golden-{sched}", sched=sched, topology="smp:4", seed=SEED,
        # nest's goldens were recorded under its own default policy number
        policy=12 if sched == "nest" else 7,
        sched_options=SMP4_OPTIONS.get(sched, {}),
        upgrade_at_ns=upgrade_at_ns))


def pipe_digest(sched):
    session = session_for(sched)
    run_pipe_benchmark(session.kernel, session.policy, rounds=50)
    return state_digest(session.kernel)


def hackbench_digest(sched, groups=1, fds=2, loops=10):
    session = session_for(sched)
    run_hackbench(session.kernel, session.policy, groups=groups, fds=fds,
                  loops=loops)
    return state_digest(session.kernel)


def tenants_digest():
    """The three-tenant ``tenants-cfs`` contract (the multitenant
    module's defaults) for 100 ms: groups, throttling, bandwidth timers."""
    session = session_for("cfs")
    result = run_multitenant(session.kernel, session.policy,
                             duration_ns=msecs(100))
    assert result.completed
    return state_digest(session.kernel)


def group_forest_digest():
    """Native CFS on smp:4 over a two-level forest: ``web`` and ``batch``
    under a capped ``org``, an uncapped ``other`` beside it, root tasks
    around them, run queues several deep.  Tasks renice inside a group,
    force their own migration through ``SetAffinity`` and ride several
    throttle / unthrottle cycles, each of which changes somebody's
    hierarchical weight."""
    session = session_for("cfs")
    kernel = session.kernel
    groups = kernel.groups
    org = groups.create("org", weight=2048, quota_ns=msecs(9),
                        period_ns=msecs(5))
    groups.create("web", parent="org", weight=3072)
    groups.create("batch", parent="org", weight=512)
    groups.create("other", weight=1024)

    def bursts(count, ns):
        def prog():
            for _ in range(count):
                yield Run(ns)
        return prog

    def renicer():
        for nice in (4, -3, 0):
            for _ in range(12):
                yield Run(usecs(180))
            yield SetNice(nice)
        yield Run(msecs(1))

    def mover():
        for cpus in ({0}, {1}, {2, 3}, {0, 1, 2, 3}):
            for _ in range(8):
                yield Run(usecs(220))
            yield SetAffinity(frozenset(cpus))
        yield Run(msecs(1))

    for prog, group, nice in (
            (bursts(40, usecs(250)), "web", 0),
            (phased(30, usecs(200), usecs(150)), "web", 2),
            (renicer, "web", 0),
            (bursts(30, usecs(300)), "batch", 0),
            (mover, "batch", -2),
            (renicer, "batch", 0),
            (bursts(40, usecs(250)), "other", 0),
            (phased(30, usecs(150), usecs(100)), "other", -1),
            (mover, "other", 0),
            (bursts(30, usecs(300)), None, 0),
            (phased(30, usecs(250), usecs(200)), None, 3)):
        kernel.spawn(prog, policy=session.policy, nice=nice, group=group)
    session.run_until_idle()
    assert all(t.state is TaskState.DEAD for t in kernel.tasks.values())
    assert org.throttle_count >= 2 and not org.throttled
    assert kernel.stats.total_migrations > 0
    return state_digest(kernel)


def phased(phases, work_ns, sleep_ns):
    def prog():
        for _ in range(phases):
            yield Run(work_ns)
            yield Sleep(sleep_ns)
    return prog


def class_stack_digest():
    """Native FIFO > Enoki > CFS > native FIFO on two CPUs with sleepers
    in every class, so wakeups land on CPUs busy with a higher and a
    lower class."""
    kernel = native_stack().with_enoki("wfq", priority=50).build().kernel
    kernel.spawn(phased(6, usecs(200), usecs(700)), policy=1)
    kernel.spawn(phased(8, usecs(150), usecs(400)), policy=1)
    kernel.spawn(phased(6, usecs(100), usecs(500)), policy=2)
    for index in range(3):
        kernel.spawn(phased(10, usecs(120 + 30 * index), usecs(250)),
                     policy=7)
        kernel.spawn(phased(10, usecs(90 + 40 * index), usecs(300)),
                     policy=0)
    kernel.run_until_idle()
    return state_digest(kernel)


def native_stack():
    """Native FIFO above and below CFS on two CPUs."""
    return (KernelBuilder(Topology.smp(2), seed=SEED)
            .with_native("fifo_native", policy=1, priority=80)
            .with_native("cfs", policy=0, priority=10)
            .with_native("fifo_native", policy=2, priority=5))


def run_once(ns):
    def prog():
        yield Run(ns)
    return prog


def flat_cfs_digest():
    """Ungrouped native CFS between two native FIFO classes on two CPUs.
    Ten CFS tasks are pinned to CPU 0, hogs at nine nice levels and one
    that renices itself while the others wait, so its queue runs past the
    period's eight-task knee; a sleeper wakes into that queue.  Beside
    them: a yielder, a task that moves itself through ``SetAffinity``,
    free hogs the balancers spread, free sleepers.  A FIFO task above CFS
    wakes on CPU 1 every 50 us, and a FIFO task below CFS waits on CPU
    0's run queue until CFS has nothing left there, so ticks see more
    tasks queued on the CPU than CFS has queued."""
    kernel = native_stack().build().kernel
    pin0 = frozenset({0})

    def renicer():
        for nice in (6, -4, 2):
            for _ in range(6):
                yield Run(usecs(400))
            yield SetNice(nice)
        yield Run(msecs(2))

    def yielder():
        for _ in range(12):
            yield Run(usecs(350))
            yield YieldCpu()

    def mover():
        for cpus in ({1}, {0}, {0, 1}):
            yield Run(msecs(2))
            yield SetAffinity(frozenset(cpus))
        yield Run(msecs(2))

    for index, nice in enumerate((-5, -2, 0, 0, 3, 5, 8, 10, 15)):
        kernel.spawn(run_once(msecs(3 + index % 3)), nice=nice,
                     allowed_cpus=pin0)
    kernel.spawn(renicer, allowed_cpus=pin0)
    kernel.spawn(phased(8, usecs(150), msecs(2)), allowed_cpus=pin0)
    kernel.spawn(yielder, nice=2)
    kernel.spawn(mover, nice=-1)
    for index in range(2):
        kernel.spawn(phased(8, usecs(200 + 50 * index), msecs(2)),
                     nice=index)
    for ns in (msecs(9), msecs(7), msecs(8), msecs(6)):
        kernel.spawn(run_once(ns))
    kernel.spawn(run_once(msecs(4)), policy=2, allowed_cpus=pin0)
    kernel.spawn(phased(250, usecs(10), usecs(40)), policy=1,
                 allowed_cpus=frozenset({1}))
    kernel.run_until_idle()
    assert all(t.state is TaskState.DEAD for t in kernel.tasks.values())
    assert kernel.stats.total_migrations > 0
    return state_digest(kernel)


def upgrade_digest():
    """One live upgrade at 300 us under wake/block/fork traffic: the
    quiesce blackout is charged to exactly one later cost read."""
    session = session_for("wfq", upgrade_at_ns=300_000)

    def forker():
        for _ in range(6):
            yield Run(40_000)
            yield Spawn(phased(3, 30_000, 20_000))
            yield Sleep(60_000)

    for _ in range(4):
        session.spawn(phased(20, 50_000, 20_000))
    session.spawn(forker)
    session.run_until_idle()
    assert len(session.upgrades.reports) == 1
    return state_digest(session.kernel)


#: one mid-run live upgrade per Enoki row that admits the upgrade leg
#: (the arbiter's is pinned on its own workload below)
UPGRADE_FAMILIES = sorted(n for n, row in SCHEDULERS.items()
                          if row.kind == "enoki" and not row.upgrade)
MIXED_UPGRADE_AT_NS = 1_500_000


def mixed_digest(sched, upgrade_at_ns=MIXED_UPGRADE_AT_NS):
    """Traffic under which every policy structure holds something at
    1.5 ms, where the live upgrade lands: run queues several deep, hogs
    past serverless's 1 ms demotion threshold (so its long tier is
    populated), yielders, a renice, affinity flips, forks, and
    duration/locality hints."""
    session = session_for(sched, upgrade_at_ns=upgrade_at_ns)
    kernel = session.kernel

    def hog():
        yield SendHint({"expected_ns": 2_500_000, "locality": 1})
        yield Run(2_500_000)

    def undeclared_hog():
        yield Run(2_200_000)

    def yielder():
        for _ in range(25):
            yield Run(30_000)
            yield YieldCpu()

    def mover():
        yield SendHint({"expected_ns": 200_000, "locality": 2})
        yield Run(200_000)
        yield SetAffinity(frozenset({1}))
        yield Run(600_000)
        yield SetNice(5)
        yield SetAffinity(frozenset({0, 1, 2, 3}))
        yield Run(600_000)

    def forker():
        for _ in range(6):
            yield Run(40_000)
            yield Spawn(phased(3, 30_000, 20_000))
            yield Sleep(250_000)

    tasks = [session.spawn(phased(25, 50_000, 20_000)) for _ in range(6)]
    tasks += [session.spawn(prog, nice=nice)
              for prog, nice in ((hog, 0), (hog, 3), (undeclared_hog, -2),
                                 (yielder, 0), (yielder, 0), (mover, 0),
                                 (forker, 0))]
    queued = []
    kernel.events.at(MIXED_UPGRADE_AT_NS - 1, lambda: queued.append(sum(
        t.state is TaskState.RUNNABLE for t in kernel.tasks.values())))
    session.run_until_idle()
    assert queued[0] > kernel.topology.nr_cpus
    assert all(t.state is TaskState.DEAD for t in tasks)
    if upgrade_at_ns:
        report, = session.upgrades.reports
        assert not report.aborted and report.transferred_state
        assert session.shim.lib.scheduler.generation == 2
    return state_digest(kernel)


def arachne_digest(upgrade_at_ns=0):
    """The core arbiter driven by two Arachne runtimes competing for
    cores: registration, grant, park and reclaim hints, parked tokens
    held across picks (and, with ``upgrade_at_ns``, across a live
    upgrade)."""
    session = (KernelBuilder(Topology.small8(), seed=SEED)
               .with_native("cfs")
               .with_enoki("arachne", policy=11, managed_cores=range(1, 6))
               .build())
    kernel, shim = session.kernel, session.shim
    done = []

    def runtime(name, cores, max_cores):
        return ArachneRuntime(
            kernel, cores=cores, policy=11, arbiter=EnokiArbiterClient(shim),
            name=name, min_cores=1, max_cores=max_cores).start(1)

    def work(ns):
        def prog():
            yield URun(ns)
        return prog

    rt_a = runtime("a", [1, 2, 3, 4], 4)
    rt_b = runtime("b", [3, 4, 5], 3)
    if upgrade_at_ns:
        session.schedule_upgrade(upgrade_at_ns)
    kernel.run_for(msecs(2))
    for index in range(12):
        rt_a.submit(work(usecs(300 + 150 * index)),
                    on_done=lambda t: done.append("a"))
    kernel.run_for(msecs(2))
    for index in range(8):
        rt_b.submit(work(usecs(900 - 70 * index)),
                    on_done=lambda t: done.append("b"))
    kernel.run_for(msecs(16))
    assert sorted(done) == ["a"] * 12 + ["b"] * 8
    if upgrade_at_ns:
        report, = session.upgrades.reports
        assert not report.aborted and report.transferred_state
        assert shim.lib.scheduler.generation == 2
    return state_digest(kernel)


def recorder_digest():
    """A recorder-active run: every crossing pays ``record_overhead_ns``."""
    recorder = Recorder(capacity=1 << 20)
    session = KernelBuilder.session_from_spec(
        ScenarioSpec(name="golden-record", sched="wfq", topology="smp:4",
                     seed=SEED), recorder=recorder)
    run_pipe_benchmark(session.kernel, session.policy, rounds=50)
    recorder.stop()
    assert recorder.entries
    return state_digest(session.kernel)


def deep_idle_digest(sched):
    """Sleeps past ``idle_deep_threshold_ns``, then a remote wake.

    ``kick_cpu_for_wakeup`` draws the deep-idle exit jitter twice — once
    for ``task.kick_at_ns`` (the steal-protection window), once for the
    kick event itself — so the two disagree by up to 30 us.  A model
    quirk, pinned here because merging the draws shifts the RNG stream
    (ROADMAP files the fix as a behaviour change).
    """
    session = session_for(sched)
    kernel = session.kernel
    assert msecs(3) >= kernel.config.idle_deep_threshold_ns
    ping, pong = Pipe("ping"), Pipe("pong")

    def sleeper():
        for _ in range(6):
            yield Sleep(msecs(3))
            yield PipeWrite(ping, b"s")
            yield PipeRead(pong)

    def waiter():
        for _ in range(6):
            yield PipeRead(ping)
            yield Run(usecs(40))
            yield PipeWrite(pong, b"w")

    session.spawn(sleeper, allowed_cpus=frozenset({0}))
    session.spawn(waiter, allowed_cpus=frozenset({2}))
    session.run_until_idle()
    return state_digest(kernel)


def faas_digest(sched):
    """The open-loop FaaS trace at 15 k rps on eight CPUs, a quarter of
    the invocations hinted, starting in a burst window: the worker pool
    grows to its cap, placement finds both free and busy machines, and
    the resched timer is re-armed earlier, later and at the same
    instant."""
    session = KernelBuilder.session_from_spec(ScenarioSpec(
        name=f"golden-faas-{sched}", sched=sched, topology="small8",
        seed=SEED, policy=7))
    result = run_faas(session.kernel, session.policy, seed=SEED,
                      offered_rps=15_000, warmup_ns=msecs(5),
                      duration_ns=msecs(40), **FAAS_BASE_OPTIONS)
    assert result.completed == result.offered > 0
    return state_digest(session.kernel)


GOLDEN = {
    ('pipe', 'cfs'):
        "5055f1e604fe19bd177f4d2e3dc1b24d660ef3c8aa125b437d42f4ae49146176",
    ('hackbench', 'cfs'):
        "49cb6d99daa8d847bb47a167bc63e4a6803a0d0992a7cc504c2076ee076888a7",
    ('hackbench-deep', 'cfs'):
        "a424ae533ee599ce6caabe34aa0aed97ca49da86258fabd2495c24f2236d01ba",
    ('pipe', 'eevdf'):
        "62e6b496b743ea2ca96705bee96505955b6b92a15960abf997e32093c0625c72",
    ('hackbench', 'eevdf'):
        "546cdf5b9fd35c7db1f93fac97e195ffad27374c34e00017acdb75e574a0af7a",
    ('hackbench-deep', 'eevdf'):
        "8c1e31dec57d5217fd53d85406b34fad6955afd705bf9d33742e74075cb4c4c6",
    ('pipe', 'fifo'):
        "4f85dedc44ba39181ad93dccb7451b396bde8b0c21c51ea56801cb474f0f40f3",
    ('hackbench', 'fifo'):
        "2ca1325887c193e66e8613711e3010b3992fa4c6a46ab62f0a92bb7e0cfda218",
    ('hackbench-deep', 'fifo'):
        "cbbd68b2c26f2e31c5a7ce27d0378e7eb9a92b7aef9f5249bbd3af9b6eb23a9a",
    ('pipe', 'fifo_native'):
        "5055f1e604fe19bd177f4d2e3dc1b24d660ef3c8aa125b437d42f4ae49146176",
    ('hackbench', 'fifo_native'):
        "49cb6d99daa8d847bb47a167bc63e4a6803a0d0992a7cc504c2076ee076888a7",
    ('hackbench-deep', 'fifo_native'):
        "656b345541c6f17806363bec7181c90d220f58e9fac7b698dbf6b548e7364d3c",
    ('pipe', 'ghost_percpu_fifo'):
        "0a9c76d3240fb68df64b1749dbe2865eeaf1477be46eed09db0a438934c3ac31",
    ('hackbench', 'ghost_percpu_fifo'):
        "4dabb202bf3ccd027906a31068d4d2e285583dae947b73950b091720d539c742",
    ('hackbench-deep', 'ghost_percpu_fifo'):
        "5bfb6eeb6d9160c5c0ab8b3dff71e5919b9fb315e51e033ae03594c93f478e2e",
    ('pipe', 'ghost_shinjuku'):
        "61b306fced51d3e450a992620786d594483086d314621f5b93135507932d5d66",
    ('hackbench', 'ghost_shinjuku'):
        "63e42e727c4c2363d47429c71b32cf129935bbd049633540096629e7a271aa11",
    ('hackbench-deep', 'ghost_shinjuku'):
        "aaff14f4a6a924efb194a87f269323297acd4d946a8796ef3dac2420c8534d37",
    ('pipe', 'ghost_sol'):
        "a621b47a0f19d6b0d673a82bc7c53c57620d38755326d8f582d912d3ace27a8e",
    ('hackbench', 'ghost_sol'):
        "b3dc9626ff845f7c2224cebbb739bd77ce1ac76b2e6925f956b535ecc5b530a6",
    ('hackbench-deep', 'ghost_sol'):
        "637d495b87ea57a59b4389a8d99244e54d613911da2b2c7327a860eb4ee68e8e",
    ('pipe', 'locality'):
        "62e6b496b743ea2ca96705bee96505955b6b92a15960abf997e32093c0625c72",
    ('hackbench', 'locality'):
        "546cdf5b9fd35c7db1f93fac97e195ffad27374c34e00017acdb75e574a0af7a",
    ('hackbench-deep', 'locality'):
        "cbbd68b2c26f2e31c5a7ce27d0378e7eb9a92b7aef9f5249bbd3af9b6eb23a9a",
    ('pipe', 'serverless'):
        "2a1cffd6bfdc7b4430badf9dbb57c7df3c0019ecc4d423f89d862dea76e51862",
    ('hackbench', 'serverless'):
        "aa681d3036385a63c1c0c43c49922e2a1daeae8a107545715ef499ef8039768f",
    ('hackbench-deep', 'serverless'):
        "ac73bfee75d3e4efd7f76482f724d1e4fca2919a0886b788da191888e5a99d74",
    ('pipe', 'shinjuku'):
        "ed9ac879e04662b29b9b593ddca7390e488141a1e8bb10907d9bf95aa1318b5c",
    ('hackbench', 'shinjuku'):
        "c45d5eed84b55b0f36c7af0d2bcd2923e514dd1a39ffd39eede593d8fa2e940c",
    ('hackbench-deep', 'shinjuku'):
        "2d37b99406f5de005d43e27e39034e4811232ae98e9a46250aa6785cd0cf133e",
    ('pipe', 'wfq'):
        "62e6b496b743ea2ca96705bee96505955b6b92a15960abf997e32093c0625c72",
    ('hackbench', 'wfq'):
        "546cdf5b9fd35c7db1f93fac97e195ffad27374c34e00017acdb75e574a0af7a",
    ('hackbench-deep', 'wfq'):
        "8c1e31dec57d5217fd53d85406b34fad6955afd705bf9d33742e74075cb4c4c6",
    'tenants-cfs':
        "d4b0b6239a154b1864b34dc0d1dcc7e0205684ccee09c349c924f43e9cdb48dd",
    'group-forest':
        "6f39e09d16976cc37c0b72686cb2bd8a19393419a8016745d4a870b868d35056",
    'class-stack':
        "2adfb61d0c3ab457bde3e656a0e8f36f5ff9b9a5364b919ea74467bb584eacb3",
    'flat-cfs':
        "4950ab89b629eb0e017d7ea724d0f8d940aaef0f61c320ab0daa0c22a251e2bd",
    'upgrade':
        "4393f8cf099d60d46db58ff02efb1c6db29c0dcbf3e20e7c451ba330c8178ade",
    'recorder':
        "f0cd19509f3e82b6810db530be8f1f10fae63bb10eb212c3d2d4d66152d30481",
    ('deep-idle', 'cfs'):
        "0355c1fdc6d4c02fc10761a43312354a81cb7b044c26927a9ecc43924cbceab4",
    ('deep-idle', 'wfq'):
        "659ef585c3d272ca69b81bd9c410c9aada78959dfb557dc67d90cf238920d53d",
    ('pipe', 'nest'):
        "62e6b496b743ea2ca96705bee96505955b6b92a15960abf997e32093c0625c72",
    ('hackbench', 'nest'):
        "546cdf5b9fd35c7db1f93fac97e195ffad27374c34e00017acdb75e574a0af7a",
    ('hackbench-deep', 'nest'):
        "e4bdd59e0c07383d5cccb62ce7b7ffd38a3e5057b0c719bc3a833a47c1bfaa21",
    ('upgrade-mixed', 'eevdf'):
        "9105520e41a5affb462fa0e023b7130e0b0addffbd6ab86913a74de392cc04df",
    ('upgrade-mixed', 'fifo'):
        "745241cd85421ee9f253336ba55085171cb9b2be8414f5c64b63059fe8c35830",
    ('upgrade-mixed', 'nest'):
        "44eb8055dc0429a3a3807f7aea6e0148371c39d0d2a703d8af62501ab154f6aa",
    ('upgrade-mixed', 'serverless'):
        "06b3c3afce40e2610b0424dda5df92e48ff46935d44aca3019be20323351e540",
    ('upgrade-mixed', 'shinjuku'):
        "2a7f5bcab3f3ed61f9b2e6f6839dea3cabf87107d93aa8a68afac37dbc85ad16",
    ('upgrade-mixed', 'wfq'):
        "9105520e41a5affb462fa0e023b7130e0b0addffbd6ab86913a74de392cc04df",
    ('upgrade-mixed', 'locality'):
        "c273c580c1b05c02d0eaee6a75aa9e6c02589f880a2b10c07c9e4ce401be1dbf",
    ('mixed', 'locality'):
        "60021702163e71f64fc62ea9adb2b65c4925ce56c426fd154af9b8ef60253f49",
    'arachne':
        "df1b45b2a2dc9515b6d4bb31cd612155ac96185ab18997df940585d54d395f1e",
    'arachne-upgrade':
        "318e65ad0011f68f3f37a949393cf8009f00f69cec68ece68e6ffe4acac8d6f6",
    ('faas', 'serverless'):
        "c040d87aaa177f1198e93ad455224b9b86f5801a109b73df52451a1570b62eb4",
    ('faas', 'shinjuku'):
        "9e3a0da0579a6957a6fe009aa62341daf6f5d1c30197a608903255311639358d",
    ('fuzz', 0):
        "ab63173fe0f1d908d93d8454fca9bc2bf7a3804ab68a7aa5a40afff8df320783",
    ('fuzz', 1):
        "745f383b0dfa733b5a7ba3a2c141464b89bab70c553a76cda20172c0ce9c3d57",
    ('fuzz', 2):
        "a2a554f69bb04eb7c406274786e98fed9b33ad94349c6dd7174bac8c427b9dd4",
    ('fuzz', 3):
        "560b14cae7e4d7d7546c069ce09338886d5c2eaf19d773685f642bfd8ea3b6e1",
    ('fuzz', 4):
        "ef743bf5164e6280cbbc63b62eb6775a669302eca7c9c3f4c5f9b81dc2802315",
    ('fuzz', 5):
        "7821bf4a2739f5670ca50f35ccc6cd97087d4def656f9d7c3edfaf2f4469b6cf",
    ('fuzz', 6):
        "95b65691e8c635ce36b3b9896ce210a161fb7bbd1d2c8198934eec0bfb060aa1",
    ('fuzz', 7):
        "efe0acc6f1de434e4bf5575d165e444d82f39fef3873b518ac5341da18dbe4dd",
}


def test_every_nameable_scheduler_is_pinned():
    pinned = {key[1] if isinstance(key, tuple) else key for key in GOLDEN}
    assert set(SCHEDULERS) <= pinned


@pytest.mark.parametrize("sched", PINNED)
def test_pipe_digest_is_golden(sched):
    assert pipe_digest(sched) == GOLDEN["pipe", sched]


@pytest.mark.parametrize("sched", PINNED)
def test_hackbench_digest_is_golden(sched):
    assert hackbench_digest(sched) == GOLDEN["hackbench", sched]


@pytest.mark.parametrize("sched", PINNED)
def test_deep_hackbench_digest_is_golden(sched):
    """Sixteen tasks on four CPUs: run queues several deep, balance
    pulls and failed migrations — where the schedulers tell apart."""
    assert (hackbench_digest(sched, groups=2, fds=4, loops=5)
            == GOLDEN["hackbench-deep", sched])


def test_tenants_cfs_digest_is_golden():
    assert tenants_digest() == GOLDEN["tenants-cfs"]


def test_group_forest_cfs_digest_is_golden():
    assert group_forest_digest() == GOLDEN["group-forest"]


def test_four_class_stack_digest_is_golden():
    assert class_stack_digest() == GOLDEN["class-stack"]


def test_flat_cfs_nice_renice_and_shared_cpu_digest_is_golden():
    assert flat_cfs_digest() == GOLDEN["flat-cfs"]


def test_live_upgrade_digest_is_golden():
    assert upgrade_digest() == GOLDEN["upgrade"]


@pytest.mark.parametrize("sched", UPGRADE_FAMILIES)
def test_mixed_traffic_upgrade_digest_is_golden(sched):
    assert mixed_digest(sched) == GOLDEN["upgrade-mixed", sched]


def test_mixed_traffic_locality_digest_is_golden():
    """Hinted groups: co-location, and a balance that skips hinted work."""
    assert (mixed_digest("locality", upgrade_at_ns=0)
            == GOLDEN["mixed", "locality"])


def test_arachne_arbiter_digest_is_golden():
    assert arachne_digest() == GOLDEN["arachne"]


def test_arachne_arbiter_upgrade_digest_is_golden():
    assert arachne_digest(upgrade_at_ns=msecs(3)) == GOLDEN["arachne-upgrade"]


def test_recorder_active_digest_is_golden():
    assert recorder_digest() == GOLDEN["recorder"]


@pytest.mark.parametrize("sched", ("cfs", "wfq"))
def test_deep_idle_sleeper_digest_is_golden(sched):
    assert deep_idle_digest(sched) == GOLDEN["deep-idle", sched]


@pytest.mark.parametrize("seed", range(8))
def test_quiet_fuzz_episode_digest_is_golden(seed):
    """Fault plans, failover, group forests and parks, unobserved."""
    assert episode_digest(seed) == GOLDEN["fuzz", seed]


@pytest.mark.parametrize("sched", ("serverless", "shinjuku"))
def test_faas_digest_is_golden(sched):
    """Guard timers, hints and placement under the FaaS driver."""
    assert faas_digest(sched) == GOLDEN["faas", sched]
