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
token queue: they pin the two policies ``KernelBuilder`` cannot name and
one mid-run live upgrade per transfer family, taken while run queues are
several deep and both serverless tiers are populated.

The ``group-forest`` literal was recorded on the commit before the
hierarchical effective weight was memoised: a stale weight after a
renice, a migration or an unthrottle moves vruntime, so the pick order,
so the digest.
"""

import pytest

from repro.arachne_rt import ArachneRuntime, URun
from repro.arachne_rt.clients import EnokiArbiterClient
from repro.core import EnokiSchedClass
from repro.core.record import Recorder
from repro.exp import KernelBuilder, ScenarioSpec
from repro.exp.builder import (
    _NATIVE_SCHEDULERS,
    Session,
    enoki_scheduler_names,
)
from repro.schedulers.arachne import EnokiCoreArbiter
from repro.schedulers.cfs import CfsSchedClass
from repro.schedulers.deadline import DeadlineSchedClass
from repro.schedulers.rt import RtSchedClass
from repro.schedulers.wfq import EnokiWfq
from repro.simkernel import Kernel, SimConfig, TaskState, Topology
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
from repro.workloads.hackbench import run_hackbench
from repro.workloads.multitenant import run_multitenant
from repro.workloads.pipe_bench import run_pipe_benchmark

SEED = 1905

#: every scheduler ``KernelBuilder`` can name -> its ``sched_options``
#: on smp:4 (ghost_shinjuku's default CPU split assumes eight CPUs)
SCHEDULERS = {
    "cfs": {},
    "fifo_native": {},
    "eevdf": {},
    "fifo": {},
    "locality": {},
    "nest": {},
    "serverless": {},
    "shinjuku": {},
    "wfq": {},
    "ghost_sol": {},
    "ghost_percpu_fifo": {},
    "ghost_shinjuku": {"managed_cpus": [0, 1, 2], "agent_cpu": 3},
}


def direct_session(factory, policy, topology):
    """An Enoki policy ``KernelBuilder`` cannot name, registered directly
    over a CFS base the way ``from_spec`` stacks the nameable ones."""
    kernel = Kernel(topology, SimConfig(seed=SEED))
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=5)
    shim = EnokiSchedClass.register(kernel, factory(), policy, priority=10)
    return Session(kernel, policy, shim=shim, scheduler_factory=factory)


def session_for(sched, upgrade_at_ns=0):
    return KernelBuilder.session_from_spec(ScenarioSpec(
        name=f"golden-{sched}", sched=sched, topology="smp:4", seed=SEED,
        # nest's goldens were recorded under its own default policy number
        policy=12 if sched == "nest" else 7,
        sched_options=SCHEDULERS[sched], upgrade_at_ns=upgrade_at_ns))


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
    """DL > RT > Enoki > CFS on two CPUs with sleepers in every class, so
    wakeups land on CPUs busy with a higher and a lower class."""
    kernel = Kernel(Topology.smp(2), SimConfig(seed=SEED))
    dl = DeadlineSchedClass(policy=3)
    rt = RtSchedClass(policy=2)
    kernel.register_sched_class(dl, priority=90)
    kernel.register_sched_class(rt, priority=80)
    kernel.register_sched_class(CfsSchedClass(policy=0), priority=10)
    EnokiSchedClass.register(kernel, EnokiWfq(2, 7), 7, priority=50)
    dl.spawn_dl(phased(6, usecs(200), usecs(700)),
                runtime_ns=usecs(500), period_ns=msecs(2))
    rt.spawn_rt(phased(8, usecs(150), usecs(400)), 30)
    for index in range(3):
        kernel.spawn(phased(10, usecs(120 + 30 * index), usecs(250)),
                     policy=7)
        kernel.spawn(phased(10, usecs(90 + 40 * index), usecs(300)),
                     policy=0)
    kernel.run_until_idle()
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


#: one mid-run live upgrade per transfer family (``arachne`` has its own
#: workload below); ``locality`` exports no transfer state on the commit
#: these were recorded on, so it runs the same traffic without one
UPGRADE_FAMILIES = ("eevdf", "fifo", "nest", "serverless", "shinjuku", "wfq")
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
    def factory():
        return EnokiCoreArbiter(8, 11, managed_cores=range(1, 6))

    session = direct_session(factory, 11, Topology.small8())
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
        "02730a1983558f0871880dfb23decd767d424c865302975171a1055827b5e644",
    'class-stack':
        "6af0fc425a2d6b26439102b9bc5217c84bbdcab2f3f79c8d755d1ff8b4d05be2",
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
        "b85115d7bf9f4b0f58de9055049791c62837a032e690111384e2114f969f7d56",
    ('upgrade-mixed', 'fifo'):
        "82a87e4cf2057414a8acfaaeeb1face78b7d2e2123deae793499747e6d8e3873",
    ('upgrade-mixed', 'nest'):
        "ffc20245f0271a3b9f48fdfd38a4c92139402066da6ae16abb06153b0b06b894",
    ('upgrade-mixed', 'serverless'):
        "404d90727491a317b6c3f6a398fdd33f29a12a7307719d710cf7f27ec3068a30",
    ('upgrade-mixed', 'shinjuku'):
        "3407fb05afd6466631542b05f298e9cb7d8deb61bc23e57a397c03bfa736d25e",
    ('upgrade-mixed', 'wfq'):
        "190fd782042ba0be6f669711acd9f4cf7ea72d7593ba7f829ade114d3d34aebc",
    ('mixed', 'locality'):
        "1e055103eb0332ac233bf7619b35392a414495903b4c73fa160da8afe8a22845",
    'arachne':
        "df1b45b2a2dc9515b6d4bb31cd612155ac96185ab18997df940585d54d395f1e",
    'arachne-upgrade':
        "318e65ad0011f68f3f37a949393cf8009f00f69cec68ece68e6ffe4acac8d6f6",
    ('fuzz', 0):
        "ab63173fe0f1d908d93d8454fca9bc2bf7a3804ab68a7aa5a40afff8df320783",
    ('fuzz', 1):
        "745f383b0dfa733b5a7ba3a2c141464b89bab70c553a76cda20172c0ce9c3d57",
    ('fuzz', 2):
        "93cc3d07fdbaca6b585322225dca36b09a00c50b893ceebe2aab66ced2b1641d",
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
    named = set(_NATIVE_SCHEDULERS) | set(enoki_scheduler_names())
    assert named <= set(SCHEDULERS)


PINNED = sorted(SCHEDULERS)


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
