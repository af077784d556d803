"""The six benchmark workloads.

Each is a closed batch run of the simulator at a stated size — the
simulator is a batch tool, so the metric is ops per host CPU-second, with
"op" defined per workload.  A workload splits into ``build`` (untimed:
the fresh session), ``body`` (the timed section, also what the traced
pass profiles) and ``check`` (untimed: correctness of the outputs, the
simulated statistics and the end-state digest).

The program is driven through public names only, and only ever sees
specs generated here from ``--seed``.

What ``--seed`` varies: every session's ``ScenarioSpec.seed`` (the
kernel's jitter RNG), each fuzz episode's kernel seed and the episode
order.  What it does not: the *shape* of the work — the FaaS invocation
trace and the fuzz episode corpus are fixed samples.  Cost per op swings
2x from one FaaS trace to the next and ~1x from one fuzz episode to the
next, so shapes drawn afresh per seed would bury any code change; with
fixed shapes a new seed is a different simulation (other interleavings,
other digests) of the same amount of work, and ``calls_per_op`` moves by
under 2 % between seeds.
"""

import hashlib
import json
import random
from dataclasses import replace

#: paper reference for pipe-wfq's headline (EXPERIMENTS.md, Table 3,
#: two cores, WFQ), in simulated microseconds per message.  The only
#: workload with a reference; the other five are unvalidated.
PIPE_WFQ_PAPER_US = 4.0

#: the three-tenant contract of ``repro bench --multitenant`` (values
#: copied: perfbench must not import ``repro.exp.bench``)
MULTITENANT_GROUPS = (
    {"name": "tenant-a", "weight": 2048},
    {"name": "tenant-b", "weight": 1024},
    {"name": "tenant-c", "weight": 1024,
     "quota_ns": 2_000_000, "period_ns": 10_000_000},
)
MULTITENANT_TASKS = (
    {"name": "tenant-a", "tasks": 4},
    {"name": "tenant-b", "tasks": 4},
    {"name": "tenant-c", "tasks": 2},
)

#: the sampler knobs of ``repro bench --faas`` (values copied, as above)
FAAS_BASE_OPTIONS = {
    "functions": 64,
    "zipf_s": 1.1,
    "long_function_fraction": 0.125,
    "short_service_us": 150.0,
    "short_sigma": 0.6,
    "long_service_ms": 10.0,
    "long_sigma": 0.3,
    "cold_start_us": 250.0,
    "max_workers": 64,
    "hint_fraction": 0.25,
    "burst_factor": 2.0,
    "burst_every_ns": 250_000_000,
    "burst_len_ns": 25_000_000,
}

#: the FaaS trace every seed replays (the sampler's seed; see above)
FAAS_TRACE_SEED = 2024

#: smoke runs divide every size by this
SMOKE_DIVISOR = 5


def derive_seed(seed, label):
    """A 32-bit spec seed from the benchmark seed; string seeding hashes
    with SHA-512, so it does not depend on PYTHONHASHSEED."""
    return random.Random(f"perfbench:{seed}:{label}").getrandbits(32)


def sim_stats(kernel, headline):
    """The simulated statistics a speed-only change must leave identical."""
    stats = kernel.stats
    return {
        "simulated_ns": kernel.now,
        "sched_invocations": stats.sched_invocations,
        "wakeups": stats.total_wakeups,
        "switches": sum(cpu.switches for cpu in stats.cpus),
        "migrations": stats.total_migrations,
        "headline": headline,
    }


def end_state_problems(kernel):
    """Why the machine's end state is wrong (empty when it is right)."""
    from repro.verify import check_kernel_state
    problems = [f"task {pid} ended {task.state.name}"
                for pid, task in sorted(kernel.tasks.items())
                if task.state.name != "DEAD"]
    problems += [str(v) for v in check_kernel_state(kernel)]
    return problems


class Workload:
    """One workload at one seed and size.  Subclasses set ``name``,
    ``why``, ``op``, ``headline_unit`` and ``full_size``."""

    name = why = op = headline_unit = ""
    full_size = {}
    #: False: EXPERIMENTS.md holds no reference for the headline, so the
    #: model is unvalidated on this workload and no error figure is given
    validated = False
    #: layers that must make zero calls in the traced pass: ``obs`` and
    #: ``groups`` on every flat hot-path workload (asserted, not assumed)
    idle_layers = ("obs", "groups")

    def __init__(self, seed, smoke=False):
        divisor = SMOKE_DIVISOR if smoke else 1
        self.size = {key: max(1, value // divisor)
                     for key, value in self.full_size.items()}

    def first_session(self):
        """What ``setup_s`` ends with: the workload's first session."""
        return self.build()

    def plain_session(self):
        """A session of the workload's shape with nothing attached (the
        session drivers snapshot it, and snapshots refuse attachments)."""
        return self.first_session()

    def build(self):
        """The state ``body`` runs on: a fresh session, or None when the
        program builds its own."""
        raise NotImplementedError

    def body(self, state):
        raise NotImplementedError

    def check(self, state, result):
        """-> {"ops", "failed", "problems", "digest", "sim"}"""
        raise NotImplementedError

    def _outcome(self, kernel, ops, headline, problems):
        from repro.verify import state_digest
        problems = problems + end_state_problems(kernel)
        return {"ops": ops, "failed": ops if problems else 0,
                "problems": problems, "digest": state_digest(kernel),
                "sim": sim_stats(kernel, headline)}


class _SpecWorkload(Workload):
    """A workload whose session comes from one ScenarioSpec."""

    sched = "wfq"
    topology = "small8"
    groups = ()

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        from repro.exp import ScenarioSpec
        self.spec = ScenarioSpec(
            name=self.name, sched=self.sched, topology=self.topology,
            seed=derive_seed(seed, self.name), groups=self.groups)

    def build(self):
        from repro.exp import KernelBuilder
        return KernelBuilder.session_from_spec(self.spec)


class PipeWfq(_SpecWorkload):
    name = "pipe-wfq"
    why = ("block/wake ping-pong through the Enoki-C shim at queue depth "
           "<=1: shim, tokens and dispatch dominate; paper Table 3 "
           "reference (4.0 us/msg)")
    op = "one pipe message (2 per round)"
    headline_unit = "us/msg"
    full_size = {"rounds": 1500}
    validated = True

    def body(self, session):
        from repro.workloads.pipe_bench import run_pipe_benchmark
        return run_pipe_benchmark(session.kernel, session.policy,
                                  rounds=self.size["rounds"])

    def check(self, session, result):
        problems = []
        if result.rounds != self.size["rounds"]:
            problems.append(f"ran {result.rounds} rounds")
        return self._outcome(session.kernel, result.measured_messages,
                             result.latency_us_per_message, problems)


class TenantsCfs(_SpecWorkload):
    name = "tenants-cfs"
    why = ("native CFS with three task groups on smp:4: bypasses the "
           "shim entirely; tick, update_curr and bandwidth timers; the "
           "only workload where groups works")
    op = "one simulated CPU-millisecond (duration_ms x 4 CPUs)"
    headline_unit = "share"
    full_size = {"duration_ms": 2500}
    sched = "cfs"
    topology = "smp:4"
    groups = MULTITENANT_GROUPS
    idle_layers = ("shim", "tokens", "hints", "obs")

    def body(self, session):
        from repro.workloads.multitenant import run_multitenant
        return run_multitenant(
            session.kernel, session.policy, tenants=MULTITENANT_TASKS,
            duration_ns=self.size["duration_ms"] * 1_000_000)

    def check(self, session, result):
        problems = [] if result.completed else ["tenants did not drain"]
        return self._outcome(session.kernel, self.size["duration_ms"] * 4,
                             result.share("tenant-c"), problems)


class HackbenchWfq(_SpecWorkload):
    name = "hackbench-wfq"
    why = ("the pipe-wfq shim used differently: run queues many deep, "
           "wake fan-out, select_task_rq and migration; queue-primitive "
           "changes show here and not on pipe-wfq")
    op = "one hackbench message"
    headline_unit = "ns"
    full_size = {"loops": 100}
    topology = "smp:4"

    def body(self, session):
        from repro.workloads.hackbench import run_hackbench
        return run_hackbench(session.kernel, session.policy, groups=2,
                             fds=4, loops=self.size["loops"])

    def check(self, session, result):
        return self._outcome(session.kernel, result.total_messages,
                             result.elapsed_ns, [])


class FaasServerless(_SpecWorkload):
    name = "faas-serverless"
    why = ("open-loop FaaS trace at ~89% load on the serverless policy: "
           "sparse virtual time, dozens of live events, timers, hint rings, "
           "spawn-on-demand pool; where event-queue and hints changes show")
    op = "one completed invocation"
    headline_unit = "us"
    full_size = {"duration_ms": 200}
    sched = "serverless"
    #: the ``repro bench --faas`` headline load.  Not 20 000: there the
    #: 8-CPU machine is overloaded, the backlog is chaotic, and cost per
    #: invocation swings 2x with the kernel seed alone.
    offered_rps = 15_000

    def body(self, session):
        from repro.workloads.faas import run_faas
        return run_faas(
            session.kernel, session.policy, seed=FAAS_TRACE_SEED,
            offered_rps=self.offered_rps, warmup_ns=20_000_000,
            duration_ns=self.size["duration_ms"] * 1_000_000,
            **FAAS_BASE_OPTIONS)

    def check(self, session, result):
        problems = []
        if result.completed != result.offered:
            problems.append(f"completed {result.completed} of "
                            f"{result.offered} offered")
        return self._outcome(session.kernel, result.completed,
                             result.p99_us, problems)


class FuzzMixed(Workload):
    name = "fuzz-mixed"
    why = ("what repro fuzz users wait on: many short sessions, two "
           "builds per episode, sanitizers on the observer hook, replay "
           "and control oracles, upgrades, fault plans, group forests")
    op = "one fuzz episode"
    headline_unit = "ns"
    full_size = {"episodes": 16}
    idle_layers = ()

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        # Fixed corpus of shapes (scheduler, CPUs, tasks, faults, groups:
        # generator seeds 0..n-1); the benchmark seed re-keys each
        # episode's kernel and permutes the order.
        rng = random.Random(f"perfbench:{seed}:{self.name}")
        shapes = list(range(self.size["episodes"]))
        rng.shuffle(shapes)
        self.episodes = [(shape, rng.getrandbits(32)) for shape in shapes]

    def _spec(self, shape, kernel_seed, bug=""):
        from repro.verify import generate_episode
        return replace(generate_episode(shape), seed=kernel_seed, bug=bug)

    def first_session(self):
        from repro.exp import KernelBuilder, ScenarioSpec
        first = self._spec(*self.episodes[0])
        return KernelBuilder.session_from_spec(ScenarioSpec(
            name=self.name, sched=first.sched, seed=first.seed,
            topology=f"smp:{first.nr_cpus}"))

    def build(self):
        return None

    def body(self, _state, bug=""):
        from repro.verify import run_episode
        return [run_episode(self._spec(shape, kernel_seed, bug),
                            capture=True)
                for shape, kernel_seed in self.episodes]

    def check(self, _state, results):
        failed = sum(1 for r in results if not r.ok)
        problems = [f"episode shape {r.spec.seed}: {r.violations[0]}"
                    for r in results if not r.ok]
        sim = dict.fromkeys(("simulated_ns", "sched_invocations", "wakeups",
                             "switches", "migrations"), 0)
        rows = []
        for r in results:
            gauges = r.suite.collect().gauges
            sim["simulated_ns"] += r.sim_ns
            sim["sched_invocations"] += gauges[
                "kernel.sched_invocations"].value
            sim["wakeups"] += gauges["kernel.total_wakeups"].value
            sim["migrations"] += gauges["kernel.total_migrations"].value
            sim["switches"] += sum(
                gauge.value for name, gauge in gauges.items()
                if name.startswith("kernel.cpu")
                and name.endswith(".switches"))
            rows.append([r.spec.seed, r.ok, r.sim_ns, r.events_seen,
                         r.completed, r.total_tasks, r.faults_fired,
                         r.replay_checked, r.control_checked])
        sim["headline"] = sim["simulated_ns"]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return {"ops": len(results), "failed": failed, "problems": problems,
                "digest": digest, "sim": sim}


class PipeWfqObserved(_SpecWorkload):
    name = "pipe-wfq-observed"
    why = ("pipe-wfq on the observed path (_hot=False): recorder, "
           "observer, 1 ms telemetry, then sequential replay; a hot-path "
           "gain bought by slowing this path moves the pair apart")
    op = "one pipe message (2 per round)"
    headline_unit = "us/msg"
    full_size = {"rounds": 200}
    idle_layers = ()

    def build(self):
        from repro.core.record import Recorder
        from repro.exp import KernelBuilder
        self.recorder = Recorder(capacity=1 << 22)
        session = KernelBuilder.session_from_spec(self.spec,
                                                  recorder=self.recorder)
        session.attach_observer()
        session.attach_telemetry(1_000_000)
        return session

    def plain_session(self):
        return super().build()

    def body(self, session):
        from repro.core.replay import ReplayEngine
        from repro.workloads.pipe_bench import run_pipe_benchmark
        recorder = self.recorder
        result = run_pipe_benchmark(session.kernel, session.policy,
                                    rounds=self.size["rounds"])
        session.stop()
        recorder.stop()
        replay = ReplayEngine(session.scheduler_factory,
                              recorder.entries).run_sequential()
        return result, replay

    def check(self, session, outputs):
        recorder = self.recorder
        result, replay = outputs
        problems = []
        if result.rounds != self.size["rounds"]:
            problems.append(f"ran {result.rounds} rounds")
        if not replay.matched:
            problems.append(f"replay diverged: {replay.divergences[:1]}")
        if recorder.dropped:
            problems.append(f"recorder dropped {recorder.dropped} entries")
        return self._outcome(session.kernel, result.measured_messages,
                             result.latency_us_per_message, problems)


WORKLOADS = {cls.name: cls for cls in (
    PipeWfq, TenantsCfs, HackbenchWfq, FaasServerless, FuzzMixed,
    PipeWfqObserved)}
