"""``repro bench``: a parallel, sharded, cached benchmark runner.

The runner turns a list of :class:`~repro.exp.spec.ScenarioSpec` into a
``BENCH_<name>.json`` trajectory:

* **Sharding** — specs are dealt round-robin into one shard per worker
  and executed on a ``multiprocessing`` pool.  Every spec carries its own
  deterministically derived seed (:func:`derive_seed`), so results are
  bit-identical regardless of worker count or shard assignment; the
  payload is reassembled in spec order before writing.
* **Caching** — results are keyed by ``spec_hash + git rev`` under
  ``.bench-cache/``; re-running a sweep on an unchanged tree replays from
  cache and must produce a byte-identical deterministic payload (CI's
  ``bench-smoke`` job enforces exactly that).
* **Self-measurement** — the sweep records the simulator's own speed
  (simulated nanoseconds per wall-clock second) so optimisation PRs have
  a trajectory to beat; :func:`run_simperf` appends the same metric to
  ``BENCH_simperf.json``.

Wall-clock and timestamp fields are volatile by nature and are kept in
the payload's ``meta`` section; everything outside ``meta`` is
deterministic.
"""

import hashlib
import json
import multiprocessing
import os
import subprocess
import time

from repro.exp.builder import KernelBuilder
from repro.exp.spec import ScenarioSpec
from repro.simkernel.errors import SimError

#: payload marker for BENCH trajectory files
TRAJECTORY_KIND = "repro.bench trajectory"
SIMPERF_KIND = "repro.bench simperf trajectory"

DEFAULT_CACHE_DIR = ".bench-cache"


def derive_seed(master_seed, index):
    """Deterministic per-spec seed: stable across runs, shard layouts,
    and worker counts."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def git_rev():
    """The tree's commit hash, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


# ----------------------------------------------------------------------
# workload execution (runs inside worker processes)
# ----------------------------------------------------------------------

def _wl_pipe(session, opts):
    from repro.workloads.pipe_bench import run_pipe_benchmark
    result = run_pipe_benchmark(session.kernel, session.policy, **opts)
    return {
        "latency_us_per_message": result.latency_us_per_message,
        "rounds": result.rounds,
        "measured_ns": result.measured_ns,
    }


def _wl_schbench(session, opts):
    from repro.workloads.schbench import run_schbench
    result = run_schbench(session.kernel, session.policy, **opts)
    return {
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "samples": len(result.samples_us),
    }


def _wl_fairness(session, opts):
    from repro.workloads.fairness import run_fair_share
    result = run_fair_share(session.kernel, session.policy, **opts)
    finish = result.finish_times_ns
    return {
        "max_finish_ns": max(finish.values()),
        "min_finish_ns": min(finish.values()),
        "tasks": len(finish),
    }


def _wl_hackbench(session, opts):
    from repro.workloads.hackbench import run_hackbench
    result = run_hackbench(session.kernel, session.policy, **opts)
    return {"elapsed_ns": result.elapsed_ns,
            "total_messages": result.total_messages}


def _latency_us(value):
    """NaN-safe latency cell: JSON payloads carry None, not NaN."""
    return None if value != value else round(value, 3)


def _wl_faas(session, opts):
    from repro.workloads.faas import run_faas
    result = run_faas(session.kernel, session.policy, **opts)
    return {
        "p50_us": _latency_us(result.p50_us),
        "p99_us": _latency_us(result.p99_us),
        "p999_us": _latency_us(result.p999_us),
        "long_p99_us": _latency_us(result.long_p99_us),
        "throughput_rps": round(result.throughput_rps, 3),
        "invocations": result.total_invocations,
        "offered": result.offered,
        "completed": result.completed,
        "cold_starts": result.cold_starts,
        "warm_pool": result.warm_pool,
    }


def _wl_multitenant(session, opts):
    from repro.workloads.multitenant import run_multitenant
    result = run_multitenant(session.kernel, session.policy, **opts)
    out = {
        "capacity_ns": result.capacity_ns,
        "completed": result.completed,
        "tenants": {},
    }
    for name, metrics in sorted(result.tenants.items()):
        out["tenants"][name] = {
            "runtime_ns": metrics["runtime_ns"],
            "share": round(metrics["runtime_ns"] / result.capacity_ns, 4)
            if result.capacity_ns else 0.0,
            "throttles": metrics["throttle_count"],
            "max_period_consumed_ns": metrics["max_period_consumed_ns"],
        }
    return out


WORKLOADS = {
    "pipe": _wl_pipe,
    "schbench": _wl_schbench,
    "fairness": _wl_fairness,
    "hackbench": _wl_hackbench,
    "faas": _wl_faas,
    "multitenant": _wl_multitenant,
}


def workload_names():
    """Every workload name ``run_spec`` accepts."""
    return sorted(WORKLOADS) + ["cluster"]


def run_spec(spec):
    """Execute one scenario start-to-finish; returns a deterministic
    metrics dict (no wall-clock values)."""
    if isinstance(spec, dict):
        spec = ScenarioSpec.from_dict(spec)
    if spec.workload == "cluster":
        # Fleet episodes build their own N kernels; the spec's fleet
        # parameters all live in workload_options, so the cache key
        # (spec_hash + git rev) covers them like any other scenario.
        from repro.cluster import run_cluster_spec
        return run_cluster_spec(spec)
    runner = WORKLOADS.get(spec.workload)
    if runner is None:
        raise SimError(
            f"unknown bench workload {spec.workload!r}; registered "
            f"workloads: {', '.join(workload_names())}")
    session = KernelBuilder.session_from_spec(spec)
    metrics = runner(session, dict(spec.workload_options))
    session.stop()
    metrics["simulated_ns"] = session.kernel.now
    metrics["total_wakeups"] = session.kernel.stats.total_wakeups
    metrics["total_migrations"] = session.kernel.stats.total_migrations
    if session.telemetry is not None:
        # Windowed time-series + SLO tallies ride along in the result
        # file; everything in the summary derives from virtual time, so
        # the payload stays deterministic.
        metrics["telemetry"] = session.telemetry.summary()
    return metrics


def _run_shard(shard):
    """Worker entry: run a shard's specs sequentially.

    Returns ``(results, wall_s, simulated_ns)`` where ``results`` maps
    spec hash -> metrics.  Wall time is per-shard so the parent can
    report the simulator's own speed.
    """
    start = time.perf_counter()
    results = {}
    simulated = 0
    for spec_dict in shard:
        spec = ScenarioSpec.from_dict(spec_dict)
        metrics = run_spec(spec)
        results[spec.spec_hash()] = metrics
        simulated += metrics.get("simulated_ns", 0)
    return results, time.perf_counter() - start, simulated


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------

class BenchCache:
    """Result store keyed by (git rev, spec hash)."""

    def __init__(self, root=DEFAULT_CACHE_DIR, rev="unknown"):
        self.root = root
        self.rev = rev

    def _path(self, spec_hash):
        return os.path.join(self.root,
                            f"{self.rev[:12]}-{spec_hash[:24]}.json")

    def get(self, spec_hash):
        path = self._path(spec_hash)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if entry.get("spec_hash") != spec_hash or entry.get("rev") != self.rev:
            return None
        return entry.get("metrics")

    def put(self, spec_hash, spec_dict, metrics):
        os.makedirs(self.root, exist_ok=True)
        path = self._path(spec_hash)
        tmp = path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump({"rev": self.rev, "spec_hash": spec_hash,
                       "spec": spec_dict, "metrics": metrics}, handle)
        os.replace(tmp, path)


# ----------------------------------------------------------------------
# the sweep runner
# ----------------------------------------------------------------------

def run_sweep(specs, name, workers=1, cache_dir=DEFAULT_CACHE_DIR,
              out_dir=".", use_cache=True, rev=None, progress=None):
    """Run a sweep of specs, sharded over ``workers`` processes.

    Writes ``BENCH_<name>.json`` into ``out_dir`` and returns the payload.
    Everything outside the payload's ``meta`` key is deterministic for a
    given (specs, git rev) pair — byte-identical across repeat runs, with
    or without cache hits, at any worker count.
    """
    start = time.perf_counter()
    specs = [ScenarioSpec.from_dict(s) if isinstance(s, dict) else s
             for s in specs]
    rev = rev if rev is not None else git_rev()
    cache = BenchCache(cache_dir, rev) if use_cache else None

    hashes = [spec.spec_hash() for spec in specs]
    metrics_by_hash = {}
    cache_hits = 0
    pending = []
    for spec, spec_hash in zip(specs, hashes):
        cached = cache.get(spec_hash) if cache is not None else None
        if cached is not None:
            metrics_by_hash[spec_hash] = cached
            cache_hits += 1
        else:
            pending.append(spec)

    shard_wall = []
    simulated_total = 0
    if pending:
        shards = [[s.to_dict() for s in pending[i::workers]]
                  for i in range(max(1, workers))]
        shards = [shard for shard in shards if shard]
        if workers > 1 and len(shards) > 1:
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=len(shards)) as pool:
                shard_results = pool.map(_run_shard, shards)
        else:
            shard_results = [_run_shard(shard) for shard in shards]
        for results, wall_s, simulated in shard_results:
            metrics_by_hash.update(results)
            shard_wall.append(wall_s)
            simulated_total += simulated
        if cache is not None:
            for spec in pending:
                spec_hash = spec.spec_hash()
                cache.put(spec_hash, spec.to_dict(),
                          metrics_by_hash[spec_hash])

    results = []
    for spec, spec_hash in zip(specs, hashes):
        results.append({
            "name": spec.name,
            "spec_hash": spec_hash,
            "spec": spec.to_dict(),
            "metrics": metrics_by_hash[spec_hash],
        })
        if progress is not None:
            progress(spec, metrics_by_hash[spec_hash])

    wall_s = time.perf_counter() - start
    payload = {
        "kind": TRAJECTORY_KIND,
        "name": name,
        "git_rev": rev,
        "specs": len(specs),
        "results": results,
        # Volatile fields live under "meta": strip it before comparing
        # two runs for determinism.
        "meta": {
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                          time.gmtime()),
            "wall_s": wall_s,
            "workers": workers,
            "cache_hits": cache_hits,
            "executed": len(pending),
            "shard_wall_s": shard_wall,
            "sim_ns_executed": simulated_total,
            "sim_ns_per_wall_s": (simulated_total / sum(shard_wall)
                                  if shard_wall and sum(shard_wall) > 0
                                  else None),
        },
    }
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def deterministic_payload(payload):
    """The payload minus its volatile ``meta`` section — the part that
    must be byte-identical across identical runs."""
    return {key: value for key, value in payload.items() if key != "meta"}


# ----------------------------------------------------------------------
# sweep definitions
# ----------------------------------------------------------------------

def pipe_sweep(rounds=1500, seed=0, schedulers=("cfs", "wfq"),
               name_prefix="pipe"):
    """The Table 3 grid: schedulers x {one core, two cores}."""
    specs = []
    index = 0
    for sched in schedulers:
        for label, same_core in (("one-core", True), ("two-cores", False)):
            specs.append(ScenarioSpec(
                name=f"{name_prefix}-{sched}-{label}",
                sched=sched,
                seed=derive_seed(seed, index),
                workload="pipe",
                workload_options={"rounds": rounds, "same_core": same_core},
            ))
            index += 1
    return specs


def smoke_specs(seed=0):
    """The tiny sweep behind ``repro bench --smoke``: small enough for CI,
    wide enough to cross schedulers, topologies, and workloads."""
    specs = pipe_sweep(rounds=150, seed=seed, schedulers=("cfs", "wfq"),
                       name_prefix="smoke-pipe")
    specs.append(ScenarioSpec(
        name="smoke-pipe-eevdf", sched="eevdf",
        seed=derive_seed(seed, 100),
        workload="pipe", workload_options={"rounds": 100}))
    specs.append(ScenarioSpec(
        name="smoke-fair-wfq", sched="wfq", topology="smp:4",
        seed=derive_seed(seed, 101),
        workload="fairness",
        workload_options={"tasks": 4, "work_ns": 20_000_000}))
    specs.append(ScenarioSpec(
        name="smoke-faas-serverless", sched="serverless",
        seed=derive_seed(seed, 102), workload="faas",
        workload_options={"offered_rps": 8_000, "functions": 16,
                          "max_workers": 16, "hint_fraction": 0.25,
                          "warmup_ns": 20_000_000,
                          "duration_ns": 80_000_000}))
    return specs


def default_specs(seed=0):
    """The standard sweep behind plain ``repro bench``."""
    specs = pipe_sweep(rounds=1500, seed=seed,
                       schedulers=("cfs", "wfq", "fifo", "eevdf"))
    specs.append(ScenarioSpec(
        name="schbench-cfs", sched="cfs",
        seed=derive_seed(seed, 200), workload="schbench",
        workload_options={"message_threads": 2, "workers_per_thread": 2,
                          "warmup_ns": 50_000_000,
                          "duration_ns": 200_000_000}))
    specs.append(ScenarioSpec(
        name="schbench-wfq", sched="wfq",
        seed=derive_seed(seed, 201), workload="schbench",
        workload_options={"message_threads": 2, "workers_per_thread": 2,
                          "warmup_ns": 50_000_000,
                          "duration_ns": 200_000_000}))
    specs.append(ScenarioSpec(
        name="fairness-cfs", sched="cfs",
        seed=derive_seed(seed, 202), workload="fairness",
        workload_options={"work_ns": 100_000_000}))
    specs.append(ScenarioSpec(
        name="fairness-wfq", sched="wfq",
        seed=derive_seed(seed, 203), workload="fairness",
        workload_options={"work_ns": 100_000_000}))
    specs.append(ScenarioSpec(
        name="faas-serverless", sched="serverless",
        seed=derive_seed(seed, 204), workload="faas",
        workload_options={**FAAS_BASE_OPTIONS, "offered_rps": 18_000,
                          "warmup_ns": 100_000_000,
                          "duration_ns": 900_000_000}))
    specs.append(ScenarioSpec(
        name="faas-cfs", sched="cfs",
        seed=derive_seed(seed, 204), workload="faas",
        workload_options={**FAAS_BASE_OPTIONS, "offered_rps": 18_000,
                          "warmup_ns": 100_000_000,
                          "duration_ns": 900_000_000}))
    return specs


# ----------------------------------------------------------------------
# the FaaS table (``repro bench --faas``)
# ----------------------------------------------------------------------

#: knobs shared by every FaaS scenario so the schedulers face the same
#: trace; per-spec entries override only load and episode length
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

#: cold-start-style tail SLOs attached to the headline FaaS episodes;
#: ``repro report``-style window series + verdicts ride the bench payload
FAAS_SLOS = (
    {"name": "faas-wakeup-p99", "metric": "wakeup_p99_ns",
     "max": 2_000_000},
    {"name": "faas-rq-depth", "metric": "rq_depth_max", "max": 128},
)

#: schedulers in the FaaS comparison table
FAAS_SCHEDULERS = ("serverless", "cfs", "eevdf", "wfq", "shinjuku")


def faas_specs(seed=0, headline_invocations=1_000_000):
    """The sweep behind ``repro bench --faas``: serverless vs the field
    under sweeping load, plus a production-scale headline pair.

    Per load level every scheduler gets the *same* derived seed, so they
    face byte-identical invocation traces.  The headline serverless/cfs
    pair runs a >= ``headline_invocations`` episode with telemetry SLOs
    attached — the "millions of users" scenario at full scale.
    """
    specs = []
    for index, rps in enumerate((12_000, 15_000, 18_000)):
        for sched in FAAS_SCHEDULERS:
            specs.append(ScenarioSpec(
                name=f"faas-{sched}-{rps // 1000}k",
                sched=sched,
                seed=derive_seed(seed, 300 + index),
                workload="faas",
                workload_options={**FAAS_BASE_OPTIONS,
                                  "offered_rps": rps,
                                  "warmup_ns": 100_000_000,
                                  "duration_ns": 500_000_000}))
    # ~89% effective utilisation of the 8-CPU capacity implied by
    # FAAS_BASE_OPTIONS (E[S] ~430us, bursts add 10% on average):
    # contended enough that CFS's tail degrades by an order of
    # magnitude, stable enough that the container pool's FIFO backlog —
    # which no scheduler can reorder — does not grow without bound over
    # the minute-long episode.
    headline_rps = 15_000
    warmup_ns = 2_000_000_000
    duration_ns = int(headline_invocations / headline_rps * 1e9)
    for sched in ("serverless", "cfs"):
        specs.append(ScenarioSpec(
            name=f"faas-{sched}-headline",
            sched=sched,
            seed=derive_seed(seed, 310),
            workload="faas",
            workload_options={**FAAS_BASE_OPTIONS,
                              "offered_rps": headline_rps,
                              "warmup_ns": warmup_ns,
                              "duration_ns": duration_ns},
            telemetry_ns=50_000_000,
            slos=FAAS_SLOS))
    return specs


# ----------------------------------------------------------------------
# the multi-tenant table (``repro bench --multitenant``)
# ----------------------------------------------------------------------

#: the three-tenant contract shared by every multitenant scenario: a
#: high-weight tenant, an equal-weight noisy neighbour, and a tenant
#: capped at 20% of the machine by CPU bandwidth control
MULTITENANT_GROUPS = (
    {"name": "tenant-a", "weight": 2048},
    {"name": "tenant-b", "weight": 1024},
    {"name": "tenant-c", "weight": 1024,
     "quota_ns": 2_000_000, "period_ns": 10_000_000},
)

#: per-tenant task counts (group parameters come from the spec's groups)
MULTITENANT_TASKS = (
    {"name": "tenant-a", "tasks": 4},
    {"name": "tenant-b", "tasks": 4},
    {"name": "tenant-c", "tasks": 2},
)

#: schedulers in the multitenant comparison table
MULTITENANT_SCHEDULERS = ("cfs", "wfq", "eevdf")


def multitenant_specs(seed=0, duration_ns=200_000_000):
    """The sweep behind ``repro bench --multitenant``: the same
    three-tenant noisy-neighbour contract across schedulers, plus one
    mixed-policy scenario where each group picks its own scheduler
    (tenant-b runs under native CFS while the rest stay on the Enoki
    scheduler under test)."""
    options = {"tenants": MULTITENANT_TASKS, "duration_ns": duration_ns}
    specs = []
    for index, sched in enumerate(MULTITENANT_SCHEDULERS):
        specs.append(ScenarioSpec(
            name=f"multitenant-{sched}", sched=sched, topology="smp:4",
            seed=derive_seed(seed, 400 + index),
            groups=MULTITENANT_GROUPS,
            workload="multitenant", workload_options=options))
    # Mixed-policy scenario: tenant-b runs under the native CFS class
    # (policy 0) while a/c stay on the Enoki scheduler under test.  The
    # Enoki class outranks the native class, so without bandwidth
    # control the native tenant would starve outright (exactly the
    # RT-vs-CFS story); capping the Enoki tenants hands tenant-b the
    # residual — per-group policy choice made safe by per-group quotas.
    mixed_groups = tuple(
        dict(g, policy=0) if g["name"] == "tenant-b"
        else dict(g, quota_ns=4_000_000, period_ns=10_000_000)
        if g["name"] == "tenant-a" else dict(g)
        for g in MULTITENANT_GROUPS)
    specs.append(ScenarioSpec(
        name="multitenant-mixed-policy", sched="wfq", topology="smp:4",
        seed=derive_seed(seed, 410),
        groups=mixed_groups,
        workload="multitenant", workload_options=options))
    return specs


# ----------------------------------------------------------------------
# simulator self-benchmark
# ----------------------------------------------------------------------

#: name of the simperf sweep definition, recorded in the trajectory's
#: ``meta`` so entries from different sweep generations are attributable
SIMPERF_SWEEP = "hotpath-v2"

#: workloads in the ``--simperf`` sweep, in run order.  ``pipe`` is the
#: historical headline number (wakeup/dispatch hot loop); ``wfq-bench``
#: stresses run-queue churn, ``shinjuku-tail`` the preemption-heavy
#: single-dispatcher path, and ``fuzz-episode`` the verify stack
#: (sanitizers + oracles attached) so the observability fast path's cost
#: under observation is tracked too; ``faas`` measures the open-loop
#: invocation hot loop (spawn-on-demand pool + hint ring + two-tier
#: serverless picks).
SIMPERF_WORKLOADS = ("pipe", "wfq-bench", "shinjuku-tail", "fuzz-episode",
                     "faas")


def _simperf_spec(workload, rounds):
    """The ScenarioSpec behind one spec-driven simperf workload."""
    if workload == "pipe":
        return ScenarioSpec(
            name="simperf-pipe", sched="wfq", seed=derive_seed(0, 0),
            workload="pipe", workload_options={"rounds": rounds})
    if workload == "wfq-bench":
        return ScenarioSpec(
            name="simperf-wfq-bench", sched="wfq", topology="smp:4",
            seed=derive_seed(0, 1), workload="hackbench",
            workload_options={"groups": 2, "fds": 4,
                              "loops": max(5, rounds // 50)})
    if workload == "shinjuku-tail":
        return ScenarioSpec(
            name="simperf-shinjuku-tail", sched="shinjuku",
            topology="smp:4", seed=derive_seed(0, 2), workload="schbench",
            workload_options={"message_threads": 2,
                              "workers_per_thread": 4,
                              "warmup_ns": 20_000_000,
                              "duration_ns": max(50_000_000,
                                                 rounds * 100_000)})
    if workload == "faas":
        return ScenarioSpec(
            name="simperf-faas", sched="serverless",
            seed=derive_seed(0, 3), workload="faas",
            workload_options={**FAAS_BASE_OPTIONS,
                              "offered_rps": 20_000,
                              "warmup_ns": 20_000_000,
                              "duration_ns": max(100_000_000,
                                                 rounds * 50_000)})
    raise SimError(f"unknown simperf workload {workload!r}")


def _run_fuzz_episodes(rounds):
    """Run a fixed batch of fuzz episodes; returns (simulated_ns, extra).

    Episode sessions come from the fuzzer's warm-image cache
    (:mod:`repro.simkernel.snapshot`): the first episode of a given
    machine shape captures a pre-spawn image and every later episode —
    including across the best-of ``repeats`` loop — forks a
    byte-identical clone instead of rebuilding the session.
    """
    from repro.verify.fuzz import generate_episode, run_episode
    episodes = max(1, min(4, rounds // 500))
    simulated = 0
    for seed in range(episodes):
        result = run_episode(generate_episode(seed, sched="wfq"))
        simulated += result.sim_ns
    return simulated, {"episodes": episodes}


def _measure_simperf(workload, rounds):
    """One timed execution; returns (rate, wall_s, simulated_ns, extra)."""
    start = time.perf_counter()
    if workload == "fuzz-episode":
        simulated, extra = _run_fuzz_episodes(rounds)
    else:
        metrics = run_spec(_simperf_spec(workload, rounds))
        simulated = metrics["simulated_ns"]
        extra = {}
        if "latency_us_per_message" in metrics:
            extra["latency_us_per_message"] = \
                metrics["latency_us_per_message"]
    wall = time.perf_counter() - start
    rate = simulated / wall if wall > 0 else 0.0
    return rate, wall, simulated, extra


def load_simperf(path):
    """Read an existing simperf trajectory, or a fresh empty one."""
    trajectory = {"kind": SIMPERF_KIND, "entries": [],
                  "meta": {"sweep": SIMPERF_SWEEP}}
    try:
        with open(path) as handle:
            existing = json.load(handle)
        if existing.get("kind") == SIMPERF_KIND:
            trajectory = existing
            trajectory.setdefault("meta", {})["sweep"] = SIMPERF_SWEEP
    except (OSError, ValueError):
        pass
    return trajectory


def _simperf_key(entry):
    """The identity an entry replaces on re-append: same revision, same
    workload, *and* same measurement shape.  Including rounds/repeats
    keeps a quick ``--rounds 200`` smoke run from silently overwriting
    the committed full-depth baseline at the same revision."""
    return (entry.get("git_rev"), entry.get("workload"),
            entry.get("rounds"), entry.get("repeats"))


def append_simperf(trajectory, entry):
    """Append ``entry``, replacing any earlier entry with the same
    :func:`_simperf_key` so repeated local runs don't accumulate
    duplicates (the trajectory tracks revisions, not invocations)."""
    key = _simperf_key(entry)
    trajectory["entries"] = [
        e for e in trajectory["entries"] if _simperf_key(e) != key
    ]
    trajectory["entries"].append(entry)
    return trajectory


def run_simperf(path="BENCH_simperf.json", rounds=2000, repeats=3,
                rev=None, workloads=SIMPERF_WORKLOADS):
    """Measure the simulator itself — simulated ns per wall second — over
    the simperf sweep, appending one entry per workload to ``path``.

    These are the numbers future optimisation PRs must move: each
    workload exercises a different hot-path mix (see
    :data:`SIMPERF_WORKLOADS`).  Each entry is best-of-``repeats`` to
    shed scheduler/allocator noise; appends dedupe by
    ``(git_rev, workload)``.  Returns the list of appended entries.
    """
    rev = rev if rev is not None else git_rev()
    entries = []
    for workload in workloads:
        best = None
        for _ in range(repeats):
            rate, wall, simulated, extra = _measure_simperf(workload,
                                                            rounds)
            if best is None or rate > best["sim_ns_per_wall_s"]:
                best = {"sim_ns_per_wall_s": rate, "wall_s": wall,
                        "simulated_ns": simulated, **extra}
        entries.append({
            "git_rev": rev,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime()),
            "workload": workload,
            "rounds": rounds,
            "repeats": repeats,
            **best,
        })
    trajectory = load_simperf(path)
    for entry in entries:
        append_simperf(trajectory, entry)
    with open(path, "w") as handle:
        json.dump(trajectory, handle, indent=2)
        handle.write("\n")
    return entries


def compare_simperf(trajectory, threshold=0.20, workloads=None,
                    strict=False):
    """Diff each workload's newest entry against its previous one.

    The previous entry is the committed baseline in CI (appends dedupe by
    revision, so a fresh run at a new rev sits after the baseline rev's
    entry).  Returns ``(ok, lines)`` where ``ok`` is False when any
    workload regressed by more than ``threshold`` (a fraction, 0.20 =
    20%); ``lines`` is a human-readable report.

    With ``strict`` (the ``--compare --all-workloads`` CI mode) a
    workload with no comparable pair is an *error*, not a skip: a sweep
    that silently dropped a workload would otherwise read as "no
    regressions" while measuring nothing.
    """
    if isinstance(trajectory, str):
        trajectory = load_simperf(trajectory)
    by_workload = {}
    for entry in trajectory.get("entries", []):
        by_workload.setdefault(entry.get("workload"), []).append(entry)
    if workloads is None:
        workloads = sorted(by_workload)
    ok = True
    lines = []
    for workload in workloads:
        entries = by_workload.get(workload, [])
        if len(entries) < 2:
            if strict:
                ok = False
                lines.append(
                    f"{workload}: ERROR missing entries "
                    f"({len(entries)} present, 2 needed for a "
                    "baseline comparison)")
            else:
                lines.append(f"{workload}: no baseline to compare "
                             f"({len(entries)} entry)")
            continue
        baseline, newest = entries[-2], entries[-1]
        base_rate = baseline["sim_ns_per_wall_s"]
        new_rate = newest["sim_ns_per_wall_s"]
        change = (new_rate - base_rate) / base_rate if base_rate else 0.0
        verdict = "ok"
        if change < -threshold:
            verdict = f"REGRESSION (> {threshold:.0%})"
            ok = False
        lines.append(
            f"{workload}: {base_rate:,.0f} -> {new_rate:,.0f} "
            f"sim-ns/wall-s ({change:+.1%}) "
            f"[{baseline.get('git_rev', '?')[:12]} -> "
            f"{newest.get('git_rev', '?')[:12]}] {verdict}")
    return ok, lines


# ----------------------------------------------------------------------
# telemetry-overhead gate
# ----------------------------------------------------------------------

#: SLOs used by the overhead gate's telemetry-enabled run: present so the
#: SLOMonitor evaluation cost is part of what the gate measures.
OVERHEAD_SLOS = (
    {"name": "p99-wakeup", "metric": "wakeup_p99_ns", "max": 5_000_000},
    {"name": "depth", "metric": "rq_depth_max", "max": 64},
)


def run_overhead_check(threshold=0.05, rounds=2000, repeats=3, rev=None,
                       telemetry_ns=1_000_000):
    """The telemetry-overhead gate behind ``repro bench --overhead``.

    Runs the pipe simperf workload twice per repeat — once bare (the
    shim's quiet crossing) and once with inline accounting, a 1 ms sampler,
    and SLO monitors attached — alternating so thermal/allocator drift
    hits both sides equally, then feeds the two best-of rates through the
    same :func:`compare_simperf` machinery the perf gate uses.  Fails
    (returns ``ok=False``) when the telemetry-enabled run is more than
    ``threshold`` slower in sim-ns/wall-s.
    """
    from dataclasses import replace
    rev = rev if rev is not None else git_rev()
    base_spec = _simperf_spec("pipe", rounds)
    telem_spec = replace(base_spec, name="simperf-pipe-telemetry",
                         telemetry_ns=telemetry_ns, slos=OVERHEAD_SLOS)
    best = {"hot": None, "telemetry": None}
    sides = (("hot", base_spec), ("telemetry", telem_spec))
    for _ in range(repeats):
        for key, spec in sides:
            start = time.perf_counter()
            metrics = run_spec(spec)
            wall = time.perf_counter() - start
            rate = metrics["simulated_ns"] / wall if wall > 0 else 0.0
            if best[key] is None or rate > best[key]["sim_ns_per_wall_s"]:
                best[key] = {"sim_ns_per_wall_s": rate, "wall_s": wall,
                             "simulated_ns": metrics["simulated_ns"]}
    # A two-entry trajectory makes compare_simperf treat the hot run as
    # the baseline and the telemetry run as the newest entry.
    trajectory = {"kind": SIMPERF_KIND, "meta": {"sweep": SIMPERF_SWEEP},
                  "entries": [
                      {"workload": "pipe+telemetry",
                       "git_rev": "hot-baseline", **best["hot"]},
                      {"workload": "pipe+telemetry", "git_rev": rev,
                       **best["telemetry"]},
                  ]}
    return compare_simperf(trajectory, threshold)


def run_group_overhead_check(threshold=0.05, rounds=2000, repeats=3,
                             rev=None):
    """The hierarchy-overhead gate behind ``repro bench --group-overhead``.

    Runs the pipe simperf workload three ways per repeat — flat (no task
    groups at all), with a group forest *defined* but every task still in
    the implicit root group, and with both tasks inside a weight-only
    group — alternating so drift hits all sides equally.  The gate fails
    when the defined-but-unused run is more than ``threshold`` slower
    than the flat run: flat workloads must not pay for the feature (lazy
    period timers, single ``task.group`` test per hook).  The grouped
    run's cost is reported informationally; it bounds what tenants pay
    when they opt in.
    """
    from dataclasses import replace
    rev = rev if rev is not None else git_rev()
    flat_spec = _simperf_spec("pipe", rounds)
    unused_spec = replace(
        flat_spec, name="simperf-pipe-groups-unused",
        groups=({"name": "tenant", "quota_ns": 2_000_000},))
    grouped_spec = replace(
        flat_spec, name="simperf-pipe-grouped",
        groups=({"name": "tenant"},),
        workload_options=dict(flat_spec.workload_options,
                              group="tenant"))
    best = {"flat": None, "unused": None, "grouped": None}
    sides = (("flat", flat_spec), ("unused", unused_spec),
             ("grouped", grouped_spec))
    for _ in range(repeats):
        for key, spec in sides:
            start = time.perf_counter()
            metrics = run_spec(spec)
            wall = time.perf_counter() - start
            rate = metrics["simulated_ns"] / wall if wall > 0 else 0.0
            if best[key] is None or rate > best[key]["sim_ns_per_wall_s"]:
                best[key] = {"sim_ns_per_wall_s": rate, "wall_s": wall,
                             "simulated_ns": metrics["simulated_ns"]}
    trajectory = {"kind": SIMPERF_KIND, "meta": {"sweep": SIMPERF_SWEEP},
                  "entries": [
                      {"workload": "pipe+groups",
                       "git_rev": "flat-baseline", **best["flat"]},
                      {"workload": "pipe+groups", "git_rev": rev,
                       **best["unused"]},
                  ]}
    ok, lines = compare_simperf(trajectory, threshold)
    flat_rate = best["flat"]["sim_ns_per_wall_s"]
    grouped_rate = best["grouped"]["sim_ns_per_wall_s"]
    change = ((grouped_rate - flat_rate) / flat_rate if flat_rate else 0.0)
    lines.append(f"pipe+grouped (informational): {flat_rate:,.0f} -> "
                 f"{grouped_rate:,.0f} sim-ns/wall-s ({change:+.1%})")
    return ok, lines
