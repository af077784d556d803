"""``repro bench``: a parallel, sharded, cached benchmark runner.

The runner turns a list of :class:`~repro.exp.spec.ScenarioSpec` into a
``BENCH_<name>.json`` trajectory:

* **Sharding** — specs are dealt round-robin into one shard per worker
  and executed on a ``multiprocessing`` pool.  Every spec carries its own
  deterministically derived seed (:func:`derive_seed`), so results are
  bit-identical regardless of worker count or shard assignment; the
  payload is reassembled in spec order before writing.
* **Caching** — results are keyed by ``spec_hash + git rev`` (the rev
  carries a digest of uncommitted edits under ``src/``) under
  ``.bench-cache/``; re-running a sweep on an unchanged tree replays from
  cache and must produce a byte-identical deterministic payload (CI's
  ``bench-smoke`` job enforces exactly that).

Wall-clock and timestamp fields are volatile by nature and are kept in
the payload's ``meta`` section; everything outside ``meta`` and
``git_rev`` is deterministic.

The paper's own tables and figures are a catalogue of such sweeps in
:mod:`repro.exp.paper`; what one of them needs beyond a kernel workload
is an adapter in :data:`WORKLOADS` here.
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

DEFAULT_CACHE_DIR = ".bench-cache"

#: the tree whose state keys the cache: the directory holding ``repro/``
_SRC_DIR = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def derive_seed(master_seed, index):
    """Deterministic per-spec seed: stable across runs, shard layouts,
    and worker counts."""
    digest = hashlib.sha256(f"{master_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _git(*args):
    """Stdout of one git command run in ``src/``, or None when git or
    the checkout is missing."""
    try:
        out = subprocess.run(["git", *args], capture_output=True,
                             timeout=10, cwd=_SRC_DIR)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def git_rev():
    """The tree's commit hash — followed by ``+`` and a digest of the
    uncommitted state of ``src/`` when there is any, so results cached
    for the clean tree are never served after an edit — or "unknown"
    outside a git checkout."""
    head = _git("rev-parse", "HEAD")
    if head is None:
        return "unknown"
    rev = head.decode().strip()
    edits = _git("diff", "HEAD", "--", ".") or b""
    untracked = _git("ls-files", "--others", "--exclude-standard",
                     "-z", "--", ".") or b""
    if not edits and not untracked:
        return rev
    digest = hashlib.sha256(edits + untracked)
    for name in filter(None, untracked.split(b"\0")):
        with open(os.path.join(os.fsencode(_SRC_DIR), name), "rb") as handle:
            digest.update(handle.read())
    return f"{rev}+{digest.hexdigest()[:16]}"


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
    if "affinity" in opts:
        opts["affinity"] = frozenset(opts["affinity"])
    for at_ns in opts.pop("upgrades_at_ns", ()):
        session.schedule_upgrade(at_ns)
    result = run_schbench(session.kernel, session.policy, **opts)
    return {
        "p50_us": result.p50_us,
        "p99_us": result.p99_us,
        "samples": len(result.samples_us),
    }


def _wl_fairness(session, opts):
    from repro.workloads import fairness
    run = {"share": fairness.run_fair_share,
           "weighted": fairness.run_weighted_share,
           "placement": fairness.run_placement}[opts.pop("mode", "share")]
    result = run(session.kernel, session.policy, **opts)
    finish = result.finish_times_ns
    return {
        "max_finish_ns": max(finish.values()),
        "min_finish_ns": min(finish.values()),
        "tasks": len(finish),
        "finish_ns": dict(sorted(finish.items())),
        "runtime_stddev_ns": round(result.runtime_stddev_ns(), 3),
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


def _wl_rocksdb(session, opts):
    from repro.workloads.rocksdb import run_rocksdb
    batch = None
    if opts.pop("batch", False):
        from repro.workloads.batch import start_batch_app
        # ghOSt runs the batch under ghost at low priority; the others
        # run it under CFS at nice 19 (section 5.4).
        ghost = session.spec.sched.startswith("ghost_")
        batch = start_batch_app(session.kernel,
                                session.policy if ghost else 0,
                                cpus=opts["worker_cpus"], nice=19)
        opts.update(nice=-20, on_drain=batch.stop)
    result = run_rocksdb(session.kernel, session.policy, **opts)
    return {
        "p50_us": _latency_us(result.p50_us),
        "p99_us": _latency_us(result.p99_us),
        "offered": result.offered,
        "completed": result.completed,
        "batch_cpus": (round(batch.cpu_share(), 4)
                       if batch is not None else None),
    }


def _wl_memcached(session, opts):
    from repro.workloads import memcached
    backend = opts.pop("backend")
    kernel = session.kernel
    if backend == "threads":
        result = memcached.run_memcached_threads(kernel, session.policy,
                                                 **opts)
    else:
        from repro.arachne_rt.clients import start_arbitrated
        from repro.simkernel.clock import msecs
        runtime = start_arbitrated(kernel, opts.pop("cores"), backend,
                                   min_cores=2, name="mc")
        kernel.run_for(msecs(2))
        result = memcached.run_memcached_arachne(kernel, runtime, **opts)
    return {
        "p50_us": _latency_us(result.p50_us),
        "p99_us": _latency_us(result.p99_us),
        "offered": result.offered,
        "completed": result.completed,
    }


def _wl_app(session, opts):
    from repro.workloads.apps import ALL_PROFILES, run_app
    profiles = {profile.name: profile for profile in ALL_PROFILES}
    if opts["profile"] not in profiles:
        raise SimError(f"unknown application profile {opts['profile']!r}")
    result = run_app(session.kernel, session.policy,
                     profiles[opts["profile"]])
    return {"score": result.score, "elapsed_ns": result.elapsed_ns}


def _wl_arachne_pipe(session, opts):
    from repro.workloads.arachne_bench import run_arachne_pipe
    return {"latency_us_per_message":
            run_arachne_pipe(session.kernel, **opts)}


def _wl_arachne_rounds(session, opts):
    from repro.workloads.arachne_bench import run_arachne_rounds
    samples = run_arachne_rounds(session.kernel, **opts)
    return {
        "p50_us": samples[len(samples) // 2],
        "p99_us": samples[min(len(samples) - 1, int(len(samples) * 0.99))],
        "samples": len(samples),
    }


def _wl_bursty(session, opts):
    from dataclasses import asdict

    from repro.workloads.bursty import run_bursty_periodic
    return asdict(run_bursty_periodic(session.kernel, session.policy))


def _wl_upgrade_now(session, opts):
    """Live-upgrade an idle machine: the bare quiesce + transfer pause
    (reported by ``run_spec`` with every other upgrade's)."""
    from repro.core import UpgradeManager
    session.upgrades = UpgradeManager(session.kernel, session.shim)
    session.upgrades.upgrade_now(session.scheduler_factory())
    return {}


def _wl_record_replay(session, opts):
    """Sched-pipe under the recorder (``record=True`` on the spec), then
    both replay modes of its log.  The replays' host wall times stay out:
    perfbench's ``record.replay_ns_per_entry`` is the maintained measure."""
    from repro.core import ReplayEngine
    metrics = _wl_pipe(session, opts)
    recorder = session.shim.recorder
    recorder.stop()
    metrics["entries"] = len(recorder.entries)
    for mode in ("sequential", "threaded"):
        engine = ReplayEngine(session.scheduler_factory, recorder.entries)
        result = getattr(engine, f"run_{mode}")()
        metrics[mode] = {"calls_replayed": result.calls_replayed,
                         "divergences": len(result.divergences)}
    return metrics


WORKLOADS = {
    "pipe": _wl_pipe,
    "schbench": _wl_schbench,
    "fairness": _wl_fairness,
    "hackbench": _wl_hackbench,
    "faas": _wl_faas,
    "multitenant": _wl_multitenant,
    "rocksdb": _wl_rocksdb,
    "memcached": _wl_memcached,
    "app": _wl_app,
    "arachne-pipe": _wl_arachne_pipe,
    "arachne-rounds": _wl_arachne_rounds,
    "bursty": _wl_bursty,
    "upgrade-now": _wl_upgrade_now,
    "record-replay": _wl_record_replay,
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
    recorder = None
    if spec.record:
        from repro.core import Recorder
        recorder = Recorder()
    session = KernelBuilder.session_from_spec(spec, recorder=recorder)
    metrics = runner(session, dict(spec.workload_options))
    session.stop()
    metrics["simulated_ns"] = session.kernel.now
    metrics["total_wakeups"] = session.kernel.stats.total_wakeups
    metrics["total_migrations"] = session.kernel.stats.total_migrations
    if session.upgrades is not None:
        metrics["upgrade_pauses_us"] = [
            report.pause_us for report in session.upgrades.reports]
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
        # Short commit hash plus whatever follows the 40 hex digits: the
        # dirty-tree digest, so an edit does not overwrite the clean entry.
        return os.path.join(
            self.root,
            f"{self.rev[:12]}{self.rev[40:]}-{spec_hash[:24]}.json")

    def get(self, spec_hash):
        path = self._path(spec_hash)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        # A foreign or hand-damaged file can parse to any JSON value;
        # anything but a matching entry with a metrics object is a miss.
        if (not isinstance(entry, dict)
                or entry.get("spec_hash") != spec_hash
                or entry.get("rev") != self.rev
                or not isinstance(entry.get("metrics"), dict)):
            return None
        return entry["metrics"]

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
    """Run a sweep of specs, sharded over ``workers`` processes (fewer
    than one means one: in-process, a single shard).

    Writes ``BENCH_<name>.json`` into ``out_dir`` and returns the payload.
    Everything outside the payload's ``meta`` key is deterministic for a
    given (specs, git rev) pair — byte-identical across repeat runs, with
    or without cache hits, at any worker count.
    """
    start = time.perf_counter()
    workers = max(1, workers)
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
                  for i in range(workers)]
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
    """The payload minus its volatile ``meta`` section and ``git_rev`` —
    the part that must be byte-identical across identical runs, and the
    form ``BENCH_paper.json`` and ``BENCH_faas.json`` are committed in
    (a commit cannot contain its own hash)."""
    return {key: value for key, value in payload.items()
            if key not in ("meta", "git_rev")}


# ----------------------------------------------------------------------
# sweep definitions
# ----------------------------------------------------------------------

def smoke_specs(seed=0):
    """The tiny sweep behind ``repro bench --smoke``: small enough for CI,
    wide enough to cross schedulers, topologies, and workloads."""
    specs = []
    for sched in ("cfs", "wfq"):
        for label, same_core in (("one-core", True), ("two-cores", False)):
            specs.append(ScenarioSpec(
                name=f"smoke-pipe-{sched}-{label}", sched=sched,
                seed=derive_seed(seed, len(specs)), workload="pipe",
                workload_options={"rounds": 150, "same_core": same_core}))
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
