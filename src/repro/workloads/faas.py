"""Trace-driven serverless/FaaS workload (the ROADMAP's "millions of
users, heavy traffic" scenario made concrete).

The sampler synthesises an Azure-Functions-style invocation trace from a
single seed:

* **popularity** — functions are ranked by a Zipf law (``weight =
  rank**-zipf_s``), so a handful of hot functions dominate the stream
  while a long tail of cold ones still shows up;
* **durations** — each function draws service times from its own
  lognormal; functions split bimodally into *short* handlers (hundreds
  of microseconds) and *long* jobs (tens of milliseconds) assigned to
  the least-popular ranks, so long invocations are rare but heavy —
  exactly the mix that ruins tail latency under a fairness scheduler;
* **interarrivals** — an open-loop Poisson process, optionally modulated
  by deterministic burst windows (``burst_every_ns``/``burst_len_ns``
  multiply the rate by ``burst_factor``), standing in for the diurnal
  and flash-crowd phases of the real traces.

:class:`FaasSampler` is pure (no kernel): property tests sample traces
directly.  :func:`run_faas` drives the same sampler open-loop through a
live kernel using a warm/cold container pool — invocations land on warm
workers when one is free, otherwise a new worker is spawned (a *cold
start*, charged ``cold_start_us`` extra service) up to ``max_workers``,
after which invocations queue.  Workers can declare the invocation's
expected duration through the Enoki hint ring (``hint_fraction``), which
is the fast path the serverless scheduler consumes.
"""

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field

from repro.analysis.stats import percentile
from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Call, Run, SemDown, SendHint
from repro.simkernel.semaphore import Semaphore
from repro.workloads.rocksdb import host_sem_up


@dataclass(frozen=True)
class FunctionProfile:
    """One deployed function: popularity rank + duration distribution."""

    func_id: int
    weight: float       # unnormalised Zipf popularity
    median_ns: int      # lognormal median service time
    sigma: float        # lognormal shape
    is_long: bool


@dataclass
class Invocation:
    arrival_ns: int
    func_id: int
    service_ns: int
    is_long: bool
    cold: bool = False
    hinted: bool = False
    completed_ns: int = -1


class FaasSampler:
    """Seeded Azure-trace-style invocation sampler (pure, no kernel).

    The same seed always produces the same trace; the executor and the
    property tests share one sampling order (gap, then function, then
    service draw per invocation).
    """

    def __init__(self, seed, offered_rps=20_000.0, functions=64,
                 zipf_s=1.1, long_function_fraction=0.125,
                 short_service_us=150.0, short_sigma=0.6,
                 long_service_ms=10.0, long_sigma=0.3,
                 burst_factor=1.0, burst_every_ns=0, burst_len_ns=0):
        if functions < 1:
            raise ValueError("need at least one function")
        if offered_rps <= 0:
            raise ValueError("offered_rps must be positive")
        self.seed = seed
        self.offered_rps = float(offered_rps)
        self.burst_factor = float(burst_factor)
        self.burst_every_ns = int(burst_every_ns)
        self.burst_len_ns = int(burst_len_ns)
        self.rng = random.Random(seed)
        profile_rng = random.Random(f"{seed}:faas-profiles")
        n_long = (max(1, round(functions * long_function_fraction))
                  if long_function_fraction > 0 else 0)
        self.profiles = []
        for rank in range(1, functions + 1):
            is_long = rank > functions - n_long
            base_ns = (msecs(1) * long_service_ms if is_long
                       else usecs(1) * short_service_us)
            # Per-function spread around the class base, so functions
            # are individually distinguishable in the trace.
            median_ns = max(1_000,
                            int(base_ns
                                * profile_rng.lognormvariate(0.0, 0.25)))
            self.profiles.append(FunctionProfile(
                func_id=rank - 1,
                weight=rank ** -zipf_s,
                median_ns=median_ns,
                sigma=long_sigma if is_long else short_sigma,
                is_long=is_long,
            ))
        self._cum_weights = []
        total = 0.0
        for profile in self.profiles:
            total += profile.weight
            self._cum_weights.append(total)
        self.total_weight = total
        self._last_index = len(self.profiles) - 1

    def rate_at(self, now_ns):
        """Offered load (requests/s) at virtual instant ``now_ns``."""
        rate = self.offered_rps
        if (self.burst_every_ns > 0 and self.burst_len_ns > 0
                and now_ns % self.burst_every_ns < self.burst_len_ns):
            rate *= self.burst_factor
        return rate

    def sample(self, now_ns):
        """One invocation: returns ``(gap_ns, profile, service_ns)``,
        drawn in that order (bounds are comparisons, not ``min``)."""
        rng = self.rng
        interarrival_ns = 1e9 / self.rate_at(now_ns)
        gap = int(rng.expovariate(1.0 / interarrival_ns))
        if gap < 1:
            gap = 1
        index = bisect_right(self._cum_weights,
                             rng.random() * self.total_weight)
        if index > self._last_index:
            index = self._last_index
        profile = self.profiles[index]
        service_ns = int(profile.median_ns
                         * rng.lognormvariate(0.0, profile.sigma))
        if service_ns < 1_000:
            service_ns = 1_000
        return gap, profile, service_ns

    def generate(self, count, start_ns=0):
        """A pure trace of ``count`` invocations:
        ``[(arrival_ns, func_id, service_ns, is_long), ...]``."""
        trace, now = [], start_ns
        for _ in range(count):
            gap, profile, service_ns = self.sample(now)
            now += gap
            trace.append((now, profile.func_id, service_ns,
                          profile.is_long))
        return trace


@dataclass
class FaasResult:
    """Invocation latency/throughput summary for one FaaS episode."""

    offered_rps: float
    scheduler: str = ""
    offered: int = 0            # invocations arriving in the window
    completed: int = 0          # of those, how many finished
    total_invocations: int = 0  # full episode, warmup included
    cold_starts: int = 0
    warm_pool: int = 0          # workers alive at the end
    measured_ns: int = 0
    short_latencies_ns: list = field(default_factory=list)
    long_latencies_ns: list = field(default_factory=list)

    def _pct_us(self, samples, pct):
        if not samples:
            return float("nan")
        return percentile(samples, pct) / 1e3

    @property
    def p50_us(self):
        return self._pct_us(self.short_latencies_ns, 50)

    @property
    def p99_us(self):
        return self._pct_us(self.short_latencies_ns, 99)

    @property
    def p999_us(self):
        return self._pct_us(self.short_latencies_ns, 99.9)

    @property
    def long_p99_us(self):
        return self._pct_us(self.long_latencies_ns, 99)

    @property
    def throughput_rps(self):
        if self.measured_ns <= 0:
            return 0.0
        return self.completed / (self.measured_ns / 1e9)


#: the trace every scheduler of ``repro faas`` and the ``faas`` bench
#: artefact faces; a scenario adds only its load and episode length
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

#: cold-start-style tail SLOs of the same two surfaces (telemetry
#: windows and verdicts ride the bench payload)
FAAS_SLOS = (
    {"name": "faas-wakeup-p99", "metric": "wakeup_p99_ns",
     "max": 2_000_000},
    {"name": "faas-rq-depth", "metric": "rq_depth_max", "max": 128},
)


def run_faas(kernel, policy, offered_rps=20_000, duration_ns=msecs(400),
             warmup_ns=msecs(50), max_workers=64, prewarm=0,
             worker_cpus=None, cold_start_us=250.0, hint_fraction=0.0,
             seed=None, scheduler_name="", nice=0, **sampler_options):
    """Drive the FaaS trace open-loop and collect invocation latencies.

    The kernel must already have the scheduler under test registered as
    ``policy``.  Latency is measured arrival-to-completion (queueing +
    cold start + service), the number a function caller experiences.
    Extra keyword arguments parameterise the :class:`FaasSampler`.
    """
    seed = seed if seed is not None else kernel.config.seed
    sampler = FaasSampler(seed, offered_rps=offered_rps, **sampler_options)
    ctl_rng = random.Random(f"{seed}:faas-ctl")
    cold_start_ns = int(usecs(1) * cold_start_us)
    affinity = frozenset(worker_cpus) if worker_cpus is not None else None
    cpu_list = (sorted(affinity) if affinity is not None
                else list(range(kernel.topology.nr_cpus)))

    queue = deque()
    sem = Semaphore(0, name="faas-q")
    end_at = kernel.now + warmup_ns + duration_ns
    measure_from = kernel.now + warmup_ns
    result = FaasResult(offered_rps=offered_rps, scheduler=scheduler_name,
                        measured_ns=duration_ns)
    pool = {"warm": 0, "outstanding": 0, "drained": False}

    clock = kernel.clock

    def record(inv):
        now = inv.completed_ns = clock.now
        pool["outstanding"] -= 1
        if inv.arrival_ns < measure_from:
            return
        result.completed += 1
        latency = now - inv.arrival_ns
        if inv.is_long:
            result.long_latencies_ns.append(latency)
        else:
            result.short_latencies_ns.append(latency)

    def make_worker(first):
        def worker():
            pending = first
            while True:
                if pending is None:
                    yield SemDown(sem)
                    pending = queue.popleft()
                    if pending is None:        # drain poison pill
                        return
                inv, pending = pending, None
                if inv.hinted and policy != 0:
                    yield SendHint({"expected_ns": inv.service_ns},
                                   policy=policy)
                yield Run(inv.service_ns
                          + (cold_start_ns if inv.cold else 0))
                yield Call(record, (inv,))
        return worker

    def spawn_worker(first=None):
        index = pool["warm"]
        pool["warm"] += 1
        result.warm_pool = pool["warm"]
        kernel.spawn(make_worker(first), name=f"faas-w{index}",
                     policy=policy, allowed_cpus=affinity, nice=nice,
                     origin_cpu=cpu_list[index % len(cpu_list)])

    for _ in range(prewarm):
        # Pre-warmed containers park on the queue semaphore immediately.
        spawn_worker(None)

    def arrival():
        now = clock.now
        if now >= end_at:
            pool["drained"] = True
            for _ in range(pool["warm"]):
                queue.append(None)
                host_sem_up(kernel, sem)
            return
        gap, profile, service_ns = sampler.sample(now)
        inv = Invocation(arrival_ns=now, func_id=profile.func_id,
                         service_ns=service_ns, is_long=profile.is_long,
                         hinted=ctl_rng.random() < hint_fraction)
        result.total_invocations += 1
        if inv.arrival_ns >= measure_from:
            result.offered += 1
        pool["outstanding"] += 1
        if (pool["outstanding"] > pool["warm"]
                and pool["warm"] < max_workers):
            # No warm container free: scale up.  The fresh worker takes
            # this invocation directly and pays the cold-start penalty.
            inv.cold = True
            if inv.arrival_ns >= measure_from:
                result.cold_starts += 1
            spawn_worker(inv)
        else:
            queue.append(inv)
            host_sem_up(kernel, sem)
        kernel.events.after(gap, arrival)

    kernel.events.after(1, arrival)
    kernel.run_until_idle()
    return result
