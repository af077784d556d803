"""The Table 5 application suite: 36 NAS/Phoronix-like profiles.

The paper compares CFS and the Enoki WFQ scheduler across 9 NAS Parallel
Benchmarks and 27 Phoronix Multicore workloads, finding a geometric-mean
difference of 0.74 % with a worst case of 8.57 % (Cassandra writes and
Zstd level-3 long-mode were the balancing-sensitive outliers).

We cannot run the real applications on a simulated kernel, so each entry
is a *profile*: a synthetic multithreaded structure chosen to exercise the
same scheduling behaviours the real application does —

* ``barrier``   — SPMD compute with per-phase imbalance (the NAS codes,
  OIDN, ASKAP, Rodinia, OneDNN): one thread per core, fork-join phases;
* ``embarrass`` — independent throughput workers (Cpuminer, Arrayfire);
* ``forkjoin``  — many more tasks than cores per generation
  (GraphicsMagick, AVIFEnc): placement and stealing quality matter;
* ``pipeline``  — stage-to-stage wakeup chains (Ffmpeg, Libgav1, Zstd
  long-mode chains): wakeup placement matters;
* ``server``    — request/response with sleeps and bursts (Cassandra):
  the most balancing-sensitive shape, matching the paper's outliers.

Scores are work units per second (or seconds, for time-metric entries),
so the CFS-vs-WFQ *ratio* is meaningful even though absolute values are
synthetic.  Per-profile RNG seeds make runs deterministic.
"""

import random
import zlib
from dataclasses import dataclass

from repro.simkernel.clock import usecs
from repro.simkernel.futex import Futex
from repro.simkernel.program import (
    FutexWait,
    FutexWake,
    PipeRead,
    PipeWrite,
    Run,
    SemDown,
    SemUp,
    Sleep,
)
from repro.simkernel.pipe import Pipe
from repro.simkernel.semaphore import Semaphore


@dataclass(frozen=True)
class AppProfile:
    name: str
    suite: str              # "nas" | "phoronix"
    pattern: str            # barrier | embarrass | forkjoin | pipeline | server
    unit: str
    higher_is_better: bool
    threads: int            # relative to machine size where <=0
    phases: int
    work_ns: int            # per-thread, per-phase
    jitter: float           # per-phase imbalance factor
    scale: float = 1.0      # converts rate to the reported unit


@dataclass
class AppResult:
    profile: AppProfile
    elapsed_ns: int
    score: float


def _threads(profile, nr_cpus):
    if profile.threads <= 0:
        return nr_cpus * max(1, -profile.threads)
    return profile.threads


def run_app(kernel, policy, profile, seed=None):
    """Run one profile to completion; returns its score."""
    # Per-profile salt from a stable digest: ``hash(str)`` is randomised
    # per process, which made every Table 5 score depend on PYTHONHASHSEED.
    rng = random.Random((seed if seed is not None else kernel.config.seed)
                        ^ zlib.crc32(profile.name.encode()))
    nr_cpus = kernel.topology.nr_cpus
    nthreads = _threads(profile, nr_cpus)
    start = kernel.now
    runner = _PATTERNS[profile.pattern]
    pids = runner(kernel, policy, profile, nthreads, rng)
    kernel.run_until_idle()
    elapsed = max(1, kernel.now - start)
    total_work = nthreads * profile.phases * profile.work_ns
    if profile.higher_is_better:
        score = (total_work / elapsed) * profile.scale
    else:
        score = (elapsed / 1e9) * profile.scale
    return AppResult(profile=profile, elapsed_ns=elapsed, score=score)


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def _barrier(kernel, policy, profile, nthreads, rng):
    """SPMD: all threads compute a jittered chunk, then synchronise.

    The barrier is master-collected: workers post arrival semaphores and
    sleep on a release futex; the master releases everyone when the phase
    completes — the same wake-storm shape a pthread barrier produces.
    """
    jitters = [
        [rng.uniform(1 - profile.jitter, 1 + profile.jitter)
         for _ in range(nthreads)]
        for _ in range(profile.phases)
    ]
    release_futexes = [Futex() for _ in range(profile.phases)]
    arrive = [Semaphore(0) for _ in range(profile.phases)]

    def worker(index):
        def prog():
            for phase in range(profile.phases):
                yield Run(int(profile.work_ns * jitters[phase][index]))
                yield SemUp(arrive[phase])
                yield FutexWait(release_futexes[phase],
                                expected=0)
        return prog

    def master():
        for phase in range(profile.phases):
            yield Run(int(profile.work_ns * jitters[phase][0]))
            for _ in range(nthreads - 1):
                yield SemDown(arrive[phase])
            yield FutexWake(release_futexes[phase], nthreads,
                            new_value=1)

    pids = [kernel.spawn(master, name=f"{profile.name}-t0",
                         policy=policy).pid]
    for index in range(1, nthreads):
        pids.append(kernel.spawn(worker(index),
                                 name=f"{profile.name}-t{index}",
                                 policy=policy).pid)
    return pids


def _embarrass(kernel, policy, profile, nthreads, rng):
    """Independent workers, no synchronisation (miners, BLAS)."""
    pids = []
    for index in range(nthreads):
        jitter = rng.uniform(1 - profile.jitter, 1 + profile.jitter)

        def prog(j=jitter):
            def inner():
                for _ in range(profile.phases):
                    yield Run(int(profile.work_ns * j))
            return inner

        pids.append(kernel.spawn(prog(), name=f"{profile.name}-t{index}",
                                 policy=policy).pid)
    return pids


def _forkjoin(kernel, policy, profile, nthreads, rng):
    """Generations of short tasks, each generation oversubscribed."""
    done_sem = Semaphore(0)
    tasks_per_gen = nthreads

    def item(duration):
        def prog():
            yield Run(duration)
            yield SemUp(done_sem)
        return prog

    def coordinator():
        for _phase in range(profile.phases):
            durations = [
                int(profile.work_ns
                    * rng.uniform(1 - profile.jitter, 1 + profile.jitter))
                for _ in range(tasks_per_gen)
            ]
            from repro.simkernel.program import Spawn
            for duration in durations:
                yield Spawn(item(duration))
            for _ in range(tasks_per_gen):
                yield SemDown(done_sem)

    return [kernel.spawn(coordinator, name=f"{profile.name}-coord",
                         policy=policy).pid]


def _pipeline(kernel, policy, profile, nthreads, rng):
    """A chain of stages passing items through pipes (codec-style)."""
    stages = max(2, nthreads)
    items = profile.phases
    pipes = [Pipe(f"{profile.name}-p{i}") for i in range(stages + 1)]
    stage_work = [
        int(profile.work_ns
            * rng.uniform(1 - profile.jitter, 1 + profile.jitter))
        for _ in range(stages)
    ]

    def source():
        for item_index in range(items):
            yield PipeWrite(pipes[0], item_index)

    def stage(index):
        def prog():
            for _ in range(items):
                yield PipeRead(pipes[index])
                yield Run(stage_work[index])
                yield PipeWrite(pipes[index + 1], 1)
        return prog

    def sink():
        for _ in range(items):
            yield PipeRead(pipes[stages])

    pids = [kernel.spawn(source, name=f"{profile.name}-src",
                         policy=policy).pid]
    for index in range(stages):
        pids.append(kernel.spawn(stage(index),
                                 name=f"{profile.name}-s{index}",
                                 policy=policy).pid)
    pids.append(kernel.spawn(sink, name=f"{profile.name}-sink",
                             policy=policy).pid)
    return pids


def _server(kernel, policy, profile, nthreads, rng):
    """Bursty request/response with sleeps (Cassandra-like writes)."""
    queue_sem = Semaphore(0)
    burst = max(2, nthreads // 2)

    def worker():
        def prog():
            for _ in range(profile.phases):
                yield SemDown(queue_sem)
                yield Run(int(profile.work_ns
                              * rng.uniform(1 - profile.jitter,
                                            1 + profile.jitter)))
        return prog

    def driver():
        total = profile.phases * nthreads
        issued = 0
        while issued < total:
            for _ in range(min(burst, total - issued)):
                yield SemUp(queue_sem)
                issued += 1
            yield Sleep(int(profile.work_ns // 2))

    pids = [kernel.spawn(driver, name=f"{profile.name}-driver",
                         policy=policy).pid]
    for index in range(nthreads):
        pids.append(kernel.spawn(worker(), name=f"{profile.name}-w{index}",
                                 policy=policy).pid)
    return pids


_PATTERNS = {
    "barrier": _barrier,
    "embarrass": _embarrass,
    "forkjoin": _forkjoin,
    "pipeline": _pipeline,
    "server": _server,
}


# ---------------------------------------------------------------------------
# the 36 Table 5 profiles
# ---------------------------------------------------------------------------

def _p(name, suite, pattern, unit, hib, threads, phases, work_us, jitter,
       scale=1.0):
    return AppProfile(name=name, suite=suite, pattern=pattern, unit=unit,
                      higher_is_better=hib, threads=threads, phases=phases,
                      work_ns=usecs(work_us), jitter=jitter, scale=scale)


NAS_PROFILES = [
    _p("BT", "nas", "barrier", "Mops/s", True, 0, 24, 700, 0.02, 26000),
    _p("CG", "nas", "barrier", "Mops/s", True, 0, 40, 220, 0.08, 4500),
    _p("EP", "nas", "embarrass", "Mops/s", True, 0, 10, 1600, 0.01, 490),
    _p("FT", "nas", "barrier", "Mops/s", True, 0, 20, 800, 0.03, 14800),
    _p("IS", "nas", "barrier", "Mops/s", True, 0, 30, 180, 0.10, 1290),
    _p("LU", "nas", "barrier", "Mops/s", True, 0, 48, 420, 0.05, 30000),
    _p("MG", "nas", "barrier", "Mops/s", True, 0, 24, 520, 0.04, 8600),
    _p("SP", "nas", "barrier", "Mops/s", True, 0, 36, 460, 0.03, 11800),
    _p("UA", "nas", "barrier", "Mops/s", True, 0, 30, 380, 0.09, 74),
]

PHORONIX_PROFILES = [
    _p("Arrayfire, 1", "phoronix", "embarrass", "GFLOPS", True, 0, 12,
       900, 0.02, 810),
    _p("Arrayfire, 2", "phoronix", "barrier", "ms", False, 0, 16, 300,
       0.04, 2.8),
    _p("Cassandra, 1", "phoronix", "server", "Op/s", True, -2, 28, 140,
       0.30, 52000),
    _p("ASKAP, 4", "phoronix", "barrier", "Iter/s", True, 0, 24, 420,
       0.05, 160),
    _p("Cpuminer, 2", "phoronix", "embarrass", "kH/s", True, 0, 14, 760,
       0.01, 51000),
    _p("Cpuminer, 3", "phoronix", "embarrass", "kH/s", True, 0, 14, 820,
       0.01, 35500),
    _p("Cpuminer, 4", "phoronix", "embarrass", "kH/s", True, 0, 12, 880,
       0.01, 9500),
    _p("Cpuminer, 6", "phoronix", "embarrass", "kH/s", True, 0, 16, 700,
       0.01, 260000),
    _p("Cpuminer, 11", "phoronix", "embarrass", "kH/s", True, 0, 14, 800,
       0.01, 29400),
    _p("Ffmpeg, 1, 1", "phoronix", "pipeline", "s", False, 6, 160, 110,
       0.12, 24.0),
    _p("Graphics-Magick, 4", "phoronix", "forkjoin", "Iter/m", True, -2,
       10, 320, 0.15, 780),
    _p("OIDN, 1", "phoronix", "barrier", "Images/s", True, 0, 12, 1100,
       0.03, 0.31),
    _p("OIDN, 2", "phoronix", "barrier", "Images/s", True, 0, 12, 1150,
       0.03, 0.31),
    _p("OIDN, 3", "phoronix", "barrier", "Images/s", True, 0, 18, 1300,
       0.02, 0.15),
    _p("Rodina, 3", "phoronix", "barrier", "s", False, 0, 30, 600, 0.06,
       160.0),
    _p("Zstd, 2", "phoronix", "pipeline", "MB/s", True, 5, 220, 120, 0.25,
       850),
    _p("Zstd, 4", "phoronix", "pipeline", "MB/s", True, 5, 260, 160, 0.25,
       155),
    _p("AVIFEnc, 4", "phoronix", "forkjoin", "s", False, -2, 12, 380,
       0.12, 15.0),
    _p("Libgav1, 1", "phoronix", "pipeline", "FPS", True, 4, 200, 90,
       0.10, 263),
    _p("Libgav1, 2", "phoronix", "pipeline", "FPS", True, 4, 160, 210,
       0.10, 67),
    _p("Libgav1, 3", "phoronix", "pipeline", "FPS", True, 4, 200, 100,
       0.10, 222),
    _p("Libgav1, 4", "phoronix", "pipeline", "FPS", True, 4, 160, 220,
       0.10, 64),
    _p("OneDNN, 4, 1", "phoronix", "barrier", "ms", False, 0, 20, 140,
       0.05, 4.2),
    _p("OneDNN, 5, 1", "phoronix", "barrier", "ms", False, 0, 24, 180,
       0.06, 9.4),
    _p("OneDNN, 7, 1", "phoronix", "barrier", "ms", False, 0, 30, 900,
       0.02, 4165),
    _p("OneDNN, 7, 2", "phoronix", "barrier", "ms", False, 0, 30, 910,
       0.02, 4163),
    _p("OneDNN, 7, 3", "phoronix", "barrier", "ms", False, 0, 30, 905,
       0.02, 4163),
]

ALL_PROFILES = NAS_PROFILES + PHORONIX_PROFILES
