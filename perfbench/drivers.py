"""Layer drivers: the benchmark calling single layers' public functions
directly, tracing off.  They run after the timed repeats and the traced
pass, each inside its own ``driver:<name>`` span.

Most are fixed micro-workloads, identical whatever ``--workload`` is, so
a result file shows the layer's speed in the same machine epoch as the
workload's numbers.  ``exp.build_ms``, ``snapshot.*`` and the shim
crossing counts use the workload's own spec.
"""

import gc
import statistics
import time


def _cpu(fn):
    gc.collect()
    start = time.process_time()
    out = fn()
    return time.process_time() - start, out


# ----------------------------------------------------------------------
# events / hints: bare data structures
# ----------------------------------------------------------------------

def _events_ns_per_event(live, fired):
    """Self-rescheduling timers at ``live`` pending events; periods are
    spread over 1 us .. 1 ms so the queue sees many distinct deadlines."""
    from repro.simkernel.events import make_event_queue
    queue = make_event_queue()
    after = queue.after

    def tick(period):
        after(period, tick, period)

    periods = [1_000 + (i * 2_654_435_761) % 999_000 for i in range(live)]
    for period in periods:
        after(period, tick, period)
    # A timer of period p fires deadline // p times by the deadline.
    deadline = int(fired / sum(1 / period for period in periods))
    count = sum(deadline // period for period in periods)
    return _cpu(lambda: queue.run_until(deadline))[0] / count * 1e9


def events(scale):
    from repro.simkernel.events import make_event_queue
    fired = 200_000 // scale
    out = {f"events.ns_per_event.{name}": _events_ns_per_event(live, fired)
           for name, live in (("sparse", 4), ("mid", 128), ("dense", 2048))}
    queue = make_event_queue()
    count = 50_000 // scale
    handles = [queue.after(1_000 + i, int) for i in range(count)]
    cancel = queue.cancel

    def cancel_all():
        for handle in handles:
            cancel(handle)
    out["events.cancel_ns"] = _cpu(cancel_all)[0] / count * 1e9
    return out


def hints(scale):
    from repro.core.hints import RingBuffer
    ring = RingBuffer(1024)
    count = 200_000 // scale
    payload = {"expected_ns": 1}

    def push_pop():
        push, pop = ring.push, ring.pop
        for _ in range(count):
            push(payload)
            pop()
    return {"hints.ns_per_push_pop": _cpu(push_pop)[0] / count * 1e9}


# ----------------------------------------------------------------------
# exp / snapshot: session construction on the workload's spec
# ----------------------------------------------------------------------

def sessions(workload, scale):
    from repro.simkernel.snapshot import capture
    builds = 200 // scale
    build_s = _cpu(lambda: [workload.plain_session()
                            for _ in range(builds)])[0]
    fresh = [workload.plain_session() for _ in range(40 // scale)]
    capture_s, images = _cpu(lambda: [capture(s) for s in fresh])
    forks = 100 // scale
    fork_s = _cpu(lambda: [images[0].fork() for _ in range(forks)])[0]
    return {"exp.build_ms": build_s / builds * 1e3,
            "snapshot.capture_ms": capture_s / len(fresh) * 1e3,
            "snapshot.fork_ms": fork_s / forks * 1e3}


# ----------------------------------------------------------------------
# shim / policy: crossings counted by the CallbackProfiler
# ----------------------------------------------------------------------

def shim_crossings(workload):
    """Crossings per op and the policy's wall time per crossing, one
    repeat of the workload with a CallbackProfiler on its shim.  Zero for
    a workload without a shim (tenants-cfs) or whose sessions are built
    inside the program (fuzz-mixed)."""
    from repro.obs.profiler import CallbackProfiler
    zero = {"shim.crossings_per_op": 0.0,
            "policy.wall_ns_per_crossing": 0.0}
    session = workload.build()
    if session is None or session.shim is None:
        return zero
    profiler = CallbackProfiler().install(session.shim)
    outcome = workload.check(session, workload.body(session))
    crossings = profiler.total_calls()
    profiler.uninstall()
    return {"shim.crossings_per_op": crossings / outcome["ops"],
            "policy.wall_ns_per_crossing":
                profiler.total_wall_ns() / crossings}


# ----------------------------------------------------------------------
# obs / record: cost of each attachment on a fixed pipe run
# ----------------------------------------------------------------------

def _pipe_run(rounds, attach):
    """CPU seconds of a wfq pipe run with one attachment; returns
    ``(cpu_s, session, recorder)``."""
    from repro.core.record import Recorder
    from repro.exp import KernelBuilder, ScenarioSpec
    from repro.workloads.pipe_bench import run_pipe_benchmark
    recorder = Recorder(capacity=1 << 22) if attach == "recorder" else None
    session = KernelBuilder.session_from_spec(
        ScenarioSpec(name="driver-pipe", sched="wfq"), recorder=recorder)
    if attach == "observer":
        session.attach_observer()
    elif attach == "sanitizer":
        session.attach_sanitizers()
    elif attach == "telemetry":
        session.attach_telemetry(1_000_000)

    def run():
        run_pipe_benchmark(session.kernel, session.policy, rounds=rounds)
        session.stop()
    return _cpu(run)[0], session, recorder


#: attachment -> the metric its cost is reported under
COST_METRICS = {
    "observer": "obs.observer_cost_x",
    "sanitizer": "obs.sanitizer_cost_x",
    "telemetry": "obs.telemetry_cost_x",
    "recorder": "record.recorder_cost_x",
}


def attachment_costs(scale):
    """``*_cost_x``: time with one attachment / time of the hot run, the
    variants interleaved so an epoch change hits all of them."""
    rounds = 200 // scale
    samples = {variant: [] for variant in ("hot", *COST_METRICS)}
    for _ in range(3):
        for variant, times in samples.items():
            times.append(_pipe_run(rounds, variant)[0])
    hot = statistics.median(samples["hot"])
    return {metric: statistics.median(samples[variant]) / hot
            for variant, metric in COST_METRICS.items()}


def record_replay(scale):
    from repro.core.replay import ReplayEngine
    rounds = 400 // scale
    _, session, recorder = _pipe_run(rounds, "recorder")
    recorder.stop()
    entries = recorder.entries
    replay_s, replay = _cpu(lambda: ReplayEngine(
        session.scheduler_factory, entries).run_sequential())
    if not replay.matched:
        raise RuntimeError("driver replay diverged")
    return {"record.entries_per_op": len(entries) / (2 * rounds),
            "record.replay_ns_per_entry": replay_s / len(entries) * 1e9}


# ----------------------------------------------------------------------
# verify: generator, state scans, episodes
# ----------------------------------------------------------------------

def verify(scale):
    from repro.exp import KernelBuilder, ScenarioSpec
    from repro.verify import (check_kernel_state, generate_episode,
                              run_episode, state_digest)
    from repro.workloads.hackbench import run_hackbench
    count = 200 // scale
    generate_s = _cpu(lambda: [generate_episode(i)
                               for i in range(count)])[0]
    # scans run over a fixed 16-task end state
    session = KernelBuilder.session_from_spec(
        ScenarioSpec(name="driver-scan", sched="wfq", topology="smp:4"))
    run_hackbench(session.kernel, session.policy, groups=2, fds=4, loops=5)
    kernel = session.kernel
    scan_s = _cpu(lambda: [check_kernel_state(kernel)
                           for _ in range(count)])[0]
    digest_s = _cpu(lambda: [state_digest(kernel)
                             for _ in range(count)])[0]
    episode_ms = []
    for i in range(24 // scale):
        spec = generate_episode(i)
        cpu, result = _cpu(lambda: run_episode(spec))
        if not result.ok:
            raise RuntimeError(f"driver episode {i} failed")
        episode_ms.append(cpu * 1e3)
    episode_ms.sort()
    return {
        "verify.generate_ms": generate_s / count * 1e3,
        "verify.scan_ms": scan_s / count * 1e3,
        "verify.digest_ms": digest_s / count * 1e3,
        "verify.episode_ms_p50": statistics.median(episode_ms),
        "verify.episode_ms_p95":
            episode_ms[min(len(episode_ms) - 1,
                           int(len(episode_ms) * 0.95))],
    }


def run_all(workload, tracer, scale):
    """Every driver, each in its own span.  -> {metric: value}"""
    drivers = (
        ("events", lambda: events(scale)),
        ("hints", lambda: hints(scale)),
        ("sessions", lambda: sessions(workload, scale)),
        ("shim_crossings", lambda: shim_crossings(workload)),
        ("attachment_costs", lambda: attachment_costs(scale)),
        ("record_replay", lambda: record_replay(scale)),
        ("verify", lambda: verify(scale)),
    )
    out = {}
    for name, driver in drivers:
        with tracer.span(f"driver:{name}"):
            out.update(driver())
    return out
