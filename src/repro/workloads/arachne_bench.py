"""The Arachne columns of Tables 3 and 4: user-thread benchmarks.

Arachne schedules user threads, not kernel tasks, so its column cannot
run the kernel-task pipe and schbench workloads; it runs their
user-level counterparts on an :class:`~repro.arachne_rt.ArachneRuntime`
instead — a two-thread ping-pong (Table 3) and schbench's message /
worker rounds (Table 4).  The dispatchers run under the kernel's
default class (policy 0); user-level wakeups never enter the kernel,
which is the point of the column.
"""

from repro.arachne_rt import ArachneRuntime, UCond, UNotify, URun, UWait
from repro.simkernel.clock import msecs, usecs


def _run_until(kernel, runtime, done, step_ns):
    """Step the clock until ``done()``, then stop the runtime: the
    dispatchers poll forever and would otherwise spin to the horizon."""
    for _ in range(2_000):
        kernel.run_for(step_ns)
        if done():
            break
    runtime.stop()
    kernel.run_until_idle()


def run_arachne_pipe(kernel, rounds, cores):
    """User-thread ping-pong on ``cores`` active dispatchers; returns
    microseconds per message (Table 3's metric)."""
    runtime = ArachneRuntime(kernel, cores=list(range(cores)), policy=0,
                             name="pipe").start(cores)
    ping, pong = UCond(), UCond()
    marks = {}

    def side_a():
        marks["start"] = kernel.now
        for _ in range(rounds):
            yield UNotify(ping, 1)
            yield UWait(pong)
        marks["end"] = kernel.now

    def side_b():
        for _ in range(rounds):
            yield UWait(ping)
            yield UNotify(pong, 1)

    runtime.submit(side_b)
    runtime.submit(side_a)
    _run_until(kernel, runtime, lambda: "end" in marks, msecs(1))
    return (marks["end"] - marks["start"]) / (2 * rounds) / 1e3


def run_arachne_rounds(kernel, workers, rounds=60):
    """Two message threads, each waking ``workers`` user threads per
    round, on a runtime of eight cores (four active at start); returns
    the sorted wakeup latencies in microseconds."""
    runtime = ArachneRuntime(kernel, cores=list(range(8)), policy=0,
                             name="schbench").start(4)
    samples = []
    finished = []

    def group():
        worker_conds = [UCond() for _ in range(workers)]
        reply = UCond()
        stamp = {}

        def worker(cond):
            def prog():
                for _ in range(rounds):
                    yield UWait(cond)
                    samples.append((kernel.now - stamp["t"]) / 1e3)
                    yield URun(usecs(5))
                    yield UNotify(reply, 1)
            return prog

        def messenger():
            for cond in worker_conds:
                runtime.submit(worker(cond))
            yield URun(usecs(50))
            for _ in range(rounds):
                stamp["t"] = kernel.now
                for cond in worker_conds:
                    yield UNotify(cond, 1)
                for _ in range(workers):
                    yield UWait(reply)
                yield URun(usecs(100))
            finished.append(True)
        return messenger

    runtime.submit(group())
    runtime.submit(group())
    _run_until(kernel, runtime, lambda: len(finished) == 2, msecs(5))
    return sorted(samples)
