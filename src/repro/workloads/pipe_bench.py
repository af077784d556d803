"""``perf bench sched pipe``: the scheduler-latency microbenchmark.

Paper, section 5.2:

    "This benchmark starts two tasks that send 1 million messages back and
    forth using the pipe system call.  After each message, the sending
    task sleeps until the other task responds.  By default, all schedulers
    put the two tasks on different cores.  We also ran the benchmarks
    forcing both tasks to be on the same core."

Table 3 reports microseconds per wakeup; each round trip is two messages /
two wakeups, so the metric is ``total_time / (2 * rounds)``.
"""

from dataclasses import dataclass

from repro.simkernel.pipe import Pipe
from repro.simkernel.program import Call, PipeRead, PipeWrite


@dataclass
class PipeBenchResult:
    """Outcome of one sched-pipe run."""

    rounds: int
    total_ns: int
    measured_ns: int
    measured_messages: int
    same_core: bool
    scheduler: str = ""

    @property
    def latency_us_per_message(self):
        """Microseconds per message (== per wakeup), the Table 3 metric."""
        if self.measured_messages == 0:
            return 0.0
        return self.measured_ns / self.measured_messages / 1_000.0


def run_pipe_benchmark(kernel, policy, rounds=2_000, same_core=False,
                       warmup_rounds=50, scheduler_name="",
                       pin_two_cores=False):
    """Run the ping-pong on an already-configured kernel.

    ``policy`` selects the scheduler class under test for both tasks.
    ``same_core`` pins both tasks to CPU 0 (the paper's one-core case).
    ``pin_two_cores`` pins the tasks to CPUs 0 and 1, forcing the paper's
    default two-core configuration even on schedulers whose placement
    would co-locate the pair.
    """
    if rounds < 0 or warmup_rounds < 0:
        # The two loops below would disagree on the round count: the
        # sender then blocks on ``pong`` for ever.
        raise ValueError(f"rounds ({rounds}) and warmup_rounds "
                         f"({warmup_rounds}) must be >= 0")
    ping, pong = Pipe("ping"), Pipe("pong")
    marks = {}

    def mark(name):
        marks[name] = kernel.now

    def sender():
        for _ in range(warmup_rounds):
            yield PipeWrite(ping, b"w")
            yield PipeRead(pong)
        yield Call(mark, ("start",))
        for _ in range(rounds):
            yield PipeWrite(ping, b"m")
            yield PipeRead(pong)
        yield Call(mark, ("end",))

    def receiver():
        for _ in range(warmup_rounds + rounds):
            yield PipeRead(ping)
            yield PipeWrite(pong, b"r")

    if same_core:
        sender_affinity = receiver_affinity = frozenset({0})
    elif pin_two_cores:
        sender_affinity = frozenset({0})
        receiver_affinity = frozenset({1})
    else:
        sender_affinity = receiver_affinity = None
    kernel.spawn(sender, name="pipe-sender", policy=policy,
                 allowed_cpus=sender_affinity)
    kernel.spawn(receiver, name="pipe-receiver", policy=policy,
                 allowed_cpus=receiver_affinity, origin_cpu=0)
    kernel.run_until_idle()

    measured = marks["end"] - marks["start"]
    return PipeBenchResult(
        rounds=rounds,
        total_ns=kernel.now,
        measured_ns=measured,
        measured_messages=2 * rounds,
        same_core=same_core,
        scheduler=scheduler_name,
    )
