"""Task state: the simulator's ``task_struct``.

Holds identity, scheduling policy attachment, nice/weight, CPU affinity,
runtime accounting, and the generator implementing the task's program.
State transitions are validated; an illegal transition raises
:class:`TaskLifecycleError` instead of silently corrupting the simulation.
"""

import enum
from collections import deque

from repro.simkernel.errors import TaskLifecycleError

#: retention bound for per-task wakeup-latency samples — long simulations
#: keep a sliding window of the most recent samples instead of growing
#: without limit
WAKEUP_SAMPLE_CAP = 65_536

#: Linux's sched_prio_to_weight[] table, indexed by nice + 20.
NICE_TO_WEIGHT = (
    88761, 71755, 56483, 46273, 36291,
    29154, 23254, 18705, 14949, 11916,
    9548, 7620, 6100, 4904, 3906,
    3121, 2501, 1991, 1586, 1277,
    1024, 820, 655, 526, 423,
    335, 272, 215, 172, 137,
    110, 87, 70, 56, 45,
    36, 29, 23, 18, 15,
)

NICE_0_WEIGHT = 1024


def weight_for_nice(nice):
    """Map a nice value (-20..19) to a load weight."""
    if not -20 <= nice <= 19:
        raise ValueError(f"nice out of range: {nice}")
    return NICE_TO_WEIGHT[nice + 20]


class TaskState(enum.Enum):
    """Lifecycle states, mirroring the kernel's coarse task states."""

    NEW = "new"
    RUNNABLE = "runnable"   # on a run queue, waiting for CPU
    RUNNING = "running"     # currently on a CPU
    BLOCKED = "blocked"     # sleeping / waiting on pipe, futex, timer
    THROTTLED = "throttled"  # parked in a bandwidth-throttled task group
    DEAD = "dead"


#: The legal transitions, hung on the members themselves as tuples:
#: ``in`` on a tuple compares by identity, so ``set_state`` hashes no
#: enum (``Enum.__hash__`` is a Python-level frame, and every dispatch,
#: block and wakeup crosses the table).
TaskState.NEW.successors = (TaskState.RUNNABLE,)
TaskState.RUNNABLE.successors = (
    TaskState.RUNNING, TaskState.THROTTLED, TaskState.DEAD,
)
TaskState.RUNNING.successors = (
    TaskState.RUNNABLE, TaskState.BLOCKED, TaskState.DEAD,
)
TaskState.BLOCKED.successors = (
    TaskState.RUNNABLE, TaskState.THROTTLED, TaskState.DEAD,
)
TaskState.THROTTLED.successors = (TaskState.RUNNABLE, TaskState.DEAD)
TaskState.DEAD.successors = ()


class TaskStruct:
    """One schedulable entity.

    The kernel core owns every field; scheduler classes observe tasks
    through their callbacks and, for Enoki schedulers, only through message
    payloads (the framework never hands the raw struct across).
    """

    __slots__ = (
        "pid", "name", "policy", "nice", "weight", "tgid",
        "cpu", "allowed_cpus", "state",
        "program", "_gen", "pending_result",
        "run_remaining_ns", "run_started_ns", "run_epoch", "_in_syscall",
        "sum_exec_runtime_ns", "last_ran_ns", "exec_start_ns",
        "last_wakeup_ns", "last_enqueue_ns", "wakeup_flags", "kick_at_ns",
        "vruntime", "on_rq",
        "group", "group_cpu", "eff_weight", "eff_weight_key",
        "stats", "exit_value", "user_data",
    )

    def __init__(self, pid, program, name=None, policy=0, nice=0,
                 allowed_cpus=None, tgid=None):
        self.pid = pid
        self.tgid = tgid if tgid is not None else pid
        self.name = name or f"task-{pid}"
        self.policy = policy
        self.nice = nice
        self.weight = weight_for_nice(nice)
        self.cpu = -1
        self.allowed_cpus = (
            frozenset(allowed_cpus) if allowed_cpus is not None else None
        )
        self.state = TaskState.NEW
        self.program = program
        self._gen = None
        self.pending_result = None
        self.run_remaining_ns = 0
        self.run_started_ns = 0
        self.run_epoch = 0
        self._in_syscall = False
        self.sum_exec_runtime_ns = 0
        self.last_ran_ns = 0
        self.exec_start_ns = 0
        self.last_wakeup_ns = -1
        self.last_enqueue_ns = -1
        self.wakeup_flags = 0
        self.kick_at_ns = 0
        self.vruntime = 0
        self.on_rq = False
        # Task-group attachment (None = the implicit root group, which
        # carries no accounting so flat workloads pay nothing for the
        # hierarchy).  ``group_cpu`` is the CPU this task's weight is
        # currently accounted on in the group's runnable index (-1 = not
        # accounted).
        self.group = None
        self.group_cpu = -1
        # Hierarchical effective weight, memoised by
        # ``GroupManager.effective_weight`` under the key it was computed
        # for: (cpu, that CPU's runnable-index generation, own weight).
        self.eff_weight = 0
        self.eff_weight_key = None
        self.stats = TaskStats()
        self.exit_value = None
        self.user_data = None

    # -- program -------------------------------------------------------

    def start_program(self):
        if self._gen is not None:
            raise TaskLifecycleError(f"{self} program already started")
        self._gen = self.program()

    # -- state machine ---------------------------------------------------

    def set_state(self, new_state):
        if new_state not in self.state.successors:
            raise TaskLifecycleError(
                f"{self}: illegal transition {self.state.value} -> "
                f"{new_state.value}"
            )
        self.state = new_state

    def can_run_on(self, cpu):
        return self.allowed_cpus is None or cpu in self.allowed_cpus

    def set_nice(self, nice):
        self.nice = nice
        self.weight = weight_for_nice(nice)

    def __repr__(self):
        return (
            f"TaskStruct(pid={self.pid}, name={self.name!r}, "
            f"state={self.state.value}, cpu={self.cpu})"
        )


class TaskStats:
    """Per-task accounting used by workloads and the metric hooks.

    ``migrations`` counts moves of the task between CPUs after it was
    first placed: a balancer's pull of the queued task and the forced
    move off a CPU its own ``SetAffinity`` disallowed.  Where a wakeup
    places the task is not a migration.
    """

    __slots__ = (
        "wakeups", "wakeup_latency_total_ns", "wakeup_latencies",
        "wakeup_samples_dropped",
        "migrations", "preemptions", "yields",
        "created_ns", "finished_ns", "blocked_count",
        "timeslices", "wait_ns", "sleep_ns", "block_ns",
        "wait_since_ns", "block_since_ns", "block_is_sleep",
    )

    def __init__(self, sample_cap=WAKEUP_SAMPLE_CAP):
        self.wakeups = 0
        self.wakeup_latency_total_ns = 0
        # Bounded sliding window: the newest sample is always
        # ``wakeup_latencies[-1]``; once full, the oldest sample is evicted
        # and counted in ``wakeup_samples_dropped``.
        self.wakeup_latencies = deque(maxlen=sample_cap)
        self.wakeup_samples_dropped = 0
        self.migrations = 0
        self.preemptions = 0
        self.yields = 0
        self.created_ns = -1
        self.finished_ns = -1
        self.blocked_count = 0
        # Delay accounting (Linux schedstat analogue): every nanosecond of
        # a task's life is attributed to exactly one of run (charged via
        # ``sum_exec_runtime_ns``), wait (runnable, off CPU), sleep
        # (voluntary, e.g. ``Sleep``) or block (involuntary, e.g. pipe
        # full/empty, futex).  ``*_since_ns`` mark open segments (-1 when
        # no segment is open); the dispatcher and migration service close
        # them inline so the numbers are exact with no tracer attached.
        self.timeslices = 0
        self.wait_ns = 0
        self.sleep_ns = 0
        self.block_ns = 0
        self.wait_since_ns = -1
        self.block_since_ns = -1
        self.block_is_sleep = False

    def note_wakeup_latency(self, latency_ns):
        self.wakeups += 1
        self.wakeup_latency_total_ns += latency_ns
        samples = self.wakeup_latencies
        # Only this method appends, and nothing clears, so the window is
        # full before this sample exactly when ``wakeups - 1 >= maxlen``.
        if self.wakeups > samples.maxlen:
            self.wakeup_samples_dropped += 1
        samples.append(latency_ns)

    @property
    def mean_wakeup_latency_ns(self):
        if not self.wakeups:
            return 0.0
        return self.wakeup_latency_total_ns / self.wakeups
