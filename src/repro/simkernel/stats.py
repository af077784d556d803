"""Machine-wide accounting: per-CPU busy time, switches, idle residency.

Workloads read these for utilisation and scheduling-delay distributions;
CPU time per task is the task's own ``sum_exec_runtime_ns``.
"""


class CpuStats:
    """Accumulated per-CPU counters."""

    __slots__ = ("cpu", "busy_ns", "idle_ns", "switches", "steals")

    def __init__(self, cpu):
        self.cpu = cpu
        self.busy_ns = 0
        self.idle_ns = 0
        self.switches = 0
        self.steals = 0              # tasks pulled onto this CPU by migration


class KernelStats:
    """Aggregated metrics across the machine."""

    def __init__(self, nr_cpus):
        self.cpus = [CpuStats(c) for c in range(nr_cpus)]
        self.total_wakeups = 0
        self.total_migrations = 0
        self.failed_migrations = 0
        self.pick_errors = 0
        self.sched_invocations = 0
        self.hint_drops = 0
        self.contained_panics = 0
        self.failovers = 0

    def busy_ns_total(self):
        return sum(c.busy_ns for c in self.cpus)
