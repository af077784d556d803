"""Machine-wide accounting: per-CPU busy time, switches, idle residency.

Workloads read these to compute CPU shares (Figure 2c), utilisation, and
scheduling-delay distributions.
"""


class CpuStats:
    """Accumulated per-CPU counters."""

    __slots__ = (
        "cpu", "busy_ns", "idle_ns", "switches", "steals",
        "busy_ns_by_pid", "busy_ns_by_tgid",
    )

    def __init__(self, cpu):
        self.cpu = cpu
        self.busy_ns = 0
        self.idle_ns = 0
        self.switches = 0
        self.steals = 0              # tasks pulled onto this CPU by migration
        self.busy_ns_by_pid = {}
        self.busy_ns_by_tgid = {}


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

    def busy_ns_for_tgid(self, tgid):
        """Total CPU time consumed machine-wide by a thread group."""
        return sum(c.busy_ns_by_tgid.get(tgid, 0) for c in self.cpus)

    def busy_ns_total(self):
        return sum(c.busy_ns for c in self.cpus)

    def cpu_share_for_tgid(self, tgid, window_ns):
        """Average number of CPUs a thread group held over a window."""
        if window_ns <= 0:
            return 0.0
        return self.busy_ns_for_tgid(tgid) / window_ns
