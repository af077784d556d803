"""Per-CPU run queues: the kernel's membership record and the one queue
format every scheduler keeps its waiting tasks in.

The *kernel core* owns :class:`KernelRunQueue`: which tasks are attached
to which CPU's run queue, which task is current, and the resched flag.  A
scheduler class keeps its own policy structures; ``pick_next_task`` must
nevertheless return a task that is on the CPU's kernel run queue — this is
exactly the invariant the paper's ``Schedulable`` token proves, and the
invariant whose violation "can cause the kernel to crash" (section 1).

The policy side is :class:`TokenQueue`, shared by every scheduler: the
Enoki policies queue their ``Schedulable`` tokens in it, and the native
classes (CFS, native FIFO, ghOSt's agent) queue pids with ``None`` as the
token.
"""

from bisect import insort
from operator import itemgetter

from repro.simkernel.errors import SchedulingError

_KEY = itemgetter(0)


class KernelRunQueue:
    """Membership + current-task state for one CPU."""

    __slots__ = (
        "cpu", "queued", "nr_queued", "current", "need_resched",
        "idle_since_ns", "nr_switches",
    )

    def __init__(self, cpu):
        self.cpu = cpu
        self.queued = {}           # pid -> TaskStruct (attached, runnable)
        #: ``len(queued)``, kept by every attach and detach: tasks attached
        #: to this run queue, excluding the current one
        self.nr_queued = 0
        self.current = None        # TaskStruct or None (idle)
        self.need_resched = False
        self.idle_since_ns = 0
        self.nr_switches = 0

    # -- membership ------------------------------------------------------

    def attach(self, task):
        if task.pid in self.queued:
            raise SchedulingError(
                f"pid {task.pid} double-attached to cpu {self.cpu}"
            )
        if task.on_rq:
            raise SchedulingError(
                f"pid {task.pid} already on a run queue (cpu {task.cpu})"
            )
        self.queued[task.pid] = task
        self.nr_queued += 1
        task.on_rq = True
        task.cpu = self.cpu

    def detach(self, task):
        if task.pid not in self.queued:
            raise SchedulingError(
                f"pid {task.pid} not attached to cpu {self.cpu}"
            )
        del self.queued[task.pid]
        self.nr_queued -= 1
        task.on_rq = False

    def has(self, pid):
        return pid in self.queued

    @property
    def nr_running(self):
        """Queued tasks plus the current one, mirroring rq->nr_running."""
        return self.nr_queued + (1 if self.current is not None else 0)

    def load_weight(self):
        """Sum of attached task weights (plus current), for balancing."""
        total = sum(t.weight for t in self.queued.values())
        if self.current is not None:
            total += self.current.weight
        return total

    def __repr__(self):
        cur = self.current.pid if self.current else None
        return (
            f"KernelRunQueue(cpu={self.cpu}, queued={sorted(self.queued)}, "
            f"current={cur})"
        )


class TokenQueue:
    """Per-CPU run queues of ``(key, pid, token)`` plus a pid -> cpu index.

    Invariants:

    * each CPU's list is ordered by ``key``, and a key never changes while
      its entry is queued — the caller passes the value at push time
      rather than a callback, so order is maintained by one ``insort``
      per push and the head is always ``cpus[cpu][0]``;
    * equal keys keep arrival order (``insort_right``);
    * a pid has at most one entry: pushing a queued pid replaces it;
    * ``where`` names the CPU of every queued pid and nothing else, so
      removing a pid that is not queued (every ``task_blocked``: the
      blocking task is the running one) is one ``in`` test.

    Schedulers read ``cpus[cpu]`` (length, head, iteration) directly and
    change it only through the five methods below.  The token is opaque
    here: a class with no token to hold passes ``None``.
    """

    def __init__(self, nr_cpus):
        self.cpus = {cpu: [] for cpu in range(nr_cpus)}
        self.where = {}
        #: the last key ``push_back`` handed out
        self.seq = 0

    def add_cpus(self, nr_cpus):
        """Adopt CPUs the version that built this queue did not know."""
        for cpu in range(nr_cpus):
            self.cpus.setdefault(cpu, [])

    def push(self, cpu, key, pid, token):
        """Queue ``pid`` on ``cpu`` behind every entry with key <= ``key``."""
        if pid in self.where:
            self.remove(pid)
        insort(self.cpus[cpu], (key, pid, token), key=_KEY)
        self.where[pid] = cpu

    def push_back(self, cpu, pid, token):
        """FIFO push: keyed by one sequence shared by all CPUs, so the
        entry belongs at the back and the push is an append.  A queue may
        mix this with :meth:`push` only for keys below a queued one."""
        if pid in self.where:
            self.remove(pid)
        self.seq += 1
        self.cpus[cpu].append((self.seq, pid, token))
        self.where[pid] = cpu

    def remove(self, pid):
        """Unqueue ``pid`` wherever it is; its token, or None."""
        if pid not in self.where:
            return None
        queue = self.cpus[self.where.pop(pid)]
        for index, entry in enumerate(queue):
            if entry[1] == pid:
                del queue[index]
                return entry[2]

    def pop_head(self, cpu):
        """Unqueue and return the lowest-keyed entry of a non-empty CPU."""
        entry = self.cpus[cpu].pop(0)
        del self.where[entry[1]]
        return entry

    def longest_other(self, cpu):
        """The CPU other than ``cpu`` with the most entries (the lowest-
        numbered on a tie), or None when all of them are empty."""
        cpus = self.cpus
        best, waiting = None, 0
        for other in cpus:
            queue = cpus[other]
            if queue and other != cpu:
                depth = len(queue)
                if depth > waiting:
                    best, waiting = other, depth
        return best
