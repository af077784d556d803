"""What the hand-written Enoki policies share: one token run queue and
one policy base class.

The :class:`~repro.core.trait.EnokiScheduler` trait stays the only
contract with the framework; nothing here is visible to it.  This module
owns a data format — how a policy stores the ``Schedulable`` tokens it
has queued and finds one by pid — so that ``fifo``, ``wfq`` (and
``eevdf`` / ``nest`` over it), ``shinjuku``, ``serverless``, ``locality``
and ``arachne`` hold policy and nothing else.  The native classes queue
pids behind a different hook signature and do not use it.
"""

from bisect import insort
from dataclasses import fields
from operator import itemgetter

from repro.core.trait import EnokiScheduler

_KEY = itemgetter(0)


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

    Policies read ``cpus[cpu]`` (length, head, iteration) directly and
    change it only through the five methods below.
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
        best, waiting = None, 0
        for other, queue in self.cpus.items():
            if queue and other != cpu:
                depth = len(queue)
                if depth > waiting:
                    best, waiting = other, depth
        return best


class QueuePolicy(EnokiScheduler):
    """An Enoki scheduler whose runnable tasks wait in token queues.

    Subclasses declare ``LOCK_NAME`` and ``TRANSFER_TYPE`` — a dataclass
    whose field names are the attributes a live upgrade carries to the
    next version (``generation`` among them) — and build their queue(s)
    in ``__init__``.  ``pnt_err`` and ``task_departed`` here serve the
    policies with a single queue named ``queues``.
    """

    LOCK_NAME = None

    def __init__(self, nr_cpus, policy):
        super().__init__()
        self.nr_cpus = nr_cpus
        self.policy = policy
        #: bumped by each upgraded version
        self.generation = 1
        self.lock = None

    def module_init(self):
        self.lock = self.env.create_lock(self.LOCK_NAME)

    def get_policy(self):
        return self.policy

    def pnt_err(self, cpu, pid, err, sched):
        # Ownership of the rejected token returns to us; it is stale, so
        # all there is to do is drop our bookkeeping for its pid.
        if sched is not None:
            with self.lock:
                self.queues.remove(sched.pid)

    def task_departed(self, pid, cpu_seqnum, cpu, from_switchto,
                      was_current):
        with self.lock:
            return self.queues.remove(pid)

    # -- live upgrade: transfer by declared fields ------------------------

    def reregister_prepare(self):
        return self.TRANSFER_TYPE(**{
            f.name: getattr(self, f.name)
            for f in fields(self.TRANSFER_TYPE)})

    def reregister_init(self, state):
        if state is None:
            return
        for f in fields(state):
            value = getattr(state, f.name)
            if isinstance(value, TokenQueue):
                value.add_cpus(self.nr_cpus)
            setattr(self, f.name, value)
        self.generation += 1
        self.transfer_adopted()

    def transfer_adopted(self):
        """Every declared field now holds the outgoing version's value:
        rebuild what is derived from them."""
