"""What the hand-written Enoki policies share beyond the run-queue
format: one policy base class.

The :class:`~repro.core.trait.EnokiScheduler` trait stays the only
contract with the framework; nothing here is visible to it.  The queue
every scheduler keeps its waiting tasks in is
:class:`~repro.simkernel.runqueue.TokenQueue`; :class:`QueuePolicy` adds
the lock, the token-entry hooks over one enqueue site, the ``pnt_err`` /
``task_departed`` bookkeeping and the live upgrade by declared fields,
so that ``fifo`` (and ``locality`` over it), ``wfq`` (and ``eevdf`` /
``nest`` over it), ``shinjuku``, ``serverless`` and ``arachne`` hold
policy and nothing else.
"""

from dataclasses import fields

from repro.core.trait import EnokiScheduler
from repro.simkernel.runqueue import TokenQueue


class QueuePolicy(EnokiScheduler):
    """An Enoki scheduler whose runnable tasks wait in token queues.

    Subclasses declare ``LOCK_NAME`` and ``TRANSFER_TYPE`` — a dataclass
    whose field names are the attributes a live upgrade carries to the
    next version (``generation`` among them) — and build their queue(s)
    in ``__init__``.  The hooks here serve the policies with a single
    queue named ``queues``.

    Every hook that hands the policy a token (new, wakeup, preempt,
    yield through the trait's default, migrate) queues it through
    :meth:`_enqueue`, each inside one lock section: a policy that only
    orders its tasks differently overrides that one method.
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

    # -- the token-entry hooks: one enqueue site --------------------------

    def _enqueue(self, cpu, pid, sched):
        """Queue ``pid``'s token on ``cpu``; the lock is held.  FIFO."""
        self.queues.push_back(cpu, pid, sched)

    def task_new(self, pid, tgid, runtime, runnable, prio, sched):
        with self.lock:
            self._enqueue(sched.cpu, pid, sched)

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        with self.lock:
            self._enqueue(sched.cpu, pid, sched)

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        with self.lock:
            self._enqueue(sched.cpu, pid, sched)

    def task_blocked(self, pid, runtime, cpu_seqnum, cpu, from_switchto):
        with self.lock:
            self.queues.remove(pid)

    def task_dead(self, pid):
        with self.lock:
            self.queues.remove(pid)

    def migrate_task_rq(self, pid, new_cpu, sched):
        with self.lock:
            old_token = self.queues.remove(pid)
            self._enqueue(new_cpu, pid, sched)
        return old_token

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
