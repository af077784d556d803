"""The Enoki core arbiter (paper section 4.2.4).

    "We reimplemented the Arachne core arbiter as a kernel scheduler using
    Enoki.  This scheduler uses Enoki's bidirectional userspace hints.  We
    use the user-to-kernel queue to send core requests to the Enoki core
    arbiter; we use the kernel-to-userspace queue for core reclamation
    requests.  The Enoki core arbiter executes the same decisions as the
    Arachne core arbiter, but uses standard kernel scheduling mechanisms
    for assigning, moving, and blocking user scheduler activations rather
    than relying on cpuset and sockets.  The Enoki version of the core
    arbiter is implemented in 579 lines of code."

Protocol (hint payloads are plain dicts):

* ``{"type": "register", "process": name, "rev_queue": qid}`` — a runtime
  announces itself and its kernel-to-user queue.
* ``{"type": "kthread", "process": name, "core": c}`` — sent once by each
  dispatcher kernel thread so the arbiter knows which pid backs which core
  (the hint's own pid identifies the thread).
* ``{"type": "request", "process": name, "cores": n}`` — the runtime wants
  ``n`` cores total.
* ``{"type": "park", "core": c}`` — the sending kthread is about to yield
  its core back; the arbiter stops picking it until the core is granted
  again.

Grants are executed with **standard kernel scheduling mechanisms**: a
granted kthread is simply picked again (the arbiter arms a zero-delay
resched timer on the core).  Reclaims are ``{"reclaim": core}`` messages
on the process's reverse queue.
"""

from dataclasses import dataclass, field

from repro.schedulers.base import QueuePolicy
from repro.simkernel.runqueue import TokenQueue


@dataclass
class _ProcessState:
    name: str
    rev_queue: int = -1
    requested: int = 1
    kthreads: dict = field(default_factory=dict)   # core -> pid
    granted: set = field(default_factory=set)      # cores currently granted


@dataclass
class ArbiterTransferState:
    """State passed across a live upgrade of the arbiter."""

    processes: dict
    parked: dict
    queues: TokenQueue
    generation: int


class EnokiCoreArbiter(QueuePolicy):
    """Two-level scheduling: processes request cores, the arbiter grants
    them by scheduling (or refusing to schedule) dispatcher kthreads."""

    TRANSFER_TYPE = ArbiterTransferState
    LOCK_NAME = "arbiter-state"

    def __init__(self, nr_cpus, policy=11, managed_cores=None):
        super().__init__(nr_cpus, policy)
        self.managed_cores = (set(managed_cores) if managed_cores is not None
                              else set(range(nr_cpus)))
        self.processes = {}        # name -> _ProcessState
        self.process_of_pid = {}   # pid -> process name
        self.core_of_pid = {}      # pid -> core
        self.parked = {}           # pid -> Schedulable (held while parked)
        self.queues = TokenQueue(nr_cpus)   # per-core FIFO

    # ------------------------------------------------------------------
    # hints: the arbiter protocol
    # ------------------------------------------------------------------

    def parse_hint(self, hint):
        payload = hint.payload
        if not isinstance(payload, dict):
            return
        kind = payload.get("type")
        if kind == "register":
            name = payload["process"]
            proc = self.processes.setdefault(name, _ProcessState(name))
            proc.rev_queue = payload.get("rev_queue", -1)
        elif kind == "kthread":
            name = payload["process"]
            core = payload["core"]
            proc = self.processes.setdefault(name, _ProcessState(name))
            proc.kthreads[core] = hint.pid
            self.process_of_pid[hint.pid] = name
            self.core_of_pid[hint.pid] = core
            proc.granted.add(core)
        elif kind == "request":
            name = payload["process"]
            proc = self.processes.setdefault(name, _ProcessState(name))
            proc.requested = int(payload["cores"])
            self._rebalance()
        elif kind == "park":
            # The sender will yield; mark it parked-on-yield.
            pid = hint.pid
            core = self.core_of_pid.get(pid)
            name = self.process_of_pid.get(pid)
            if core is not None and name is not None:
                self.processes[name].granted.discard(core)
            self.parked[pid] = None   # token captured at the yield
            self._rebalance()

    # ------------------------------------------------------------------
    # core allocation policy
    # ------------------------------------------------------------------

    def _cores_in_use(self):
        used = set()
        for proc in self.processes.values():
            used |= proc.granted
        return used

    def _rebalance(self):
        """Grant free cores to under-served processes; reclaim extras."""
        free = set(self.managed_cores) - self._cores_in_use()
        for proc in self.processes.values():
            while len(proc.granted) < proc.requested:
                candidate = None
                for core in sorted(proc.kthreads):
                    if core in free and core not in proc.granted:
                        candidate = core
                        break
                if candidate is None:
                    break
                free.discard(candidate)
                self._grant(proc, candidate)
            # Over-served process with someone else starving: reclaim.
            if len(proc.granted) > proc.requested:
                extras = len(proc.granted) - proc.requested
                for core in sorted(proc.granted, reverse=True)[:extras]:
                    self._reclaim(proc, core)

    def _grant(self, proc, core):
        pid = proc.kthreads.get(core)
        if pid is None:
            return
        proc.granted.add(core)
        if pid in self.parked:
            token = self.parked.pop(pid)
            if token is not None:
                self._enqueue(core, pid, token)
            # Standard kernel scheduling mechanism: just get the core to
            # run its pick path again.
            self.env.start_resched_timer(core, 0)
        if proc.rev_queue >= 0:
            self.env.send_rev_message(proc.rev_queue, {"grant": core})

    def _reclaim(self, proc, core):
        if proc.rev_queue >= 0:
            self.env.send_rev_message(proc.rev_queue, {"reclaim": core})

    # ------------------------------------------------------------------
    # scheduler state tracking
    # ------------------------------------------------------------------

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        # Dispatcher kthreads are pinned; honor the mask.
        if allowed_cpus:
            return min(allowed_cpus)
        return prev_cpu if prev_cpu >= 0 else 0

    def _enqueue(self, cpu, pid, sched):
        if pid in self.parked:
            # Parked kthread: hold the token, do not queue it for pick.
            self.parked[pid] = sched
        else:
            super()._enqueue(cpu, pid, sched)

    def task_dead(self, pid):
        with self.lock:
            self.queues.remove(pid)
            self.parked.pop(pid, None)
            name = self.process_of_pid.pop(pid, None)
            core = self.core_of_pid.pop(pid, None)
            if name is not None and core is not None:
                proc = self.processes.get(name)
                if proc is not None:
                    proc.kthreads.pop(core, None)
                    proc.granted.discard(core)

    def task_departed(self, pid, cpu_seqnum, cpu, from_switchto,
                      was_current):
        with self.lock:
            token = self.queues.remove(pid)
            if token is None:
                token = self.parked.pop(pid, None)
            return token

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            queue = self.queues.cpus[cpu]
            while queue:
                _seq, pid, token = self.queues.pop_head(cpu)
                if pid in self.parked:
                    self.parked[pid] = token
                    continue
                return token
        return None

    # ------------------------------------------------------------------
    # live upgrade
    # ------------------------------------------------------------------

    def transfer_adopted(self):
        for proc in self.processes.values():
            for core, pid in proc.kthreads.items():
                self.process_of_pid[pid] = proc.name
                self.core_of_pid[pid] = core
