"""The Enoki locality-aware scheduler (paper section 4.2.3).

    "We also implemented a locality aware scheduler using Enoki that
    co-locates tasks that communicate heavily with each other or benefit
    from cache sharing.  This scheduler uses Enoki's userspace hinting
    mechanism ... The application sends the ID of each newly created
    thread and a locality value to indicate which tasks should be
    co-located.  ... these hints do not need to specify the core for each
    task, only its colocation, which the scheduler can ignore if
    non-optimal, such as when there are too many tasks on a given core.
    This scheduler was implemented in 203 lines."

Hints are dictionaries ``{"tid": pid, "locality": value}``.  Each distinct
locality value is bound to a core (round robin over the managed CPUs); a
hinted task is then always placed on its group's core unless that core is
overloaded.  With ``mode="random"`` the scheduler ignores hints and places
tasks uniformly at random — the paper's no-hints baseline for Table 6.
"""

import random
from dataclasses import dataclass

from repro.schedulers.fifo import EnokiFifo
from repro.simkernel.runqueue import TokenQueue


@dataclass
class LocalityTransferState:
    """State passed across a live upgrade of the locality scheduler."""

    queues: TokenQueue
    current: dict
    group_of: dict
    core_of_group: dict
    _next_group_core: int
    hints_seen: int
    rng: random.Random
    generation: int


class EnokiLocality(EnokiFifo):
    """Hint-driven co-location over the FIFO scheduler's per-core queues:
    enqueueing and migration are inherited, placement, the running-task
    map and stealing are not."""

    TRANSFER_TYPE = LocalityTransferState
    LOCK_NAME = "locality-state"

    #: refuse to co-locate onto a core already holding this many tasks
    OVERLOAD_THRESHOLD = 8

    def __init__(self, nr_cpus, policy=9, mode="hints", seed=1):
        super().__init__(nr_cpus, policy)
        if mode not in ("hints", "random"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.rng = random.Random(seed)
        self.current = {}          # cpu -> running pid
        self.group_of = {}         # pid -> locality value
        self.core_of_group = {}    # locality value -> cpu
        self._next_group_core = 0
        self.hints_seen = 0

    # ------------------------------------------------------------------
    # hints
    # ------------------------------------------------------------------

    def parse_hint(self, hint):
        """Bind a thread to a locality group; bind new groups to cores."""
        payload = hint.payload
        if not isinstance(payload, dict):
            return
        tid = payload.get("tid")
        if tid is None:
            tid = hint.pid   # "co-locate me"
        group = payload.get("locality")
        if group is None:
            return
        with self.lock:
            self.hints_seen += 1
            self.group_of[tid] = group
            if group not in self.core_of_group:
                self.core_of_group[group] = \
                    self._next_group_core % self.nr_cpus
                self._next_group_core += 1

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _group_core(self, pid, allowed_cpus):
        group = self.group_of.get(pid)
        if group is None:
            return None
        core = self.core_of_group.get(group)
        if core is None:
            return None
        if allowed_cpus is not None and core not in allowed_cpus:
            return None
        # Co-location is advisory: skip it when the core is overloaded.
        load = (len(self.queues.cpus[core])
                + (1 if core in self.current else 0))
        if load >= self.OVERLOAD_THRESHOLD:
            return None
        return core

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = (list(allowed_cpus) if allowed_cpus is not None
                      else list(range(self.nr_cpus)))
        with self.lock:
            if self.mode == "random":
                return self.rng.choice(candidates)
            core = self._group_core(pid, allowed_cpus)
            if core is not None:
                return core
            queues = self.queues.cpus
            return min(candidates,
                       key=lambda c: (len(queues[c])
                                      + (1 if c in self.current else 0)))

    # ------------------------------------------------------------------
    # per-core FIFO state, plus who is running where
    # ------------------------------------------------------------------

    def task_blocked(self, pid, runtime, cpu_seqnum, cpu, from_switchto):
        with self.lock:
            self.queues.remove(pid)
            if self.current.get(cpu) == pid:
                del self.current[cpu]

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        with self.lock:
            if self.current.get(cpu) == pid:
                del self.current[cpu]
            self._enqueue(sched.cpu, pid, sched)

    def task_dead(self, pid):
        with self.lock:
            self.queues.remove(pid)
            self.group_of.pop(pid, None)
            for cpu, running in list(self.current.items()):
                if running == pid:
                    del self.current[cpu]

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            if self.queues.cpus[cpu]:
                _seq, pid, token = self.queues.pop_head(cpu)
                self.current[cpu] = pid
                return token
        return None

    def balance(self, cpu):
        # Locality beats work conservation for hinted groups; only pull
        # from cores whose queue holds unhinted overflow work.
        with self.lock:
            if self.queues.cpus[cpu]:
                return None
            for other, queue in self.queues.cpus.items():
                if other == cpu:
                    continue
                for _seq, pid, _token in queue:
                    if self.group_of.get(pid) is None:
                        return pid
        return None
