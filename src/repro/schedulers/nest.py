"""A Nest-inspired Enoki scheduler: keep tasks on warm cores.

The paper's motivation section cites Nest (Lawall et al., EuroSys '22):

    "Nest improves energy efficiency for jobs with fewer tasks than cores
    by reusing warm cores rather than spreading tasks across many cold
    cores."

This scheduler demonstrates the claim that follows — "Because these
schedulers do not need to work well in all circumstances, they can
potentially be much smaller and simpler than CFS" — as an Enoki policy:

* a **primary nest** of cores absorbs all placements while it has
  capacity; cores outside the nest are left idle (and drop into deep
  C-states, which is the energy win);
* the nest grows when its cores are all busy with queued work, and
  shrinks after a core stays idle past a decay period;
* within a core, scheduling is plain vruntime WFQ (inherited).

Cold-start avoidance is directly measurable in the substrate: the deep
idle-exit penalty (``idle_exit_deep_ns``) applies exactly to the wakeups
a Nest placement avoids.  ``repro bench nest`` compares warm-core reuse
against spreading placement.
"""

from dataclasses import dataclass

from repro.schedulers.wfq import EnokiWfq, WfqTransferState


@dataclass
class NestTransferState(WfqTransferState):
    """WFQ's upgrade state plus the nest and its decay counters."""

    nest: list
    _idle_picks: dict
    expansions: int
    contractions: int


class EnokiNest(EnokiWfq):
    """Warm-core-first placement over the WFQ engine."""

    TRANSFER_TYPE = NestTransferState

    #: nest shrink: a nest core idle this long is released
    DECAY_PICKS = 64

    def __init__(self, nr_cpus, policy=12, initial_nest=1):
        super().__init__(nr_cpus, policy)
        self.nest = list(range(min(initial_nest, nr_cpus)))
        self._idle_picks = {cpu: 0 for cpu in range(nr_cpus)}
        self.expansions = 0
        self.contractions = 0

    # -- placement: the nest ----------------------------------------------

    def _nest_load(self, cpu):
        return (len(self.queues.cpus[cpu])
                + (1 if cpu in self.current else 0))

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = (set(allowed_cpus) if allowed_cpus is not None
                      else set(range(self.nr_cpus)))
        with self.lock:
            # 1. A free core inside the nest (warm!).
            for cpu in self.nest:
                if cpu in candidates and self._nest_load(cpu) == 0:
                    return cpu
            # 2. Grow the nest: claim the first eligible cold core.
            for cpu in range(self.nr_cpus):
                if cpu not in self.nest and cpu in candidates:
                    self.nest.append(cpu)
                    self._idle_picks[cpu] = 0
                    self.expansions += 1
                    return cpu
            # 3. Everything is in the nest: least-loaded eligible core.
            eligible = [c for c in self.nest if c in candidates] \
                or sorted(candidates)
            return min(eligible, key=self._nest_load)

    # -- nest decay ------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        token = super().pick_next_task(cpu, curr_pid, curr_runtime,
                                       runtimes)
        with self.lock:
            if token is None:
                self._idle_picks[cpu] = self._idle_picks.get(cpu, 0) + 1
                if (self._idle_picks[cpu] >= self.DECAY_PICKS
                        and cpu in self.nest and len(self.nest) > 1):
                    self.nest.remove(cpu)
                    self.contractions += 1
            else:
                self._idle_picks[cpu] = 0
                if cpu not in self.nest:
                    # Work landed outside the nest (migration/steal):
                    # adopt the core, it is warm now.
                    self.nest.append(cpu)
        return token

    def balance(self, cpu):
        # Only nest members steal; cold cores stay asleep.
        if cpu not in self.nest:
            return None
        return super().balance(cpu)
