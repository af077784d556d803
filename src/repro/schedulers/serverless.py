"""The Enoki serverless scheduler (scx_serverless-style).

Design ported from the ``scx_serverless`` idea (SNIPPETS.md §1-2):
identify short-lived FaaS invocations and run them to completion with
minimal interruption, while heavy work is pushed to a fair backing
queue so it cannot ruin the short tail.

Classification is a per-wake-episode state machine:

* every task starts (and restarts after each block) as **SHORT** —
  optimistic, because FaaS workers serve a new invocation per wake;
* a SHORT task whose observed episode runtime crosses
  ``promote_threshold_us`` is **demoted to LONG** — the misclassification
  path: the pick-time guard timer fires at exactly the threshold, so a
  long job masquerading as short runs at most one threshold's worth
  before it lands in the backing queue;
* a hint (``{"expected_ns": ...}`` on the Enoki hint ring) classifies
  immediately — the declared-duration fast path: declared-long tasks
  skip the trial run entirely (a queued one moves to the backing queue
  on the spot; a running one is rescheduled off the CPU).

Two queue tiers per CPU:

* **short**: FCFS by global sequence number (Shinjuku idiom).  A short
  pick arms the resched timer at the promotion threshold only, so a
  genuine short invocation is never interrupted — run to completion;
* **long**: sorted by vruntime (WFQ idiom, unweighted), picked when no
  short work exists or every ``long_every``-th pick as anti-starvation.

A SHORT wakeup onto a CPU running a LONG task preempts it immediately;
that plus run-to-completion shorts is where the p99 win over fairness
schedulers comes from.
"""

from dataclasses import dataclass

from repro.schedulers.base import QueuePolicy, TokenQueue

SHORT = 0
LONG = 1


def _fresh_counters():
    return {
        "demotions": 0,          # observed-runtime promotions to LONG
        "hint_short": 0,         # hints declaring a short duration
        "hint_long": 0,          # hints declaring a long duration
        "short_picks": 0,
        "long_picks": 0,
        "wakeup_preempts": 0,    # LONG kicked off-CPU by a SHORT wakeup
    }


@dataclass
class ServerlessTransferState:
    """State passed across a live upgrade of the serverless scheduler."""

    short_queues: TokenQueue
    long_queues: TokenQueue
    classes: dict
    episode_base: dict
    vruntime: dict
    last_runtime: dict
    min_vruntime: dict
    current: dict
    shorts_streak: dict
    counters: dict
    generation: int


class EnokiServerless(QueuePolicy):
    """Short-FaaS-first two-tier scheduler with runtime classification."""

    TRANSFER_TYPE = ServerlessTransferState
    LOCK_NAME = "serverless-state"

    #: Opt out of the kernel's tick-driven wakeup preemption: shorts run
    #: to completion, and the module's own resched timers handle the one
    #: case that must preempt (a SHORT waking over a running LONG).
    WAKEUP_PREEMPT = None

    def __init__(self, nr_cpus, policy=9, promote_threshold_us=1_000,
                 long_slice_us=1_000, long_every=8):
        super().__init__(nr_cpus, policy)
        self.promote_threshold_ns = promote_threshold_us * 1_000
        self.long_slice_ns = long_slice_us * 1_000
        #: anti-starvation: serve a LONG after this many SHORT picks
        self.long_every = long_every
        # FCFS by one arrival sequence over all CPUs
        self.short_queues = TokenQueue(nr_cpus)
        # keyed by vruntime at push time: it accrues only while a LONG
        # task runs, so it cannot change under a queued entry
        self.long_queues = TokenQueue(nr_cpus)
        self.classes = {}        # pid -> SHORT/LONG (absent = SHORT)
        self.episode_base = {}   # pid -> runtime at wake-episode start
        self.vruntime = {}       # pid -> accumulated LONG-class runtime
        self.last_runtime = {}   # pid -> last raw runtime seen
        self.min_vruntime = {cpu: 0 for cpu in range(nr_cpus)}
        self.current = {}        # cpu -> (pid, class at pick)
        self.shorts_streak = {cpu: 0 for cpu in range(nr_cpus)}
        self.counters = _fresh_counters()

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    def _observe(self, pid, runtime):
        """Fold a kernel-reported cumulative runtime into our view."""
        last = self.last_runtime.get(pid, runtime)
        self.last_runtime[pid] = runtime
        delta = runtime - last
        if delta > 0 and self.classes.get(pid, SHORT) == LONG:
            self.vruntime[pid] = self.vruntime.get(pid, 0) + delta

    def _episode_ns(self, pid, runtime):
        return runtime - self.episode_base.get(pid, 0)

    def _insert(self, cpu, pid, token):
        """Queue ``pid`` on ``cpu`` according to its current class."""
        if self.classes.get(pid, SHORT) == LONG:
            vruntime = self.vruntime[pid] = max(self.vruntime.get(pid, 0),
                                                self.min_vruntime[cpu])
            self.long_queues.push(cpu, vruntime, pid, token)
        else:
            self.short_queues.push_back(cpu, pid, token)

    def _remove(self, pid):
        """Unqueue ``pid`` from whichever tier holds it."""
        short_token = self.short_queues.remove(pid)
        long_token = self.long_queues.remove(pid)
        return long_token if long_token is not None else short_token

    def _demote(self, pid):
        self.classes[pid] = LONG
        self.counters["demotions"] += 1

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _load(self, cpu):
        return (len(self.short_queues.cpus[cpu])
                + len(self.long_queues.cpus[cpu])
                + (1 if cpu in self.current else 0))

    def select_task_rq(self, pid, prev_cpu, waker_cpu, wake_flags,
                       allowed_cpus):
        candidates = (list(allowed_cpus) if allowed_cpus is not None
                      else list(range(self.nr_cpus)))
        with self.lock:
            if prev_cpu in candidates and self._load(prev_cpu) == 0:
                return prev_cpu
            return min(candidates, key=lambda c: (self._load(c), c))

    # ------------------------------------------------------------------
    # task state tracking
    # ------------------------------------------------------------------

    def task_new(self, pid, tgid, runtime, runnable, prio, sched):
        with self.lock:
            self.last_runtime[pid] = runtime
            self.episode_base[pid] = runtime
            self._insert(sched.cpu, pid, sched)

    def task_wakeup(self, pid, agent_data, deferrable, last_run_cpu,
                    wake_up_cpu, waker_cpu, sched):
        with self.lock:
            cpu = sched.cpu
            self.episode_base[pid] = self.last_runtime.get(pid, 0)
            cls = self.classes.get(pid, SHORT)
            self._insert(cpu, pid, sched)
            running = self.current.get(cpu)
            preempt = (cls == SHORT and running is not None
                       and running[1] == LONG)
            if preempt:
                self.counters["wakeup_preempts"] += 1
        if preempt:
            # A short invocation never waits behind a long job: kick the
            # long off the CPU now, it re-queues behind its vruntime.
            self.env.start_resched_timer(cpu, 0)

    def task_blocked(self, pid, runtime, cpu_seqnum, cpu, from_switchto):
        with self.lock:
            self._observe(pid, runtime)
            self._remove(pid)
            self.current.pop(cpu, None)
            # End of the wake episode: classification resets to the
            # optimistic default — the next wake may serve a different
            # (short) invocation on the same worker task.
            self.classes.pop(pid, None)

    def task_preempt(self, pid, runtime, cpu_seqnum, cpu, from_switchto,
                     was_latched, sched):
        with self.lock:
            self._observe(pid, runtime)
            self.current.pop(cpu, None)
            if (self.classes.get(pid, SHORT) == SHORT
                    and self._episode_ns(pid, runtime)
                    >= self.promote_threshold_ns):
                # Misclassified: it called itself short (or said nothing)
                # and outran the trial slice.
                self._demote(pid)
            self._insert(sched.cpu, pid, sched)

    def task_dead(self, pid):
        with self.lock:
            self._remove(pid)
            self._forget(pid)
            for cpu, (cur, _cls) in list(self.current.items()):
                if cur == pid:
                    del self.current[cpu]

    def task_departed(self, pid, cpu_seqnum, cpu, from_switchto,
                      was_current):
        with self.lock:
            token = self._remove(pid)
            self._forget(pid)
        return token

    def _forget(self, pid):
        self.classes.pop(pid, None)
        self.episode_base.pop(pid, None)
        self.vruntime.pop(pid, None)
        self.last_runtime.pop(pid, None)

    def migrate_task_rq(self, pid, new_cpu, sched):
        with self.lock:
            old_token = self._remove(pid)
            self._insert(new_cpu, pid, sched)
        return old_token

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu, curr_pid, curr_runtime, runtimes):
        with self.lock:
            for pid, runtime in runtimes.items():
                self._observe(pid, runtime)
            shortq = self.short_queues.cpus[cpu]
            longq = self.long_queues.cpus[cpu]
            take_long = longq and (
                not shortq
                or self.shorts_streak[cpu] >= self.long_every)
            if take_long:
                vruntime, pid, token = self.long_queues.pop_head(cpu)
                self.shorts_streak[cpu] = 0
                self.min_vruntime[cpu] = max(self.min_vruntime[cpu],
                                             vruntime)
                self.current[cpu] = (pid, LONG)
                self.counters["long_picks"] += 1
                slice_ns = self.long_slice_ns
            elif shortq:
                _seq, pid, token = self.short_queues.pop_head(cpu)
                self.shorts_streak[cpu] += 1
                self.current[cpu] = (pid, self.classes.get(pid, SHORT))
                self.counters["short_picks"] += 1
                # The guard timer *is* the classifier: a genuine short
                # finishes before it fires (zero interruptions), a
                # misclassified long is preempted and demoted by it.
                slice_ns = self.promote_threshold_ns
            else:
                return None
        self.env.start_resched_timer(cpu, slice_ns)
        return token

    def pnt_err(self, cpu, pid, err, sched):
        if sched is not None:
            with self.lock:
                self._remove(sched.pid)

    def balance(self, cpu):
        """Idle CPUs steal waiting shorts first, then backing-queue work."""
        with self.lock:
            if self.short_queues.cpus[cpu] or self.long_queues.cpus[cpu]:
                return None
            for tier in (self.short_queues, self.long_queues):
                best = tier.longest_other(cpu)
                if best is not None:
                    return tier.cpus[best][0][1]
            return None

    def balance_err(self, cpu, pid, err, sched):
        pass

    def task_tick(self, cpu, queued, pid, runtime):
        if pid is None:
            return
        with self.lock:
            self._observe(pid, runtime)
            running = self.current.get(cpu)
            if running is None or running[0] != pid or not queued:
                return
            # Backup demotion path for when the guard timer was replaced
            # (e.g. by a wakeup preemption on another class's behalf).
            preempt = (self.classes.get(pid, SHORT) == SHORT
                       and self._episode_ns(pid, runtime)
                       >= self.promote_threshold_ns)
        if preempt:
            self.env.start_resched_timer(cpu, 0)

    # ------------------------------------------------------------------
    # hints: the declared-duration fast path
    # ------------------------------------------------------------------

    def parse_hint(self, hint):
        payload = hint.payload
        if not isinstance(payload, dict):
            return
        expected = payload.get("expected_ns")
        if not isinstance(expected, int) or hint.pid is None:
            return
        pid = hint.pid
        kick_cpu = None
        with self.lock:
            if expected >= self.promote_threshold_ns:
                self.counters["hint_long"] += 1
                already_long = self.classes.get(pid, SHORT) == LONG
                self.classes[pid] = LONG
                if not already_long:
                    for cpu, (cur, _cls) in self.current.items():
                        if cur == pid:
                            # Declared-long while running: reschedule it
                            # off the CPU, the preempt path re-queues it
                            # into the backing queue.
                            self.current[cpu] = (pid, LONG)
                            kick_cpu = cpu
                            break
                    else:
                        token = self._remove(pid)
                        if token is not None:
                            self._insert(token.cpu, pid, token)
            else:
                self.counters["hint_short"] += 1
                self.classes[pid] = SHORT
        if kick_cpu is not None:
            self.env.start_resched_timer(kick_cpu, 0)

    # ------------------------------------------------------------------
    # live upgrade
    # ------------------------------------------------------------------

    def transfer_adopted(self):
        for cpu in range(self.nr_cpus):
            self.min_vruntime.setdefault(cpu, 0)
            self.shorts_streak.setdefault(cpu, 0)
