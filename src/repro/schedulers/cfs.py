"""A native model of Linux's Completely Fair Scheduler.

This is the baseline the paper compares every Enoki scheduler against
(section 4.2.1 describes the behaviours modelled here):

* per-core run queues ordered by **vruntime**, the weighted accumulated
  runtime; the task/group with the lowest vruntime runs next;
* vruntime accrues inversely to priority weight (nice levels);
* newly woken tasks get ``max(old vruntime, min_vruntime - threshold)`` so
  sleepers do not hoard runtime debt;
* a woken task with lower vruntime than the current task preempts it when
  the system timer ticks;
* every task runs once per scheduling period (min 6 ms, stretched by task
  count), with a 750 us minimum granularity — the "750 us before being
  preempted by default" the paper cites in section 5.4;
* wake placement prefers the waker's LLC and idle siblings; periodic and
  new-idle balancing even out run-queue lengths, crossing NUMA boundaries
  only past an imbalance threshold.

This class is trusted kernel code (it implements the raw ``SchedClass``
interface); it exists so the Enoki schedulers have an honest CFS to race.
"""

from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.sched_class import SchedClass, WF_FORK, WF_SYNC
from repro.simkernel.task import NICE_0_WEIGHT


class _CfsRq:
    """One core's fair-queue state beside its entries in the shared
    queue: ``queued`` is that CPU's list of ``((vruntime, pid), pid,
    None)``, leftmost first — the queue's own list object, which it only
    ever changes in place.  ``gen`` is bumped whenever a task is queued
    here, a CFS task leaves the CPU or one of them changes weight, so it
    names the set of CFS tasks on the CPU and their weights;
    ``slice_ns`` is the last time slice, valid under ``slice_key``."""

    __slots__ = ("queued", "min_vruntime", "curr_pid", "curr_start_runtime",
                 "gen", "slice_key", "slice_ns")

    def __init__(self, queued):
        self.queued = queued
        self.min_vruntime = 0
        self.curr_pid = None
        self.curr_start_runtime = 0
        self.gen = 0
        self.slice_key = None
        self.slice_ns = 0


class CfsSchedClass(SchedClass):
    """The CFS baseline, with task-group fairness.

    Group scheduling — "dividing CPU time proportionally between groups
    of tasks, and then within each group" (paper section 4.2.1) — comes
    from the kernel's group hierarchy (``kernel.groups``): a task accrues
    vruntime at the rate of its hierarchical *effective* weight, so a
    group's tasks collectively receive the group's share however many of
    them are runnable.  With every task in the root group this reduces
    exactly to plain per-task weighting.

    Entries are keyed ``(vruntime, pid)``: equal vruntimes order by pid.
    """

    name = "cfs"

    def __init__(self, policy=0):
        super().__init__()
        self.policy = policy
        self.queues = None
        self._rqs = None
        self._last_periodic_balance = None

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        nr_cpus = kernel.topology.nr_cpus
        self.queues = TokenQueue(nr_cpus)
        self._rqs = [_CfsRq(queued) for queued in self.queues.cpus.values()]
        self._last_periodic_balance = [0] * nr_cpus

    def _enqueue(self, task, cpu):
        self._rqs[cpu].gen += 1
        self.queues.push(cpu, (task.vruntime, task.pid), task.pid, None)

    # ------------------------------------------------------------------
    # vruntime accounting
    # ------------------------------------------------------------------

    def update_curr(self, task, delta_ns):
        weight = task.weight
        if task.group is not None:
            # Hierarchical weight: the memo holds while the task's CPU,
            # that CPU's runnable index and its own weight all do.
            cpu = task.cpu
            groups = self.kernel.groups
            if task.eff_weight_key == (cpu, groups.index_gen[cpu], weight):
                weight = task.eff_weight
            else:
                weight = groups.effective_weight(task, cpu)
        task.vruntime += delta_ns * NICE_0_WEIGHT // weight
        rq = self._rqs[task.cpu]
        if rq.curr_pid == task.pid:
            floor = task.vruntime
            queued = rq.queued
            if queued and queued[0][0][0] < floor:
                floor = queued[0][0][0]
            if floor > rq.min_vruntime:
                rq.min_vruntime = floor

    def _sched_period(self, nr_running):
        cfg = self.kernel.config
        if nr_running > cfg.sched_latency_ns // cfg.sched_min_granularity_ns:
            return nr_running * cfg.sched_min_granularity_ns
        return cfg.sched_latency_ns

    def _slice_for(self, task, cpu):
        """The time slice of ``task``, the CPU's current task."""
        kernel = self.kernel
        krq = kernel.rqs[cpu]
        rq = self._rqs[cpu]
        groups = kernel.groups
        index_gen = groups.index_gen
        # Memoised: the re-sum reads this CPU's runnable index (a queued
        # entity's ``cpu`` is always the queue's), CFS's tasks on the CPU
        # and their weights (``rq.gen``), and how many tasks it holds.
        key = (index_gen[cpu], rq.gen, krq.nr_queued, task.pid)
        if rq.slice_key == key:
            return rq.slice_ns
        # ``_sched_period`` of the queued tasks and the current one.
        cfg = kernel.config
        nr_running = krq.nr_queued + 1
        if nr_running > cfg.sched_latency_ns // cfg.sched_min_granularity_ns:
            period = nr_running * cfg.sched_min_granularity_ns
        else:
            period = cfg.sched_latency_ns
        tasks = kernel.tasks
        my_weight = total_weight = 0
        # The ticking task, then every task CFS queues on this CPU.
        for _key, pid, _ in ((None, task.pid, None), *rq.queued):
            entity = tasks[pid]
            weight = entity.weight
            if entity.group is not None:
                at = entity.cpu
                if entity.eff_weight_key == (at, index_gen[at], weight):
                    weight = entity.eff_weight
                else:
                    weight = groups.effective_weight(entity, at)
            if entity is task:
                my_weight = weight
            total_weight += weight
        # Every weight is at least 1, so ``total_weight`` is too.
        share = period * my_weight // total_weight
        floor = cfg.sched_min_granularity_ns
        rq.slice_key = key
        rq.slice_ns = share if share > floor else floor
        return rq.slice_ns

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        topo = self.kernel.topology
        allowed = [c for c in topo.all_cpus() if task.can_run_on(c)]
        if not allowed:
            return prev_cpu
        if len(allowed) == 1:
            return allowed[0]
        if wake_flags & WF_FORK:
            return self._find_idlest(allowed)
        if prev_cpu < 0 or prev_cpu >= topo.nr_cpus:
            prev_cpu = allowed[0]

        if (wake_flags & WF_SYNC and 0 <= waker_cpu < topo.nr_cpus
                and task.can_run_on(waker_cpu)):
            # Synchronous wakeup: the waker promises to sleep; co-locate.
            if self.kernel.rqs[waker_cpu].nr_queued == 0:
                return waker_cpu

        # Fast path: prev_cpu if idle (cache affinity).
        if task.can_run_on(prev_cpu) and self._is_idle(prev_cpu):
            return prev_cpu
        # Look for an idle CPU in the previous LLC, then the whole machine.
        home_llc = topo.llc_of(prev_cpu if task.can_run_on(prev_cpu)
                               else allowed[0])
        for cpu in topo.llc_members(home_llc):
            if task.can_run_on(cpu) and self._is_idle(cpu):
                return cpu
        for cpu in allowed:
            if self._is_idle(cpu):
                return cpu
        # No idle CPU: least-loaded allowed CPU, preferring the home LLC.
        def load_key(cpu):
            distance = topo.distance(prev_cpu, cpu)
            return (self.kernel.rqs[cpu].load_weight(), distance)

        return min(allowed, key=load_key)

    def _is_idle(self, cpu):
        rq = self.kernel.rqs[cpu]
        return rq.current is None and rq.nr_queued == 0

    def _find_idlest(self, allowed):
        def key(cpu):
            rq = self.kernel.rqs[cpu]
            return (rq.nr_running, rq.load_weight())

        return min(allowed, key=key)

    # ------------------------------------------------------------------
    # state tracking
    # ------------------------------------------------------------------

    def task_new(self, task, cpu):
        rq = self._rqs[cpu]
        # New tasks start at the end of the current period.
        task.vruntime = max(task.vruntime, rq.min_vruntime)
        task.vruntime += (self._sched_period(self.kernel.rqs[cpu].nr_running)
                          * NICE_0_WEIGHT // task.weight
                          // max(1, self.kernel.rqs[cpu].nr_running))
        self._enqueue(task, cpu)

    def task_wakeup(self, task, cpu):
        rq = self._rqs[cpu]
        # place_entity: don't let sleepers bank unbounded credit.
        floor = rq.min_vruntime - self.kernel.config.sched_latency_ns // 2
        if task.vruntime < floor:
            task.vruntime = floor
        self._enqueue(task, cpu)

    def task_blocked(self, task, cpu):
        rq = self._rqs[cpu]
        rq.gen += 1
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        else:
            self.queues.remove(task.pid)

    def task_yield(self, task, cpu):
        # yield_task_fair: skip ahead of nothing, just requeue.
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        if rq.queued:
            task.vruntime = max(task.vruntime, rq.queued[-1][0][0])
        self._enqueue(task, cpu)

    def task_preempt(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        self._enqueue(task, cpu)

    def task_dead(self, pid):
        for rq in self._rqs:
            rq.gen += 1     # whichever CPU the task was on
            if rq.curr_pid == pid:
                rq.curr_pid = None
        self.queues.remove(pid)

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def task_prio_changed(self, task, cpu):
        # Weight changed: vruntime accrual adjusts by itself, the slice
        # memo does not.
        self._rqs[cpu].gen += 1

    def migrate_task_rq(self, task, new_cpu):
        # Re-home the vruntime: subtract the old queue's baseline, add the
        # new one's, as migrate_task_rq_fair does.  (The kernel's group
        # runnable index re-homes itself in try_migrate.)  The push
        # replaces the old entry.
        new_rq = self._rqs[new_cpu]
        old_cpu = self.queues.where.get(task.pid, new_cpu)
        self._rqs[old_cpu].gen += 1
        if old_cpu != new_cpu:
            task.vruntime += (new_rq.min_vruntime
                              - self._rqs[old_cpu].min_vruntime)
        else:
            task.vruntime = max(task.vruntime, new_rq.min_vruntime)
        self._enqueue(task, new_cpu)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu):
        rq = self._rqs[cpu]
        queued = rq.queued
        if not queued:
            return None
        _key, pid, _token = self.queues.pop_head(cpu)
        task = self.kernel.tasks[pid]
        rq.curr_pid = pid
        rq.curr_start_runtime = task.sum_exec_runtime_ns
        floor = task.vruntime
        if queued and queued[0][0][0] < floor:
            floor = queued[0][0][0]
        if floor > rq.min_vruntime:
            rq.min_vruntime = floor
        return pid

    def balance(self, cpu):
        """New-idle balance: pull from the busiest CPU when going idle."""
        if self._rqs[cpu].queued or self.kernel.rqs[cpu].nr_running:
            return None
        # Nothing queued anywhere means nothing to pull: skip the topology
        # scan entirely (this runs on every pick while CFS is idle).
        if not self.queues.where:
            return None
        # New-idle balance must not rip cache-hot tasks off their CPU
        # (can_migrate_task's task_hot check); periodic balance may.
        return self._find_pull_candidate(cpu, allow_hot=False)

    def _find_pull_candidate(self, cpu, allow_hot=True):
        topo = self.kernel.topology
        cfg = self.kernel.config
        best_pid = None
        best_load = 1   # require at least one waiting task
        for scope, threshold in (
            (topo.siblings_in_llc(cpu), 1),
            (topo.all_cpus(), cfg.numa_imbalance_threshold),
        ):
            for other in scope:
                if other == cpu:
                    continue
                waiting = len(self._rqs[other].queued)
                if waiting < threshold or waiting <= best_load - 1:
                    continue
                pid = self._steal_candidate(other, cpu, allow_hot)
                if pid is not None:
                    best_pid = pid
                    best_load = waiting
            if best_pid is not None:
                return best_pid
        return best_pid

    def _steal_candidate(self, src_cpu, dst_cpu, allow_hot=True):
        """Pick a pullable task from src: prefer cache-cold tasks."""
        cfg = self.kernel.config
        now = self.kernel.clock.now
        fallback = None
        for _key, pid, _ in reversed(self._rqs[src_cpu].queued):
            task = self.kernel.tasks[pid]
            if not task.can_run_on(dst_cpu):
                continue
            if fallback is None:
                fallback = pid
            if now - task.last_ran_ns >= cfg.sched_migration_cost_ns:
                return pid
        return fallback if allow_hot else None

    def task_tick(self, cpu, task):
        if task is None:
            return
        kernel = self.kernel
        rq = self._rqs[cpu]
        queued = rq.queued
        # Time-slice check.
        ran = task.sum_exec_runtime_ns - rq.curr_start_runtime
        if queued and ran >= self._slice_for(task, cpu):
            kernel.resched_cpu(cpu)
        elif queued and queued[0][0][0] < task.vruntime:
            # A lower-vruntime task is waiting (e.g. woke recently):
            # preempt at the tick, as the paper describes.
            wakeup_gran = (kernel.config.sched_wakeup_granularity_ns
                           * NICE_0_WEIGHT // task.weight)
            if task.vruntime - queued[0][0][0] > wakeup_gran:
                kernel.resched_cpu(cpu)
        # Periodic load balance.
        now = kernel.clock.now
        if (now - self._last_periodic_balance[cpu]
                >= kernel.config.balance_interval_ns):
            self._last_periodic_balance[cpu] = now
            self._periodic_balance(cpu)

    def wakeup_preempt(self, cpu, task):
        krq = self.kernel.rqs[cpu]
        if krq.current is None:
            return "now"
        gran = (self.kernel.config.sched_wakeup_granularity_ns
                * NICE_0_WEIGHT // krq.current.weight)
        if task.vruntime + gran < krq.current.vruntime:
            return "tick"
        return None

    def _periodic_balance(self, cpu):
        """Even out queue lengths: pull from the busiest CPU in scope."""
        topo = self.kernel.topology
        cfg = self.kernel.config
        rqs = self.kernel.rqs
        my_running = rqs[cpu].nr_queued + (rqs[cpu].current is not None)
        for scope, threshold in (
            (topo.siblings_in_llc(cpu), 2),
            (topo.all_cpus(), cfg.numa_imbalance_threshold + 1),
        ):
            busiest, busiest_n = None, my_running + threshold - 1
            for other in scope:
                if other == cpu:
                    continue
                n = rqs[other].nr_queued + (rqs[other].current is not None)
                if n > busiest_n:
                    busiest, busiest_n = other, n
            if busiest is None:
                continue
            pid = self._steal_candidate(busiest, cpu)
            if pid is not None:
                self.kernel.try_migrate(pid, cpu, self)
                return
