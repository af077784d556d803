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

import bisect

from repro.simkernel.sched_class import SchedClass, WF_FORK, WF_SYNC
from repro.simkernel.task import NICE_0_WEIGHT


class _CfsRq:
    """One core's fair run queue: a vruntime-ordered set of queued tasks."""

    __slots__ = ("cpu", "entries", "min_vruntime", "curr_pid",
                 "curr_start_runtime")

    def __init__(self, cpu):
        self.cpu = cpu
        self.entries = []           # sorted [(vruntime, pid)]
        self.min_vruntime = 0
        self.curr_pid = None
        self.curr_start_runtime = 0

    def insert(self, task):
        bisect.insort(self.entries, (task.vruntime, task.pid))

    def remove(self, task):
        key = (task.vruntime, task.pid)
        index = bisect.bisect_left(self.entries, key)
        if index < len(self.entries) and self.entries[index] == key:
            self.entries.pop(index)
            return True
        # vruntime may have moved since insertion; fall back to a scan.
        for i, (_vr, pid) in enumerate(self.entries):
            if pid == task.pid:
                self.entries.pop(i)
                return True
        return False

    def leftmost(self):
        return self.entries[0][1] if self.entries else None

    def __len__(self):
        return len(self.entries)


class CfsSchedClass(SchedClass):
    """The CFS baseline (with task-group fairness, see below).

    Group scheduling — "dividing CPU time proportionally between groups
    of tasks, and then within each group" (paper section 4.2.1) — is
    modelled with the flat approximation the kernel's hierarchy computes:
    a task accrues vruntime at the rate of its *effective* weight,

        eff_weight = task_weight * group_shares / group_runnable_weight

    so a group's tasks collectively receive the group's share however
    many of them are runnable.  With every task in the root group this
    reduces exactly to plain per-task weighting.
    """

    name = "cfs"

    ROOT_GROUP = "root"

    def __init__(self, policy=0):
        super().__init__()
        self.policy = policy
        self._rqs = None
        self._last_periodic_balance = None
        self.group_shares = {self.ROOT_GROUP: NICE_0_WEIGHT}
        self.group_of = {}           # pid -> group name (compat mirror)
        self._pending_shares = []    # groups created before attach

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self._rqs = [_CfsRq(c) for c in kernel.topology.all_cpus()]
        self._last_periodic_balance = [0] * kernel.topology.nr_cpus
        for name, shares in self._pending_shares:
            self._materialize_group(name, shares)
        self._pending_shares = []

    # ------------------------------------------------------------------
    # task groups (cgroup cpu.shares equivalent)
    #
    # This used to be a flat per-class approximation; it is now a thin
    # adapter over the kernel's real hierarchy (kernel.groups), keeping
    # the old keyword API.  ``shares`` maps to the group's weight.
    # ------------------------------------------------------------------

    def create_group(self, name, shares=NICE_0_WEIGHT):
        """Create a task group with the given cpu.shares weight."""
        if shares <= 0:
            raise ValueError(f"group shares must be positive: {shares}")
        self.group_shares[name] = shares
        if self.kernel is None:
            self._pending_shares.append((name, shares))
        else:
            self._materialize_group(name, shares)

    def _materialize_group(self, name, shares):
        groups = self.kernel.groups
        if not groups.has(name):
            groups.create(name, weight=shares, policy=self.policy)

    def spawn_in_group(self, prog, group, **spawn_kwargs):
        """Spawn a task directly into a group (fork into a cgroup)."""
        if group not in self.group_shares:
            raise ValueError(f"unknown group {group!r}")
        spawn_group = group if group != self.ROOT_GROUP else None
        task = self.kernel.spawn(prog, policy=self.policy,
                                 group=spawn_group, **spawn_kwargs)
        self.group_of[task.pid] = group
        return task

    @property
    def _group_weight(self):
        """Per-cpu ``{group: runnable weight}`` (compat view over the
        hierarchy's runnable index; tests introspect this)."""
        kernel = self.kernel
        per_cpu = [dict() for _ in kernel.topology.all_cpus()]
        for group in kernel.groups.all_groups():
            if group.parent is None:
                continue
            for cpu, weight in enumerate(group.task_weight):
                if weight:
                    per_cpu[cpu][group.name] = weight
        return per_cpu

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
            if rq.entries and rq.entries[0][0] < floor:
                floor = rq.entries[0][0]
            if floor > rq.min_vruntime:
                rq.min_vruntime = floor

    def _sched_period(self, nr_running):
        cfg = self.kernel.config
        if nr_running > cfg.sched_latency_ns // cfg.sched_min_granularity_ns:
            return nr_running * cfg.sched_min_granularity_ns
        return cfg.sched_latency_ns

    def _slice_for(self, task, cpu):
        kernel = self.kernel
        krq = kernel.rqs[cpu]
        period = self._sched_period(
            max(1, len(krq.queued) + (krq.current is not None)))
        tasks = kernel.tasks
        groups = kernel.groups
        index_gen = groups.index_gen
        my_weight = total_weight = 0
        for entity in [task] + [tasks[pid]
                                for _vr, pid in self._rqs[cpu].entries]:
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
        share = period * my_weight // max(1, total_weight)
        return max(kernel.config.sched_min_granularity_ns, share)

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
        rq.insert(task)

    def task_wakeup(self, task, cpu):
        rq = self._rqs[cpu]
        # place_entity: don't let sleepers bank unbounded credit.
        threshold = self.kernel.config.sched_latency_ns // 2
        task.vruntime = max(task.vruntime, rq.min_vruntime - threshold)
        rq.insert(task)

    def task_blocked(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        else:
            rq.remove(task)

    def task_yield(self, task, cpu):
        # yield_task_fair: skip ahead of nothing, just requeue.
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        if rq.entries:
            task.vruntime = max(task.vruntime, rq.entries[-1][0])
        rq.insert(task)

    def task_preempt(self, task, cpu):
        rq = self._rqs[cpu]
        if rq.curr_pid == task.pid:
            rq.curr_pid = None
        rq.insert(task)

    def task_dead(self, pid):
        for rq in self._rqs:
            if rq.curr_pid == pid:
                rq.curr_pid = None
        task = self.kernel.tasks.get(pid)
        if task is not None:
            for rq in self._rqs:
                rq.remove(task)
        self.group_of.pop(pid, None)

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def task_prio_changed(self, task, cpu):
        # Weight changed; vruntime accrual rate adjusts automatically.
        pass

    def migrate_task_rq(self, task, new_cpu):
        # Re-home the vruntime: subtract the old queue's baseline, add the
        # new one's, as migrate_task_rq_fair does.  (The kernel's group
        # runnable index re-homes itself in try_migrate.)
        old_cpu = None
        for rq in self._rqs:
            if rq.cpu != new_cpu and rq.remove(task):
                old_cpu = rq.cpu
                break
        if old_cpu is not None:
            task.vruntime -= self._rqs[old_cpu].min_vruntime
            task.vruntime += self._rqs[new_cpu].min_vruntime
        else:
            task.vruntime = max(task.vruntime,
                                self._rqs[new_cpu].min_vruntime)
        self._rqs[new_cpu].insert(task)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu):
        rq = self._rqs[cpu]
        pid = rq.leftmost()
        if pid is None:
            return None
        task = self.kernel.tasks[pid]
        rq.remove(task)
        rq.curr_pid = pid
        rq.curr_start_runtime = task.sum_exec_runtime_ns
        if rq.entries:
            rq.min_vruntime = max(rq.min_vruntime,
                                  min(task.vruntime, rq.entries[0][0]))
        else:
            rq.min_vruntime = max(rq.min_vruntime, task.vruntime)
        return pid

    def balance(self, cpu):
        """New-idle balance: pull from the busiest CPU when going idle."""
        if self._rqs[cpu].entries or self.kernel.rqs[cpu].nr_running:
            return None
        # Nothing queued anywhere means nothing to pull: skip the topology
        # scan entirely (this runs on every pick while CFS is idle).
        for rq in self._rqs:
            if rq.entries:
                break
        else:
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
                other_krq = self.kernel.rqs[other]
                waiting = len(self._rqs[other])
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
        rq = self._rqs[src_cpu]
        cfg = self.kernel.config
        now = self.kernel.clock.now
        fallback = None
        for _vr, pid in reversed(rq.entries):
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
        # Time-slice check.
        ran = task.sum_exec_runtime_ns - rq.curr_start_runtime
        if rq.entries and ran >= self._slice_for(task, cpu):
            kernel.resched_cpu(cpu)
        elif rq.entries and rq.entries[0][0] < task.vruntime:
            # A lower-vruntime task is waiting (e.g. woke recently):
            # preempt at the tick, as the paper describes.
            wakeup_gran = (kernel.config.sched_wakeup_granularity_ns
                           * NICE_0_WEIGHT // task.weight)
            if task.vruntime - rq.entries[0][0] > wakeup_gran:
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
        my_running = len(rqs[cpu].queued) + (rqs[cpu].current is not None)
        for scope, threshold in (
            (topo.siblings_in_llc(cpu), 2),
            (topo.all_cpus(), cfg.numa_imbalance_threshold + 1),
        ):
            busiest, busiest_n = None, my_running + threshold - 1
            for other in scope:
                if other == cpu:
                    continue
                n = len(rqs[other].queued) + (rqs[other].current is not None)
                if n > busiest_n:
                    busiest, busiest_n = other, n
            if busiest is None:
                continue
            pid = self._steal_candidate(busiest, cpu)
            if pid is not None:
                self.kernel.try_migrate(pid, cpu, self)
                return
