"""Enoki-C: the kernel-compiled half of the framework.

``EnokiSchedClass`` implements the raw
:class:`~repro.simkernel.sched_class.SchedClass` interface on behalf of an
:class:`~repro.core.trait.EnokiScheduler`.  It does the unsafe work the
paper assigns to Enoki-C (section 3):

* pulls information out of kernel task structs (runtimes, CPUs, priorities)
  and packages it into per-function messages;
* manages run-queue membership and migrations — the scheduler never touches
  kernel state;
* mints and validates :class:`~repro.core.schedulable.Schedulable` tokens,
  routing validation failures to ``pnt_err`` instead of crashing;
* owns the hint-queue plumbing and the record ring;
* charges the framework's per-invocation dispatch overhead (the paper's
  measured 100–150 ns) into the kernel's cost accounting.
"""

import time

from repro.core.errors import FaultError
from repro.core.failover import ContainmentBoundary
from repro.core.hints import QueueRegistry, RevMessage, RingBuffer, UserMessage
from repro.core.libenoki import LibEnoki
from repro.core.messages import message_for
from repro.core.schedulable import Schedulable, TokenRegistry
from repro.simkernel.sched_class import SchedClass
from repro.simkernel.tracing import (
    ENOKI_MSG, HINT_DEQUEUE, HINT_DROP, HINT_DROP_FAULT, HINT_ENQUEUE)


class EnokiSchedClass(SchedClass):
    """The kernel-side shim hosting one loadable Enoki scheduler."""

    name = "enoki"

    def __init__(self, scheduler, policy, recorder=None):
        super().__init__()
        self.policy = policy
        self.tokens = TokenRegistry()
        self.queues = QueueRegistry()
        self.recorder = recorder
        self.lib = LibEnoki(scheduler, enoki_c=self, recorder=recorder)
        #: set by the upgrade manager: the quiesce blackout (section 3.2's
        #: limitation) the next settle still has to pay
        self._pending_blackout_ns = 0
        self._armed_timers = {}
        #: timer-arm and injected-hang time the next pick-walk visit
        #: collects
        self._extra_cost_ns = 0
        #: a recorder-bearing shim always settles: ``settle_ns`` tests
        #: ``recorder.active``, so ``Recorder.stop()`` needs no hook here
        self.owes = recorder is not None
        #: optional :class:`~repro.obs.profiler.CallbackProfiler`
        self._profiler = None
        #: cached crossing mode, True exactly when nobody is watching and
        #: nothing can intercept: a kernel is attached with no trace hook,
        #: and there is no profiler, recorder, fault injector, rwlock tap,
        #: threaded replay or failover.  Everything that changes one of
        #: those calls :meth:`refresh_mode`.
        self._quiet = False
        #: set by a failover: every dispatch becomes a no-op and the
        #: fallback class (via the kernel's policy redirect) takes over
        self.failed = False
        #: the fault-containment boundary wrapping every dispatch; set to
        #: None to restore raw (crash-on-bug) dispatch semantics
        self.containment = ContainmentBoundary(self)
        #: optional :class:`~repro.core.faults.FaultInjector`
        self.fault_injector = None
        #: TEST-ONLY: when True, ``pick_next_task`` schedules the chosen
        #: pid WITHOUT spending its ``Schedulable`` — the silent
        #: token-discipline bug the ``repro.verify`` sanitizers exist to
        #: catch (nothing crashes; the stale token just stays live while
        #: the task runs).  Never set outside tests and the fuzzer.
        self._test_skip_token_consume = False

    # ------------------------------------------------------------------
    # registration convenience
    # ------------------------------------------------------------------

    @classmethod
    def register(cls, kernel, scheduler, policy, priority=10, recorder=None):
        """Load ``scheduler`` into ``kernel`` under ``policy``."""
        shim = cls(scheduler, policy, recorder=recorder)
        kernel.register_sched_class(shim, priority=priority)
        kernel.register_hint_handler(policy, shim)
        return shim

    @property
    def scheduler(self):
        return self.lib.scheduler

    # ------------------------------------------------------------------
    # crossing mode cache
    # ------------------------------------------------------------------

    @property
    def profiler(self):
        return self._profiler

    @profiler.setter
    def profiler(self, value):
        self._profiler = value
        self.refresh_mode()

    def refresh_mode(self):
        """Recompute ``_quiet`` (and the env's lock-event twin).

        Called from every site that attaches or removes a watcher:
        attach, ``Kernel.set_trace`` (as ``on_trace_changed``), the
        ``profiler`` setter, ``install_faults``, failover, live upgrade
        and ``Observer.observe_framework``.  A stale False only costs
        speed (the watched path is always correct); a stale True would
        hide crossings from a watcher, hence the explicit list.
        """
        kernel = self.kernel
        lib = self.lib
        env = lib.env
        trace = kernel.trace if kernel is not None else None
        self._quiet = (kernel is not None and trace is None
                       and not self.failed
                       and self._profiler is None
                       and lib.recorder is None
                       and self.fault_injector is None
                       and lib.rwlock.on_event is None)
        # The spin locks' taps: they skip lock events entirely while
        # nobody (recorder or trace hook) consumes them.
        env._lock_quiet = env.recorder is None and trace is None
        env._trace = trace
        env._clock = kernel.clock if kernel is not None else None

    #: notification from ``Kernel.set_trace``
    on_trace_changed = refresh_mode

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        # The framework's dispatch overhead comes on top of the ordinary
        # in-kernel bookkeeping (paper: "100-150 ns of overhead per
        # invocation of the Enoki scheduler"): a flat fee per hook.
        cfg = kernel.config
        call_ns = cfg.enoki_call_ns
        self.walk_cost_ns += 2 * call_ns
        self.hook_cost_ns += call_ns
        self._record_ns = cfg.record_overhead_ns
        #: per-callback attribution on the watched path: what one
        #: crossing of ``func`` is modelled to cost (``hook_cost_ns``
        #: for every function not listed)
        self._func_cost_ns = {
            "pick_next_task": cfg.sched_pick_ns + call_ns,
            "balance": cfg.sched_balance_ns + call_ns,
        }
        self.refresh_mode()

    # ------------------------------------------------------------------
    # fault containment / injection configuration
    # ------------------------------------------------------------------

    def install_faults(self, plan):
        """Install a :class:`~repro.core.faults.FaultInjector` running
        ``plan``.  Returns the injector (its ``fired`` log and ``summary``
        report what actually happened)."""
        from repro.core.faults import FaultInjector
        if self.recorder is not None and self.recorder.active:
            raise FaultError(
                "cannot inject faults while the recorder is active"
            )
        injector = (plan if isinstance(plan, FaultInjector)
                    else FaultInjector(plan))
        self.fault_injector = injector
        self.refresh_mode()
        return injector

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------

    def settle_ns(self, n, walk=False):
        """What ``n`` hooks cost beyond the attach-time constants; a
        pick-walk visit (``walk``) also collects the accrued extras."""
        recorder = self.recorder
        cost = (n * self._record_ns
                if recorder is not None and recorder.active else 0)
        if walk:
            cost += self._extra_cost_ns
            self._extra_cost_ns = 0
        if self._pending_blackout_ns:
            # The first settle after an upgrade pays the whole blackout.
            cost += self._pending_blackout_ns
            self._pending_blackout_ns = 0
        self.owes = recorder is not None or self._extra_cost_ns != 0
        return cost

    def note_upgrade_blackout(self, pause_ns):
        """The upgrade manager reports a quiesce window; the next dispatch
        on any CPU is delayed by it."""
        self._pending_blackout_ns = pause_ns
        self.owes = True

    # ------------------------------------------------------------------
    # the crossing
    # ------------------------------------------------------------------

    def _call(self, func, args, extra=None):
        """Cross into the scheduler: trait method ``func`` with ``args``
        in the message's declared field order.

        *Quiet* (nobody watching): the read section is counter
        arithmetic, the call is ``method(*args)``, and the message exists
        only if the call raises and containment wants its repr.
        *Watched*: the same tuple goes through ``LibEnoki.dispatch``
        (lock events, injector, recorder), then wall timing and the
        ``enoki_msg`` / profiler / overrun fan-out.  Either way the
        message is built only for a panic record's repr.
        """
        lib = self.lib
        rwlock = lib.rwlock
        if self._quiet and extra is None and not rwlock._writer:
            env = lib.env
            rwlock._readers += 1
            rwlock.read_acquisitions += 1
            previous_thread = env._thread
            env._thread = self._thread_hint
            try:
                response = lib.methods[func](*args)
            except Exception as exc:
                env._thread = previous_thread
                rwlock._readers -= 1
                if self.containment is None:
                    raise
                return self.containment.contain(
                    exc, message_for(func)(*args))
            env._thread = previous_thread
            rwlock._readers -= 1
            return response
        if self.failed:
            # The scheduler was failed over; its dispatches are no-ops
            # (the fallback class owns its tasks via the policy redirect).
            return None
        thread = self._thread_hint
        kernel = self.kernel
        trace = kernel.trace if kernel is not None else None
        profiler = self._profiler
        boundary = self.containment
        timed = trace is not None or profiler is not None
        if timed:
            wall_start = time.perf_counter_ns()
        try:
            response = lib.dispatch(func, args, thread, extra)
        except Exception as exc:
            if boundary is None:
                raise
            response = boundary.contain(exc, message_for(func)(*args))
        else:
            injector = self.fault_injector
            if (boundary is not None and injector is not None
                    and injector.pending_overrun_ns):
                boundary.after_dispatch(func, args)
        if not timed:
            return response
        wall_ns = time.perf_counter_ns() - wall_start
        costs = self._func_cost_ns
        virtual_ns = costs[func] if func in costs else self.hook_cost_ns
        if self.recorder is not None and self.recorder.active:
            virtual_ns += self._record_ns
        if trace is not None:
            trace("enoki_msg", kernel.clock.now, thread, ENOKI_MSG, func,
                  self.policy, wall_ns, cost=virtual_ns)
        if profiler is not None:
            profiler.note(func, virtual_ns=virtual_ns, wall_ns=wall_ns)
        return response

    #: the CPU whose hook is being handled; assigned directly at every
    #: hook entry (a method wrapper here showed up in profiles)
    _thread_hint = -1

    # ------------------------------------------------------------------
    # SchedClass: placement
    # ------------------------------------------------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        self._thread_hint = prev_cpu if prev_cpu >= 0 else 0
        cpus = task.allowed_cpus
        allowed = tuple(sorted(cpus)) if cpus is not None else None
        cpu = self._call("select_task_rq", (
            task.pid, prev_cpu, waker_cpu, wake_flags, allowed))
        # A real int only (``True`` is not CPU 1), in range, and allowed.
        if (type(cpu) is int and 0 <= cpu < self.kernel.topology.nr_cpus
                and (cpus is None or cpu in cpus)):
            return cpu
        return self._sanitize_cpu(task, prev_cpu)

    def _sanitize_cpu(self, task, prev_cpu):
        """Enoki-C guards the kernel against a bad placement answer."""
        nr = self.kernel.topology.nr_cpus
        if self.containment is not None:
            self.containment.note_bad_response()
        if task.can_run_on(prev_cpu) and 0 <= prev_cpu < nr:
            return prev_cpu
        for candidate in self.kernel.topology.all_cpus():
            if task.can_run_on(candidate):
                return candidate
        return 0

    # ------------------------------------------------------------------
    # SchedClass: state tracking
    # ------------------------------------------------------------------
    #
    # Every hook builds its argument tuple in the message's declared field
    # order (= the trait method's signature; tests/test_crossing.py).

    def task_new(self, task, cpu):
        self._thread_hint = cpu
        token = self.tokens.issue(task.pid, cpu)
        self._call("task_new", (
            task.pid, task.tgid, task.sum_exec_runtime_ns, True, task.nice,
            token))

    def task_wakeup(self, task, cpu):
        self._thread_hint = cpu
        token = self.tokens.issue(task.pid, cpu)
        # (pid, agent_data, deferrable, last_run_cpu, wake_up_cpu,
        #  waker_cpu, sched)
        self._call("task_wakeup", (
            task.pid, 0, bool(task.wakeup_flags), task.cpu, cpu, cpu, token))

    def task_blocked(self, task, cpu):
        self._thread_hint = cpu
        self.tokens.revoke(task.pid)
        # (pid, runtime, cpu_seqnum, cpu, from_switchto)
        self._call("task_blocked", (
            task.pid, task.sum_exec_runtime_ns,
            self.kernel.rqs[cpu].nr_switches, cpu, False))

    def task_yield(self, task, cpu):
        self._thread_hint = cpu
        token = self.tokens.issue(task.pid, cpu)
        # (pid, runtime, cpu_seqnum, cpu, from_switchto, sched)
        self._call("task_yield", (
            task.pid, task.sum_exec_runtime_ns,
            self.kernel.rqs[cpu].nr_switches, cpu, False, token))

    def task_preempt(self, task, cpu):
        self._thread_hint = cpu
        token = self.tokens.issue(task.pid, cpu)
        # (pid, runtime, cpu_seqnum, cpu, from_switchto, was_latched, sched)
        self._call("task_preempt", (
            task.pid, task.sum_exec_runtime_ns,
            self.kernel.rqs[cpu].nr_switches, cpu, False, False, token))

    def task_dead(self, pid):
        self.tokens.revoke(pid)
        self._call("task_dead", (pid,))

    def task_departed(self, task, cpu):
        self._thread_hint = cpu
        # (pid, cpu_seqnum, cpu, from_switchto, was_current)
        returned = self._call("task_departed", (
            task.pid, self.kernel.rqs[cpu].nr_switches, cpu, False, False))
        if not self.tokens.spend(returned):
            self.tokens.revoke(task.pid)

    def task_prio_changed(self, task, cpu):
        self._thread_hint = cpu
        self._call("task_prio_changed", (task.pid, task.nice))

    def task_affinity_changed(self, task, cpu):
        self._thread_hint = cpu
        mask = (
            tuple(sorted(task.allowed_cpus))
            if task.allowed_cpus is not None
            else tuple(self.kernel.topology.all_cpus())
        )
        self._call("task_affinity_changed", (task.pid, mask))

    # ------------------------------------------------------------------
    # SchedClass: core decisions
    # ------------------------------------------------------------------

    def pick_next_task(self, cpu):
        if self.failed:
            return None
        self._thread_hint = cpu
        policy = self.policy
        queued = self.kernel.rqs[cpu].queued
        # pid -> runtime of this CPU's queued tasks of ours (Enoki-C tracks
        # runtimes on the scheduler's behalf); most picks find none.  A
        # loop over the keys, not a comprehension (a frame of its own) or
        # ``items()`` (a builtin call).
        mine = {}
        for pid in queued:
            t = queued[pid]
            if t.policy == policy:
                mine[pid] = t.sum_exec_runtime_ns
        # (cpu, curr_pid, curr_runtime, runtimes)
        token = self._call("pick_next_task", (cpu, None, None, mine))
        if token is None:
            return None
        # One validation.  TEST-ONLY planted bug: check the proof without
        # spending it — the kernel happily runs the task on the unspent
        # token and only the token sanitizer notices.
        check = (self.tokens.is_valid if self._test_skip_token_consume
                 else self.tokens.spend)
        if (type(token) is Schedulable and token._pid in queued
                and self.kernel.tasks[token._pid].policy == policy
                and check(token, cpu)):
            # Being scheduled spends the proof; the task will get a fresh
            # token at its next state change.
            return token._pid
        # Return ownership to the scheduler through pnt_err and leave
        # the CPU to the next class — never crash (section 3.1).
        self.kernel.stats.pick_errors += 1
        pid = token.pid if hasattr(token, "pid") else -1
        if self.containment is not None:
            self.containment.note_bad_response()
        self._call("pnt_err", (cpu, pid, 1, token))
        return None

    def balance(self, cpu):
        self._thread_hint = cpu
        pid = self._call("balance", (cpu,))
        if pid is None:
            return None
        # A real int only: anything else (unhashable, ``True``, 1.0) is a
        # bad answer, never a task-table lookup.
        tasks = self.kernel.tasks
        task = tasks[pid] if type(pid) is int and pid in tasks else None
        if task is None or task.policy != self.policy:
            if self.containment is not None:
                self.containment.note_bad_response()
            self._call("balance_err", (
                cpu, pid if type(pid) is int else -1, 2, None))
            return None
        return pid

    def balance_err(self, cpu, pid):
        self._thread_hint = cpu
        self._call("balance_err", (cpu, pid, 1, None))

    def migrate_task_rq(self, task, new_cpu):
        self._thread_hint = new_cpu
        token = self.tokens.issue(task.pid, new_cpu)
        old = self._call("migrate_task_rq", (task.pid, new_cpu, token))
        # The scheduler must hand back the old core's token.  Issuing the
        # new one already invalidated it, so a scheduler that keeps the
        # wrong token (the case the paper admits it cannot prevent) holds
        # only a useless stale proof.
        if old is not None and getattr(old, "consumed", True) is False:
            old._consumed = True

    def task_tick(self, cpu, task):
        self._thread_hint = cpu
        queued = self.kernel.rqs[cpu].nr_queued > 0
        # (cpu, queued, pid, runtime)
        if task is None:
            self._call("task_tick", (cpu, queued, None, 0))
        else:
            self._call("task_tick", (
                cpu, queued, task.pid, task.sum_exec_runtime_ns))

    def wakeup_preempt(self, cpu, task):
        # Enoki schedulers re-evaluate at the next tick (or via their own
        # resched timers); matches the paper's description of CFS-style
        # wakeup preemption happening "when a system timer ticks".  A
        # module that manages preemption entirely through its own resched
        # timers (e.g. run-to-completion policies) opts out by setting
        # ``WAKEUP_PREEMPT = None`` — the scheduler, not the kernel,
        # decides when a wakeup interrupts the running task.
        return self.lib.scheduler.WAKEUP_PREEMPT

    # ------------------------------------------------------------------
    # timers (EnokiEnv backend)
    # ------------------------------------------------------------------

    def arm_resched_timer(self, cpu, delay_ns):
        # The arm cost is charged unconditionally — the scheduler asked for
        # a (re-)arm either way, and virtual time must not depend on the
        # dedup below.
        kernel = self.kernel
        config = kernel.config
        self._extra_cost_ns += config.timer_arm_cost_ns
        self.owes = True
        timers = self._armed_timers
        if cpu not in timers:
            timers[cpu] = kernel.timers.arm(
                delay_ns, self._resched_fire, tag=("enoki-resched", cpu))
            return
        # One timer per CPU, re-armed in place like a queued hrtimer.
        timer = timers[cpu]
        handle = timer.handle
        if handle is not None and not (timer.fired or timer.cancelled):
            floor = config.timer_min_delay_ns
            if handle[0] == (kernel.clock.now
                             + (delay_ns if delay_ns > floor else floor)
                             + config.timer_program_ns):
                # Identical re-arm: the armed timer already fires at this
                # exact instant, so skip the cancel + heap churn.
                return
        kernel.timers.arm(delay_ns, self._resched_fire, timer=timer)

    def _resched_fire(self, timer):
        self.kernel.resched_cpu(timer.tag[1])

    # ------------------------------------------------------------------
    # hints (kernel hint-handler interface + EnokiEnv backend)
    # ------------------------------------------------------------------

    def ensure_user_queue(self, tgid):
        """Create (once) the user-to-kernel hint ring for a process."""
        existing = self.queues.user_by_tgid.get(tgid)
        if existing is not None:
            return existing
        ring = RingBuffer(self.kernel.config.ring_buffer_capacity,
                          name=f"user-{tgid}")
        queue_id = self._call("register_queue", (0,), extra=ring)
        self.queues.add_user_queue(queue_id, ring, tgid=tgid)
        return queue_id

    def ensure_rev_queue(self, tgid):
        """Create (once) the kernel-to-user ring for a process."""
        existing = self.queues.rev_by_tgid.get(tgid)
        if existing is not None:
            return existing
        ring = RingBuffer(self.kernel.config.ring_buffer_capacity,
                          name=f"rev-{tgid}")
        queue_id = self._call("register_reverse_queue", (0,), extra=ring)
        self.queues.add_rev_queue(queue_id, ring, tgid=tgid)
        return queue_id

    def send_hint(self, task, payload):
        """Kernel hint-handler hook: a task executed a SendHint op."""
        if self.failed:
            # The failed-over scheduler will never drain its rings.
            return False
        injector = self.fault_injector
        if injector is not None:
            disposition = injector.hint_disposition()
            if disposition == "drop":
                self.kernel.stats.hint_drops += 1
                if self.kernel.trace is not None:
                    self.kernel.trace("hint_drop", self.kernel.now,
                                      task.cpu, HINT_DROP_FAULT, -1, "fault",
                                      pid=task.pid)
                return False
            if disposition == "hold":
                injector.hold_hint(task.pid, task.cpu, task.tgid, payload)
                return True
        queue_id = self.ensure_user_queue(task.tgid)
        ring = self.queues.user_queues[queue_id]
        if injector is not None:
            # Delayed hints ride ahead of the next push, preserving order
            # within the held batch, each into its own process's ring.
            for held in injector.take_held_hints():
                held_id = self.ensure_user_queue(held.tgid)
                held_ring = self.queues.user_queues[held_id]
                if not held_ring.push(UserMessage(held.pid, held.payload)):
                    self.kernel.stats.hint_drops += 1
                elif held_id != queue_id:
                    self._thread_hint = task.cpu
                    self._call("enter_queue", (held_id, len(held_ring)))
        if not ring.push(UserMessage(task.pid, payload)):
            self.kernel.stats.hint_drops += 1
            if self.kernel.trace is not None:
                self.kernel.trace("hint_drop", self.kernel.now, task.cpu,
                                  HINT_DROP, queue_id, pid=task.pid)
            return False
        self._thread_hint = task.cpu
        if self.kernel.trace is not None:
            self.kernel.trace("hint_enqueue", self.kernel.now, task.cpu,
                              HINT_ENQUEUE, queue_id, len(ring),
                              pid=task.pid)
        if self.recorder is not None and self.recorder.active:
            # "LibEnoki records each call and hint sent to the scheduler"
            # (section 3.4): the replay refills the ring from this entry.
            self.recorder.note_hint(queue_id, task.pid, payload, task.cpu)
        self._call("enter_queue", (queue_id, len(ring)))
        return True

    def drain_rev(self, task):
        """Kernel hint-handler hook: a task executed a RecvHints op."""
        ring = self.queues.rev_queue_for_tgid(task.tgid)
        if ring is None:
            return []
        drained = [entry.payload for entry in ring.drain()]
        if self.kernel.trace is not None:
            self.kernel.trace("hint_dequeue", self.kernel.now, task.cpu,
                              HINT_DEQUEUE, len(drained), pid=task.pid)
        return drained

    def push_rev_message(self, queue_id, payload):
        """EnokiEnv backend: scheduler sends a kernel-to-user message."""
        ring = self.queues.rev_queues.get(queue_id)
        if ring is None:
            return False
        return ring.push(RevMessage(payload))
