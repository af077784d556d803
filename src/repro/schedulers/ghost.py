"""A model of ghOSt: userspace scheduling by delegation (Humphries et al.,
SOSP '21) — the paper's main comparison framework.

Architecture reproduced here (paper sections 1, 4.2.2, 7):

* Kernel scheduling events for ghOSt-managed tasks are *forwarded as
  messages* to a userspace **agent**.
* The agent is itself a task that must be scheduled to run; it consumes
  messages, runs the policy, and **commits transactions** that tell the
  kernel what to run where.
* The model is **asynchronous**: the kernel does not wait for the agent —
  a CPU with no committed task simply idles (or falls to a lower scheduling
  class), and decisions can be stale by the time they commit.

Variants evaluated by the paper:

* :func:`install_ghost_sol` — the SOL latency-optimised global FIFO: one
  agent on a dedicated core managing all ghost CPUs.
* :func:`install_ghost_percpu_fifo` — one agent per CPU, sharing that CPU
  with the tasks it schedules ("on every schedule operation, the scheduler
  first must be scheduled and run on the core").
* :func:`install_ghost_shinjuku` — the SOL arrangement running the
  Shinjuku policy with a 10 us preemption timer (Figure 2's competitor).

The agents are real simulated tasks (pinned, high-priority class), so
agent CPU consumption, wakeup latency, and message backlog are emergent —
which is what produces ghOSt's Table 4 tail blowup and Figure 2c batch-CPU
tax.
"""

from collections import deque

from repro.simkernel.futex import Futex
from repro.simkernel.program import Call, FutexWait, Run
from repro.simkernel.runqueue import TokenQueue
from repro.simkernel.sched_class import DEFERRED_CPU, SchedClass
from repro.simkernel.task import TaskState
from repro.schedulers.fifo_native import NativeFifoClass

GHOST_POLICY = 30
GHOST_AGENT_POLICY = 31


class GhostSchedClass(SchedClass):
    """Kernel half of the ghOSt model: defer everything to the agent."""

    name = "ghost"

    def __init__(self, policy=GHOST_POLICY):
        super().__init__()
        self.policy = policy
        self.agent_model = None      # wired by install_*
        self.latched = {}            # cpu -> deque of committed pids
        self.running = {}            # cpu -> pid

    def attach_kernel(self, kernel):
        super().attach_kernel(kernel)
        self.latched = {c: deque() for c in kernel.topology.all_cpus()}
        self.running = {}
        # Every hook produces a message into the agent queue.
        enqueue_ns = kernel.config.ghost_msg_enqueue_ns
        self.walk_cost_ns += 2 * enqueue_ns
        self.hook_cost_ns += enqueue_ns

    # -- all placement is deferred to the agent ---------------------------

    def select_task_rq(self, task, prev_cpu, wake_flags, waker_cpu=-1):
        return DEFERRED_CPU

    def _allowed(self, task):
        if task.allowed_cpus is None:
            return None
        return frozenset(task.allowed_cpus)

    def task_new(self, task, cpu):
        self.agent_model.post("new", task.pid, prio=task.nice,
                              allowed=self._allowed(task))

    def task_wakeup(self, task, cpu):
        self.agent_model.post("wakeup", task.pid, prio=task.nice,
                              allowed=self._allowed(task))

    def task_blocked(self, task, cpu):
        self.running.pop(cpu, None)
        self.agent_model.post("blocked", task.pid, cpu=cpu)

    def task_yield(self, task, cpu):
        self.running.pop(cpu, None)
        # Like a preemption, a yielded task needs a fresh commit before it
        # can run again; withdraw it into agent limbo.
        self.kernel.rqs[cpu].detach(task)
        self.kernel._limbo.add(task.pid)
        self.agent_model.post("yield", task.pid, cpu=cpu, prio=task.nice,
                              allowed=self._allowed(task))

    def task_preempt(self, task, cpu):
        self.running.pop(cpu, None)
        # The preempted task needs a fresh commit to run again; the kernel
        # queue entry is withdrawn back into agent limbo.
        self.kernel.rqs[cpu].detach(task)
        self.kernel._limbo.add(task.pid)
        self.agent_model.post("preempt", task.pid, cpu=cpu, prio=task.nice,
                              allowed=self._allowed(task))

    def task_dead(self, pid):
        for queue in self.latched.values():
            try:
                queue.remove(pid)
            except ValueError:
                pass
        for cpu, running_pid in list(self.running.items()):
            if running_pid == pid:
                del self.running[cpu]
        self.agent_model.post("dead", pid)

    def task_departed(self, task, cpu):
        self.task_dead(task.pid)

    def migrate_task_rq(self, task, new_cpu):
        pass

    # -- kernel-side execution of commits -----------------------------------

    def deliver_commit(self, pid, cpu):
        """A transaction arrived: attach the task and latch it for pick."""
        task = self.kernel.tasks.get(pid)
        if (task is None or task.state is not TaskState.RUNNABLE
                or pid not in self.kernel._limbo):
            # Stale decision (task ran, died, or blocked meanwhile).
            self.agent_model.post("commit_failed", pid)
            return
        if self.kernel.place_task(pid, cpu, kicker_cpu=None):
            self.latched[cpu].append(pid)
        else:
            self.agent_model.post("commit_failed", pid)

    def deliver_preempt(self, pid, cpu):
        """A preemption transaction: kick the CPU if the task still runs."""
        if self.running.get(cpu) == pid:
            self.kernel.resched_cpu(cpu)

    def pick_next_task(self, cpu):
        queue = self.latched[cpu]
        while queue:
            pid = queue.popleft()
            task = self.kernel.tasks.get(pid)
            if (task is not None and self.kernel.rqs[cpu].has(pid)
                    and task.state is TaskState.RUNNABLE):
                self.running[cpu] = pid
                self.agent_model.post("picked", pid, cpu=cpu)
                return pid
        return None

    def wakeup_preempt(self, cpu, task):
        return None


class GhostAgentModel:
    """Userspace agent state machine plus the policy it runs.

    One instance manages a set of CPUs.  ``post`` is the kernel-side
    message producer; the agent task's program consumes batches, charges
    per-message CPU time, and issues commit/preempt transactions with the
    configured latencies.
    """

    def __init__(self, kernel, ghost_class, managed_cpus, agent_cpu,
                 policy="fifo", preemption_ns=None, spin=False):
        self.kernel = kernel
        self.ghost_class = ghost_class
        self.managed_cpus = list(managed_cpus)
        self.agent_cpu = agent_cpu
        self.policy = policy
        self.preemption_ns = preemption_ns
        #: spin agents busy-poll a dedicated core (the SOL arrangement):
        #: they are never descheduled, so message handling needs no wakeup
        #: or context switch — only queueing and processing time.
        self.spin = spin
        self._spin_processing = False
        self.msgs = deque()
        self.futex = Futex(name=f"ghost-agent-{agent_cpu}")
        #: runnable pids in arrival order: at "CPU" 0 the high-priority
        #: level (nice <= 0), at 1 the low one (nice > 0)
        self.runnable = TokenQueue(2)
        self.prio = {}                # pid -> nice
        self.allowed = {}             # pid -> frozenset | None
        self.agent_task = None
        self.messages_processed = 0
        self.commits = 0

    # -- kernel-side producer ------------------------------------------------

    #: message kinds that demand an agent decision; informational ones
    #: ("picked") are consumed lazily with the next actionable batch --
    #: waking the agent for them would preempt the task it just latched.
    _ACTIONABLE = frozenset(
        {"new", "wakeup", "blocked", "yield", "preempt", "dead",
         "commit_failed"}
    )

    def post(self, kind, pid, cpu=None, prio=0, allowed=None):
        self.msgs.append((kind, pid, cpu, prio, allowed))
        if kind not in self._ACTIONABLE:
            return
        if self.spin:
            self.kernel.events.after(
                self.kernel.config.ghost_msg_enqueue_ns,
                self._spin_kick,
            )
        elif self.agent_task is not None:
            # Kick the agent; the event is harmless if it is already awake
            # (and avoids the lost-wakeup race around its block).
            self.kernel.events.after(
                self.kernel.config.ghost_msg_enqueue_ns,
                self._wake_agent,
            )

    def _wake_agent(self):
        if not self.msgs:
            return
        if self.agent_task.state is TaskState.BLOCKED:
            self.futex.remove_waiter(self.agent_task)
            self.kernel.wake_task(self.agent_task)

    # -- spin-mode processing (dedicated-core agents) -------------------------

    def _spin_kick(self):
        if self._spin_processing or not self.msgs:
            return
        self._spin_processing = True
        self._spin_schedule()

    def _batch_cost(self, batch):
        cfg = self.kernel.config
        return (cfg.ghost_agent_msg_ns
                + (batch - 1) * cfg.ghost_agent_batch_msg_ns)

    def _spin_schedule(self):
        batch = len(self.msgs)
        if batch == 0:
            self._spin_processing = False
            return
        self.kernel.events.after(self._batch_cost(batch), self._spin_done,
                                 batch)

    def _spin_done(self, batch):
        self._process_batch(batch)
        self._spin_schedule()

    # -- the agent program -----------------------------------------------------

    def agent_program(self):
        cfg = self.kernel.config

        def program():
            while True:
                if not self.msgs:
                    yield FutexWait(self.futex)
                    continue
                batch = len(self.msgs)
                yield Run(self._batch_cost(batch))
                yield Call(self._process_batch, (batch,))

        return program

    def _process_batch(self, batch):
        for _ in range(min(batch, len(self.msgs))):
            kind, pid, cpu, prio, allowed = self.msgs.popleft()
            self.messages_processed += 1
            self._handle(kind, pid, cpu, prio, allowed)
        self._dispatch()

    def _handle(self, kind, pid, cpu, prio, allowed):
        if kind in ("new", "wakeup", "preempt", "commit_failed"):
            if kind != "commit_failed":
                self.prio[pid] = prio
                self.allowed[pid] = allowed
            self._enqueue_runnable(pid)
        elif kind in ("blocked", "yield", "dead"):
            self.runnable.remove(pid)
            if kind == "yield":
                self._enqueue_runnable(pid)
        elif kind == "picked":
            pass  # informational

    def _enqueue_runnable(self, pid):
        if pid not in self.runnable.where:
            level = 1 if self.prio.get(pid, 0) > 0 else 0
            self.runnable.push_back(level, pid, None)

    # -- policy: commit work to free CPUs -------------------------------------

    def _cpu_free(self, cpu):
        ghost = self.ghost_class
        if ghost.running.get(cpu) is not None:
            return False
        if ghost.latched[cpu]:
            return False
        return True

    def _next_runnable(self, cpu):
        """FIFO-pop the first runnable task allowed on ``cpu``."""
        for queued in self.runnable.cpus.values():
            for _seq, pid, _token in queued:
                mask = self.allowed.get(pid)
                if mask is None or cpu in mask:
                    self.runnable.remove(pid)
                    return pid
        return None

    def _dispatch(self):
        cfg = self.kernel.config
        for cpu in self.managed_cpus:
            if not self._cpu_free(cpu):
                continue
            pid = self._next_runnable(cpu)
            if pid is None:
                continue
            delay = cfg.ghost_txn_commit_ns
            if cpu != self.agent_cpu:
                delay += cfg.ghost_txn_remote_ns
            self.kernel.events.after(
                delay, self.ghost_class.deliver_commit, pid, cpu
            )
            self.commits += 1
            # Mark as provisionally latched so we don't double-commit the
            # CPU within this batch.
            self.ghost_class.latched[cpu].append(_PENDING)
            self.kernel.events.after(
                delay, self._clear_pending, cpu
            )
            if self.preemption_ns is not None:
                self.kernel.events.after(
                    delay + self.preemption_ns,
                    self._preempt_check, pid, cpu,
                )

    def _clear_pending(self, cpu):
        try:
            self.ghost_class.latched[cpu].remove(_PENDING)
        except ValueError:
            pass

    def _preempt_check(self, pid, cpu):
        cfg = self.kernel.config
        if self.ghost_class.running.get(cpu) == pid:
            self.kernel.events.after(
                cfg.ghost_txn_remote_ns,
                self.ghost_class.deliver_preempt, pid, cpu,
            )


_PENDING = -1


class _PerCpuGhostRouter:
    """Fan messages out to per-CPU agents (the ghOSt per-CPU FIFO model).

    Tasks are homed to a CPU at their first event (round robin), and all
    their subsequent messages go to that CPU's agent.
    """

    def __init__(self, agents_by_cpu, managed_cpus):
        self.agents = agents_by_cpu
        self.managed_cpus = list(managed_cpus)
        self.home = {}
        self._next = 0

    def post(self, kind, pid, cpu=None, prio=0, allowed=None):
        home = self.home.get(pid)
        if home is None:
            eligible = [c for c in self.managed_cpus
                        if allowed is None or c in allowed]
            if not eligible:
                eligible = self.managed_cpus
            home = eligible[self._next % len(eligible)]
            self._next += 1
            self.home[pid] = home
        if kind == "dead":
            self.home.pop(pid, None)
        self.agents[home].post(kind, pid, cpu=cpu, prio=prio,
                               allowed=allowed)


def _ensure_agent_class(kernel):
    for _prio, cls in kernel._classes:
        if cls.policy == GHOST_AGENT_POLICY:
            return cls
    agent_class = NativeFifoClass(policy=GHOST_AGENT_POLICY)
    kernel.register_sched_class(agent_class, priority=90)
    return agent_class


def _spawn_agent(kernel, model, cpu, name):
    task = kernel.spawn(
        model.agent_program(), name=name, policy=GHOST_AGENT_POLICY,
        allowed_cpus=frozenset({cpu}), origin_cpu=cpu,
    )
    model.agent_task = task
    return task


def install_ghost_sol(kernel, managed_cpus=None, agent_cpu=None,
                      policy=GHOST_POLICY, preemption_ns=None):
    """Install the SOL global-FIFO ghOSt arrangement.

    The agent runs on ``agent_cpu`` (dedicated; default the last CPU) and
    manages ``managed_cpus`` (default every other CPU).  Returns
    (ghost_class, agent_model).
    """
    nr_cpus = kernel.topology.nr_cpus
    if managed_cpus is None:
        managed_cpus = range(nr_cpus - 1)
    if agent_cpu is None:
        agent_cpu = nr_cpus - 1
    ghost = GhostSchedClass(policy=policy)
    kernel.register_sched_class(ghost, priority=50)
    model = GhostAgentModel(kernel, ghost, managed_cpus, agent_cpu,
                            policy="fifo", preemption_ns=preemption_ns,
                            spin=True)
    ghost.agent_model = model
    return ghost, model


def install_ghost_shinjuku(kernel, managed_cpus, agent_cpu,
                           policy=GHOST_POLICY, preemption_us=10):
    """SOL arrangement running the Shinjuku preemptive policy."""
    return install_ghost_sol(
        kernel, managed_cpus, agent_cpu, policy=policy,
        preemption_ns=preemption_us * 1_000,
    )


def install_ghost_percpu_fifo(kernel, managed_cpus=None,
                              policy=GHOST_POLICY):
    """Install the per-CPU FIFO ghOSt arrangement.

    Each managed CPU (default: all) hosts its own agent *on that CPU*,
    competing with the tasks it schedules.  Returns (ghost_class, router).
    """
    if managed_cpus is None:
        managed_cpus = range(kernel.topology.nr_cpus)
    ghost = GhostSchedClass(policy=policy)
    kernel.register_sched_class(ghost, priority=50)
    _ensure_agent_class(kernel)
    agents = {}
    for cpu in managed_cpus:
        model = GhostAgentModel(kernel, ghost, [cpu], cpu, policy="fifo")
        agents[cpu] = model
        _spawn_agent(kernel, model, cpu, f"ghost-agent-{cpu}")
    router = _PerCpuGhostRouter(agents, managed_cpus)
    ghost.agent_model = router
    return ghost, router
