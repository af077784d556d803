"""Task lifecycle: creation and fork placement.

One of the four kernel-core subsystems (see :mod:`repro.simkernel.kernel`
for the facade): this one allocates pids, builds ``TaskStruct`` objects
and runs the fork path (``select_task_rq`` -> attach -> ``task_new``).
Exit is the dispatch engine's ``EXIT`` disposition.
"""

from repro.simkernel.errors import ProgramError
from repro.simkernel.sched_class import DEFERRED_CPU, WF_FORK
from repro.simkernel.task import TaskState, TaskStruct
from repro.simkernel.tracing import FORK_DEFERRED, FORK_ORIGIN, FORK_THROTTLED

#: per-event state tests read module globals, not enum attributes
_RUNNABLE = TaskState.RUNNABLE


def check_affinity(pid, cpus, topology):
    """Refuse, before any state changes, a mask holding no CPU of
    ``topology``: the caller's error, which placement would blame on the
    scheduler class."""
    if frozenset(cpus).isdisjoint(topology.all_cpus()):
        raise ProgramError(
            f"pid {pid}: affinity mask {sorted(cpus)} holds no cpu of the "
            f"{topology.nr_cpus}-cpu topology")


class LifecycleManager:
    """Creates tasks."""

    def __init__(self, kernel):
        self.k = kernel
        self._next_pid = 1

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def spawn(self, prog, name=None, policy=0, nice=0, allowed_cpus=None,
              origin_cpu=0, tgid=None, group=None):
        """Create and start a new task running ``prog`` (a generator fn)."""
        k = self.k
        pid = self._next_pid
        if allowed_cpus is not None:
            check_affinity(pid, allowed_cpus, k.topology)
        self._next_pid += 1
        task = TaskStruct(pid, prog, name=name, policy=policy, nice=nice,
                          allowed_cpus=allowed_cpus, tgid=tgid)
        task.stats.created_ns = k.now
        k.tasks[pid] = task
        if group is not None:
            k.groups.assign(task, group)
        task.start_program()
        self.wake_up_new_task(task, origin_cpu)
        return task

    def wake_up_new_task(self, task, origin_cpu):
        """Place and queue a new task.  The fork's hook cost is the
        forking op's to charge (``OpInterpreter._spawn``)."""
        k = self.k
        if task.group is not None:
            throttled = k.groups.throttled_ancestor(task)
            if throttled is not None:
                # Born into a throttled subtree: park without telling the
                # scheduler class — it first hears about this task via the
                # fork-flavoured admission at unthrottle time.
                task.set_state(_RUNNABLE)
                k.groups.park(task, throttled, origin="new")
                if k.trace is not None:
                    k.trace("fork", k.now, origin_cpu, FORK_THROTTLED, True,
                            pid=task.pid)
                return
        cls = k._class_cache[task.policy]
        cpu = k.migration.invoke_select(cls, task, origin_cpu, WF_FORK,
                                        origin_cpu)
        task.set_state(_RUNNABLE)
        task.last_wakeup_ns = k.now
        if cpu == DEFERRED_CPU:
            k._limbo.add(task.pid)
            # Limbo counts as wait for delay accounting (see wake_task).
            task.stats.wait_since_ns = k.now
            cls.task_new(task, DEFERRED_CPU)
            if k.trace is not None:
                k.trace("fork", k.now, origin_cpu, FORK_DEFERRED, True,
                        pid=task.pid)
            return
        k._attach_runnable(task, cpu)
        cls.task_new(task, cpu)
        if k.trace is not None:
            k.trace("fork", k.now, cpu, FORK_ORIGIN, origin_cpu,
                    pid=task.pid)
        k.migration.kick_cpu_for_wakeup(task, cpu, origin_cpu, cls)
