"""Task lifecycle: creation, fork placement, and exit notification.

One of the four kernel-core subsystems (see :mod:`repro.simkernel.kernel`
for the facade): this one allocates pids, builds ``TaskStruct`` objects,
runs the fork path (``select_task_rq`` -> attach -> ``task_new``), and
fans task-exit notifications out to registered callbacks (the watchdog
and failover machinery ride these).
"""

from repro.simkernel.sched_class import DEFERRED_CPU, WF_FORK
from repro.simkernel.task import TaskState, TaskStruct


class LifecycleManager:
    """Creates tasks and announces their exits."""

    def __init__(self, kernel):
        self.k = kernel
        self._next_pid = 1
        self._exit_callbacks = []

    # ------------------------------------------------------------------
    # creation
    # ------------------------------------------------------------------

    def spawn(self, prog, name=None, policy=0, nice=0, allowed_cpus=None,
              origin_cpu=0, tgid=None, group=None):
        """Create and start a new task running ``prog`` (a generator fn)."""
        k = self.k
        pid = self._next_pid
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
        """Place and queue a new task.  Returns the fork-path hook cost."""
        k = self.k
        if task.group is not None:
            throttled = k.groups.throttled_ancestor(task)
            if throttled is not None:
                # Born into a throttled subtree: park without telling the
                # scheduler class — it first hears about this task via the
                # fork-flavoured admission at unthrottle time.
                task.set_state(TaskState.RUNNABLE)
                k.groups.park(task, throttled, origin="new")
                if k.trace is not None:
                    k.trace("fork", t=k.now, cpu=origin_cpu, pid=task.pid,
                            throttled=True)
                return 0
        cls = k.class_of(task)
        cpu = k.migration.invoke_select(cls, task, origin_cpu, WF_FORK,
                                        origin_cpu)
        task.set_state(TaskState.RUNNABLE)
        task.last_wakeup_ns = k.now
        hook_cost = cls.hooks_cost_ns(2)    # select_task_rq + task_new
        if cpu == DEFERRED_CPU:
            k._limbo.add(task.pid)
            # Limbo counts as wait for delay accounting (see wake_task).
            task.stats.wait_since_ns = k.now
            cls.task_new(task, DEFERRED_CPU)
            if k.trace is not None:
                k.trace("fork", t=k.now, cpu=origin_cpu, pid=task.pid,
                        deferred=True)
            return hook_cost
        k._attach_runnable(task, cpu)
        cls.task_new(task, cpu)
        if k.trace is not None:
            k.trace("fork", t=k.now, cpu=cpu, pid=task.pid,
                    origin=origin_cpu)
        k.migration.kick_cpu_for_wakeup(task, cpu, origin_cpu, cls)
        return hook_cost

    # ------------------------------------------------------------------
    # exit
    # ------------------------------------------------------------------

    def on_task_exit(self, callback):
        """Register ``callback(task)`` to run when any task exits."""
        self._exit_callbacks.append(callback)

    def notify_exit(self, task):
        """Fan a completed exit out to every registered callback."""
        for callback in self._exit_callbacks:
            callback(task)
