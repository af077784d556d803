"""The cost model of the simulated machine.

Every constant is in nanoseconds.  The defaults are calibrated so that the
baseline CFS column of the paper's Table 3 is reproduced: ~3.0 us per
message for the sched-pipe benchmark with both tasks on one core and
~3.6 us with the tasks on two cores (see ``tests/test_calibration.py``).
All other results are *relative* to this anchor, the same way the paper's
results are relative to its i7-9700 / Xeon 6138 testbeds.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SimConfig:
    """Cost model + policy knobs for the simulated kernel.

    Frozen: scheduler classes resolve their per-hook costs from it once,
    at ``attach_kernel``, so a later write must raise rather than silently
    disagree with those constants.  :meth:`scaled` makes changed copies.
    """

    # --- context switching and wakeups -------------------------------
    #: direct cost of switching between two tasks on a core
    context_switch_ns: int = 1400
    #: fixed entry/exit cost of any syscall (pipe read/write, futex, ...)
    syscall_ns: int = 300
    #: cost of copying a sched-pipe sized payload through a pipe
    pipe_transfer_ns: int = 150
    #: waking a task onto the waker's own core (no IPI)
    wakeup_local_ns: int = 350
    #: waking a task onto another core (IPI + remote queue handling)
    wakeup_remote_ns: int = 700
    #: additional cost when the wake crosses a socket boundary (QPI/UPI
    #: hop + remote cache-line transfer)
    wakeup_cross_socket_extra_ns: int = 350
    #: exiting a shallow idle state (C1) when a wakeup arrives
    idle_exit_shallow_ns: int = 650
    #: exiting a deep idle state (C6) -- cores idle longer than
    #: ``idle_deep_threshold_ns`` are assumed to have entered one
    idle_exit_deep_ns: int = 60_000
    idle_deep_threshold_ns: int = 2_000_000
    #: uniform jitter added per wakeup (IRQ coalescing, timer slack)
    wakeup_jitter_ns: int = 400
    #: uniform jitter added per deep idle exit (C-state exit variance)
    idle_exit_deep_jitter_ns: int = 30_000

    # --- in-kernel scheduler costs (native classes) -------------------
    #: bookkeeping cost for a native scheduler picking the next task
    sched_pick_ns: int = 250
    #: bookkeeping cost for enqueue/dequeue in a native scheduler
    sched_queue_ns: int = 150
    #: bookkeeping cost of a balance pass
    sched_balance_ns: int = 150
    #: cost of migrating a task between run queues
    migrate_ns: int = 700
    #: a freshly enqueued task cannot be migrated for this long — models
    #: the rq-lock serialisation between try_to_wake_up and load balance
    migration_min_queued_ns: int = 1_500

    # --- Enoki framework ---------------------------------------------
    #: paper section 5.2: "100-150 ns of overhead per invocation of the
    #: Enoki scheduler"; this is charged on every message dispatch
    enoki_call_ns: int = 125
    #: extra per-message cost when the recorder is compiled in and running
    #: (ring buffer reservation + copy; paper: 4 s benchmark -> ~30 s)
    record_overhead_ns: int = 4_800
    #: per-CPU synchronisation cost when quiescing for a live upgrade
    upgrade_sync_per_cpu_ns: int = 110
    #: fixed cost of the pointer swap + transfer handoff during upgrade
    upgrade_swap_ns: int = 400
    #: per-live-task cost of handing state across an upgrade
    upgrade_per_task_ns: int = 5

    # --- timers and ticks ---------------------------------------------
    #: scheduler tick period (CONFIG_HZ=1000)
    tick_period_ns: int = 1_000_000
    #: high resolution timer programming cost
    timer_program_ns: int = 80
    #: minimum hrtimer slack (timers cannot fire earlier than this)
    timer_min_delay_ns: int = 200
    #: CPU cost charged to a scheduler that (re)arms a resched timer from
    #: its hot path (hrtimer cancel + reprogram); the paper attributes the
    #: Enoki Shinjuku scheduler's extra Table 3 latency to exactly this
    timer_arm_cost_ns: int = 350

    # --- ghOSt model ----------------------------------------------------
    #: queueing a message from kernel to the ghOSt agent
    ghost_msg_enqueue_ns: int = 200
    #: agent-side cost to consume and act on the first message of a batch
    ghost_agent_msg_ns: int = 600
    #: amortised cost of each further message in the same batch
    ghost_agent_batch_msg_ns: int = 150
    #: committing one scheduling transaction back into the kernel
    ghost_txn_commit_ns: int = 500
    #: latency of the commit becoming visible on a remote CPU
    ghost_txn_remote_ns: int = 450

    # --- CFS policy knobs (mirroring Linux defaults) --------------------
    sched_latency_ns: int = 6_000_000
    sched_min_granularity_ns: int = 750_000
    sched_wakeup_granularity_ns: int = 1_000_000
    #: how long before an un-run woken task is considered cache cold
    sched_migration_cost_ns: int = 500_000
    #: periodic load balance interval per CPU
    balance_interval_ns: int = 4_000_000
    #: tasks-imbalance threshold before balancing across NUMA nodes
    numa_imbalance_threshold: int = 2

    # --- misc -----------------------------------------------------------
    #: capacity of hint/record ring buffers (entries)
    ring_buffer_capacity: int = 65536
    #: what a full hint ring does with a new entry: "drop-new" rejects it
    #: (the paper's overrun semantics), "overwrite-oldest" evicts the
    #: stalest entry instead
    ring_overflow_policy: str = "drop-new"
    #: seed for any stochastic workload components
    seed: int = 20240422

    def scaled(self, **overrides):
        """Return a copy with some constants replaced."""
        return replace(self, **overrides)
