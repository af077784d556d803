"""A bursty, under-committed periodic service (the Nest ablation).

Eight tasks each run a short burst and sleep past the deep-idle
threshold, with staggered phases that keep the *aggregate* arrival
stream steady: one warm core can absorb all of it, while spreading
placement leaves every core cooling between its own task's bursts and
pays the deep idle-exit penalty on nearly every wakeup.
"""

from dataclasses import dataclass

from repro.simkernel.clock import msecs, usecs
from repro.simkernel.program import Run, Sleep

TASKS = 8
BURSTS = 60
BURST_NS = usecs(120)
SLEEP_NS = msecs(2) + usecs(800)
STAGGER_NS = usecs(350)


@dataclass
class BurstyResult:
    p50_us: float
    cores_touched: int
    deep_wakeups: int
    wakeups: int


def run_bursty_periodic(kernel, policy):
    """Run the service to completion; returns wakeup latency and how
    many cores (and deep idle exits) serving it cost."""
    def periodic(offset_ns):
        def prog():
            yield Sleep(offset_ns)
            for _ in range(BURSTS):
                yield Run(BURST_NS)
                yield Sleep(SLEEP_NS)
        return prog

    tasks = [kernel.spawn(periodic(i * STAGGER_NS), policy=policy)
             for i in range(TASKS)]
    kernel.run_until_idle()
    latencies = sorted(lat for task in tasks
                       for lat in task.stats.wakeup_latencies)
    return BurstyResult(
        p50_us=latencies[len(latencies) // 2] / 1e3,
        cores_touched=sum(1 for cpu in kernel.stats.cpus
                          if cpu.busy_ns > usecs(500)),
        deep_wakeups=sum(1 for lat in latencies
                         if lat >= kernel.config.idle_exit_deep_ns),
        wakeups=len(latencies),
    )
