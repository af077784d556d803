"""The wakeup model's jitter draws are ``random.Random.randrange``.

``MigrationService.kick_cpu_for_wakeup`` draws its jitter with one
``getrandbits`` per try and CPython's rejection loop instead of calling
``randrange``.  Every digest hangs on that stream, so the draws and the
generator state they leave must match ``randrange`` exactly: an
interpreter whose ``randrange`` draws differently fails here, not as a
silent drift of every recorded digest.
"""

import random

import pytest

from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel import Kernel, SimConfig, Topology
from repro.simkernel.task import TaskStruct

SEEDS = (0, 1, 20240422)
DRAWS = 40

#: 1-3, powers of two and their neighbours, and the two defaults
BOUNDS = sorted({1, 2, 3,
                 *(2 ** k + d for k in (4, 10, 16) for d in (-1, 0, 1)),
                 SimConfig().wakeup_jitter_ns,
                 SimConfig().idle_exit_deep_jitter_ns})


def kicks(n, seed, path):
    """-> (the jitter draws of ``DRAWS`` kicks of an idle CPU, with only
    ``path``'s jitter bound set to ``n``; the kernel's generator)"""
    config = SimConfig().scaled(
        seed=seed,
        wakeup_jitter_ns=n if path == "wake" else 0,
        idle_exit_deep_jitter_ns=n if path == "deep" else 0)
    kernel = Kernel(Topology.smp(1), config)
    cls = kernel.register_sched_class(NativeFifoClass(policy=1))
    task = TaskStruct(1, None, policy=1)
    rq = kernel.rqs[0]
    draws = []
    for _ in range(DRAWS):
        if path == "wake":
            # Shallow idle: the kick lands after the local IPI, the
            # shallow exit and the wakeup jitter.
            rq.idle_since_ns = 0
            kernel.migration.kick_cpu_for_wakeup(task, 0, 0, cls)
            draws.append(task.kick_at_ns - config.wakeup_local_ns
                         - config.idle_exit_shallow_ns)
            continue
        # Deep idle: the steal window takes the first draw, the
        # reschedule event the second.
        rq.idle_since_ns = -config.idle_deep_threshold_ns
        kernel.migration.kick_cpu_for_wakeup(task, 0, 0, cls)
        base = config.wakeup_local_ns + config.idle_exit_deep_ns
        kick_at = max(kernel.events.pending(), key=lambda e: e[1])[0]
        draws += [task.kick_at_ns - base, kick_at - base]
    return draws, kernel._rng


@pytest.mark.parametrize("path", ("wake", "deep"))
@pytest.mark.parametrize("n", BOUNDS)
def test_draws_are_randrange(n, path):
    for seed in SEEDS:
        draws, rng = kicks(n, seed, path)
        reference = random.Random(seed ^ 0x5EED)    # as Kernel seeds it
        assert draws == [reference.randrange(n) for _ in draws]
        # The rejected tries were consumed too: the streams stay aligned.
        assert rng.getstate() == reference.getstate()
