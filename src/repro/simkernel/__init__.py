"""A discrete-event simulation of a Linux-like multicore kernel.

This package is the *substrate* of the Enoki reproduction.  The real Enoki
runs inside a patched Linux 5.11 kernel; here the kernel — per-CPU run
queues, context switches, timer ticks, pipes, futexes, wakeup IPIs, idle
states — is simulated with a nanosecond-resolution virtual clock, while the
Enoki framework (``repro.core``) and the schedulers (``repro.schedulers``)
operate on exactly the callback sequence a real kernel would deliver.

Public entry points:

* :class:`~repro.simkernel.kernel.Kernel` — the machine.
* :class:`~repro.simkernel.config.SimConfig` — the calibrated cost model.
* :class:`~repro.simkernel.topology.Topology` — the CPU layout.
* :mod:`~repro.simkernel.program` — the op vocabulary for task programs.
"""

from repro.simkernel.clock import Clock
from repro.simkernel.config import SimConfig
from repro.simkernel.dispatch import DispatchEngine
from repro.simkernel.errors import SimError, SchedulingError
from repro.simkernel.events import EventQueue
from repro.simkernel.futex import Futex
from repro.simkernel.groups import GroupManager, TaskGroup
from repro.simkernel.interp import OpInterpreter
from repro.simkernel.kernel import Kernel
from repro.simkernel.lifecycle import LifecycleManager
from repro.simkernel.migration import MigrationService
from repro.simkernel.pipe import Pipe
from repro.simkernel.program import (
    Call,
    Exit,
    FutexWait,
    FutexWake,
    PipeRead,
    PipeWrite,
    RecvHints,
    Run,
    SemDown,
    SemUp,
    SendHint,
    SetAffinity,
    SetNice,
    Sleep,
    Spawn,
    YieldCpu,
)
from repro.simkernel.sched_class import SchedClass
from repro.simkernel.snapshot import KernelImage, SnapshotError, capture
from repro.simkernel.semaphore import Semaphore
from repro.simkernel.task import TaskState, TaskStruct
from repro.simkernel.topology import Topology
from repro.simkernel.tracing import SchedTracer

__all__ = [
    "Call",
    "Clock",
    "DispatchEngine",
    "EventQueue",
    "Exit",
    "Futex",
    "FutexWait",
    "FutexWake",
    "GroupManager",
    "Kernel",
    "KernelImage",
    "LifecycleManager",
    "MigrationService",
    "OpInterpreter",
    "Pipe",
    "PipeRead",
    "PipeWrite",
    "RecvHints",
    "Run",
    "SchedClass",
    "SchedTracer",
    "SchedulingError",
    "SemDown",
    "SemUp",
    "Semaphore",
    "SendHint",
    "SetAffinity",
    "SetNice",
    "SimConfig",
    "SimError",
    "Sleep",
    "SnapshotError",
    "Spawn",
    "TaskGroup",
    "TaskState",
    "TaskStruct",
    "Topology",
    "capture",
    "YieldCpu",
]
