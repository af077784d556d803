"""Enoki (EuroSys 2024) reproduction.

The package is layered exactly as DESIGN.md describes:

* :mod:`repro.simkernel` — a discrete-event Linux-like kernel (the substrate
  standing in for the patched Linux 5.11 kernel of the paper's artifact).
* :mod:`repro.core` — the Enoki framework itself: the message-passing
  scheduler API, ``Schedulable`` ownership tokens, live upgrade, hint
  queues, and record/replay.
* :mod:`repro.schedulers` — CFS (native baseline), the Enoki WFQ / FIFO /
  Shinjuku / locality-aware / Arachne-arbiter schedulers, and the ghOSt
  comparison model.
* :mod:`repro.workloads` — the paper's benchmarks (sched-pipe, schbench,
  RocksDB-style, memcached-style, application suites).
* :mod:`repro.analysis` — result statistics and table rendering.

Quickstart::

    from repro import Kernel, Topology
    from repro.core import EnokiSchedClass
    from repro.schedulers.wfq import EnokiWfq
    from repro.workloads.pipe_bench import run_pipe_benchmark

    kernel = Kernel(Topology.small8())
    EnokiSchedClass.register(kernel, EnokiWfq(nr_cpus=8), policy=7)
    result = run_pipe_benchmark(kernel, policy=7, rounds=2000)
    print(result.latency_us_per_message)

``repro.core``, ``repro.schedulers``, ``repro.obs`` and ``repro.verify``
are facades built by :func:`lazy_exports`: each names its exports once,
by the submodule that defines them, and ``from repro.core import
Recorder`` imports ``repro.core.record`` and nothing else.  The resolved
object is stored in the package's globals, so every later read is a
plain attribute hit.  :mod:`repro.simkernel` stays eager: a session runs
nearly all of it.
"""

from importlib import import_module

from repro.simkernel import Kernel, SimConfig, Topology

__version__ = "1.0.0"

__all__ = ["Kernel", "SimConfig", "Topology", "__version__"]


def lazy_exports(namespace, exports):
    """Bind ``exports`` (submodule -> space-separated names) to the
    package whose globals are ``namespace``.  Returns ``(__all__,
    __getattr__, __dir__)`` for the package to assign."""
    package = namespace["__name__"]
    where = {name: module for module, names in exports.items()
             for name in names.split()}

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return sorted(where), __getattr__, __dir__
