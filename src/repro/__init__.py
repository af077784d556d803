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

    from repro.exp import KernelBuilder
    from repro.workloads.pipe_bench import run_pipe_benchmark

    session = (KernelBuilder("small8").with_native("cfs")
               .with_enoki("wfq", policy=7).build())
    result = run_pipe_benchmark(session.kernel, session.policy, rounds=2000)
    print(result.latency_us_per_message)

``repro.core``, ``repro.schedulers``, ``repro.obs`` and ``repro.verify``
are facades built by :func:`lazy_exports`: each names its exports once,
by the submodule that defines them, and ``from repro.core import
Recorder`` imports ``repro.core.record`` and nothing else.  The resolved
object is stored in the package's globals, so every later read is a
plain attribute hit.  :mod:`repro.simkernel` stays eager: a session runs
nearly all of it.
"""

from dataclasses import MISSING, fields
from functools import cache
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


#: the types a loaded value may have, by its field's annotation (the
#: annotation first, so error messages can name it)
_LOADABLE = {tuple: (tuple, list), float: (float, int)}


@cache
def _field_rules(cls):
    """Field name -> (loadable types, required, ``None`` allowed)."""
    return {f.name: (_LOADABLE.get(f.type, (f.type,)),
                     f.default is MISSING and f.default_factory is MISSING,
                     f.default is None)
            for f in fields(cls)}


def dataclass_kwargs(cls, data, error):
    """``data`` checked as keyword arguments for the dataclass ``cls``.

    Raises ``error`` naming the key when ``data`` is not a dict, a key is
    not a field, a field without a default is missing, or a value's type
    is not its field's.  A list loads as a tuple, an int as a float,
    ``None`` where the default is ``None``; a bool is not an int.
    """
    name = cls.__name__
    if type(data) is not dict:
        raise error(f"{name} must be a mapping, got {type(data).__name__}")
    rules = _field_rules(cls)
    for key in data:
        if key not in rules:
            unknown = sorted(repr(k) for k in data if k not in rules)
            raise error(f"unknown {name} field(s): " + ", ".join(unknown))
    for key, (types, required, none_ok) in rules.items():
        if key in data:
            value = data[key]
            if type(value) not in types and not (value is None and none_ok):
                raise error(f"{name} field {key!r} must be "
                            f"{types[0].__name__}, got {value!r}")
        elif required:
            raise error(f"{name} needs field {key!r}")
    return dict(data)
