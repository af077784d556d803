"""Source file -> layer.  Every file under ``src/repro`` maps to exactly
one layer; everything else (builtins, stdlib, perfbench's own frames) is
``host``.  Layers are this repo's modules, named as DESIGN.md names them.
"""

import os

#: the twenty layers, outside-in order of one simulated operation
LAYERS = (
    "workload", "exp", "verify", "obs", "record", "resilience", "cluster",
    "policy", "shim", "tokens", "hints", "groups", "migration", "dispatch",
    "interp", "timers", "events", "snapshot", "kernel", "host",
)

#: (path prefix relative to src/repro, layer); first match wins, so the
#: single-file rules sit above their directory's catch-all
RULES = (
    ("simkernel/events.py", "events"),
    ("simkernel/timers.py", "timers"),
    ("simkernel/interp.py", "interp"),
    ("simkernel/program.py", "interp"),
    ("simkernel/dispatch.py", "dispatch"),
    ("simkernel/migration.py", "migration"),
    ("simkernel/groups.py", "groups"),
    ("simkernel/snapshot.py", "snapshot"),
    ("simkernel/", "kernel"),
    ("core/schedulable.py", "tokens"),
    ("core/hints.py", "hints"),
    ("core/record.py", "record"),
    ("core/replay.py", "record"),
    ("core/faults.py", "resilience"),
    ("core/failover.py", "resilience"),
    ("core/watchdog.py", "resilience"),
    ("core/upgrade.py", "resilience"),
    ("core/", "shim"),
    ("schedulers/", "policy"),
    ("obs/", "obs"),
    ("verify/", "verify"),
    ("exp/", "exp"),
    ("analysis/", "exp"),
    ("cli.py", "exp"),
    ("__init__.py", "exp"),
    ("__main__.py", "exp"),
    ("workloads/", "workload"),
    ("arachne_rt/", "workload"),
    ("cluster/", "cluster"),
)

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of_module(relpath):
    """Layer of a path relative to ``src/repro`` (``/``-separated), or
    None when no rule covers it — test_selfcheck fails on that."""
    for prefix, layer in RULES:
        if relpath == prefix or (prefix.endswith("/")
                                 and relpath.startswith(prefix)):
            return layer
    return None


def layer_of(filename):
    """Layer of a profiler-reported source filename (``host`` for
    builtins and anything outside ``src/repro``)."""
    at = filename.rfind(_PACKAGE_MARK)
    if at < 0:
        return "host"
    relpath = filename[at + len(_PACKAGE_MARK):].replace(os.sep, "/")
    layer = layer_of_module(relpath)
    if layer is None:
        raise KeyError(f"no layer for src/repro/{relpath}; add a rule to "
                       "perfbench/layers.py")
    return layer
