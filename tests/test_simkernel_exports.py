"""Public-API surface tests: the documented entry points exist, the
layering rules hold, and a session imports only the code it runs."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

from repro.exp.builder import SCHEDULERS, load
from tests.source_trees import parse

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: the simkernel modules on the per-event path (DESIGN §10's alias rule)
PER_EVENT_MODULES = ("events", "timers", "interp", "dispatch", "migration",
                     "groups", "lifecycle")

#: the facades whose names load their submodule on first use
LAZY_FACADES = ("repro.core", "repro.obs", "repro.schedulers",
                "repro.verify")

#: module name -> row, for every scheduler behind the Enoki shim
SHIM_ROWS = {row.path.split(":")[0].rpartition(".")[2]: row
             for row in SCHEDULERS.values()
             if row.kind in ("enoki", "arbiter")}


class TestPublicApi:
    def test_top_level_exports(self):
        import repro
        assert repro.Kernel is not None
        assert repro.SimConfig is not None
        assert repro.Topology is not None
        assert isinstance(repro.__version__, str)

    def test_simkernel_exports(self):
        from repro import simkernel
        for name in simkernel.__all__:
            assert getattr(simkernel, name, None) is not None, name

    def test_core_exports(self):
        from repro import core
        for name in core.__all__:
            assert getattr(core, name, None) is not None, name

    def test_schedulers_exports(self):
        from repro import schedulers
        for name in schedulers.__all__:
            assert getattr(schedulers, name, None) is not None, name

    def test_arachne_exports(self):
        from repro import arachne_rt
        for name in arachne_rt.__all__:
            assert getattr(arachne_rt, name, None) is not None, name


class TestLayering:
    def test_simkernel_does_not_import_core(self):
        """The substrate must not depend on the framework above it."""
        import repro.simkernel as simkernel
        from pathlib import Path

        package_dir = Path(inspect.getfile(simkernel)).parent
        for path in package_dir.glob("*.py"):
            text = path.read_text()
            assert "from repro.core" not in text, path.name
            assert "import repro.core" not in text, path.name

    def test_per_event_modules_read_task_states_through_aliases(self):
        """No function body on the per-event path loads a ``TaskState``
        member; each compares against a module-level alias instead."""
        import ast
        from pathlib import Path
        import repro.simkernel as simkernel

        package_dir = Path(inspect.getfile(simkernel)).parent
        found = []
        for name in PER_EVENT_MODULES:
            tree = parse(package_dir / f"{name}.py")
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                    continue
                found += [f"{name}.py:{node.lineno} TaskState.{node.attr}"
                          for node in ast.walk(fn)
                          if isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Load)
                          and isinstance(node.value, ast.Name)
                          and node.value.id == "TaskState"]
        assert not found

    def test_per_event_modules_subscript_the_class_map(self):
        """The per-event path finds a task's class with one subscript,
        ``k._class_cache[task.policy]``: no ``class_of(`` call and no
        ``_class_cache.get(`` (a hit costs no Python call)."""
        import ast
        from pathlib import Path
        import repro.simkernel as simkernel

        package_dir = Path(inspect.getfile(simkernel)).parent
        found = []
        for name in PER_EVENT_MODULES:
            tree = parse(package_dir / f"{name}.py")
            found += [
                f"{name}.py:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and (node.func.attr == "class_of"
                     or (node.func.attr == "get"
                         and isinstance(node.func.value, ast.Attribute)
                         and node.func.value.attr == "_class_cache"))]
        assert not found

    def test_only_proven_sites_write_task_state(self):
        """Every task-state transition goes through ``set_state``, whose
        table rejects an illegal one, except where the writer has just
        proved the old state: ``pick_and_switch`` (the pick walk proved
        RUNNABLE) and ``wake_task`` (it tests BLOCKED first)."""
        import ast
        from pathlib import Path
        import repro.simkernel as simkernel

        allowed = {("task.py", "TaskStruct.__init__"),
                   ("task.py", "TaskStruct.set_state"),
                   ("dispatch.py", "DispatchEngine.pick_and_switch"),
                   ("migration.py", "MigrationService.wake_task")}
        package_dir = Path(inspect.getfile(simkernel)).parent
        found = []
        for path in sorted(package_dir.glob("*.py")):
            tree = parse(path)
            owner = {node: f"{cls.name}.{fn.name}"
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for fn in cls.body if isinstance(fn, ast.FunctionDef)
                     for node in ast.walk(fn)}
            found += [(path.name, owner.get(node, "<outside a method>"))
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and node.attr == "state"]
        assert sorted(found) == sorted(allowed)

    def test_queue_policies_push_only_in_enqueue(self):
        """Every token a queue policy holds enters through one method:
        no ``.push(`` / ``.push_back(`` outside ``_enqueue``."""
        import ast
        from pathlib import Path
        import repro.schedulers as schedulers

        #: ROADMAP item 2(c): Shinjuku's migrants jump to the global front
        allowed = {("shinjuku", "migrate_task_rq")}
        package_dir = Path(inspect.getfile(schedulers)).parent
        found = []

        def visit(module, node, function):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("push", "push_back")
                    and function != "_enqueue"
                    and (module, function) not in allowed):
                found.append(f"{module}.py:{node.lineno} in {function}")
            for child in ast.iter_child_nodes(node):
                visit(module, child, function)

        for module in ("base", *SHIM_ROWS):
            tree = parse(package_dir / f"{module}.py")
            visit(module, tree, None)
        assert not found

    def test_enoki_schedulers_do_not_touch_the_kernel(self):
        """Enoki scheduler modules import only the trait layer and task
        constants — never the Kernel or SchedClass (paper: schedulers are
        pure policy)."""
        from pathlib import Path
        import repro.schedulers as schedulers

        package_dir = Path(inspect.getfile(schedulers)).parent
        for name in SHIM_ROWS:
            text = (package_dir / f"{name}.py").read_text()
            assert "simkernel.kernel" not in text, name
            assert "sched_class" not in text, name

    def test_every_public_module_has_a_docstring(self):
        import importlib
        import pkgutil
        import repro

        for info in pkgutil.walk_packages(repro.__path__,
                                          prefix="repro."):
            if info.name.endswith("__main__"):
                continue   # importing it would run the CLI
            module = importlib.import_module(info.name)
            assert module.__doc__, f"{info.name} lacks a module docstring"

    def test_all_enoki_schedulers_implement_the_trait(self):
        from repro.core.trait import EnokiScheduler

        for row in SHIM_ROWS.values():
            cls = load(row)
            assert issubclass(cls, EnokiScheduler)
            # And each declares its upgrade transfer type (or None).
            assert hasattr(cls, "TRANSFER_TYPE")


class TestSchedulerTable:
    def test_every_scheduler_module_has_a_row(self):
        from pathlib import Path
        import repro.schedulers as schedulers

        package_dir = Path(inspect.getfile(schedulers)).parent
        listed = {row.path.split(":")[0] for row in SCHEDULERS.values()}
        for path in package_dir.glob("*.py"):
            if path.stem not in ("__init__", "base"):
                assert f"repro.schedulers.{path.stem}" in listed, path.name

    @pytest.mark.parametrize("name", sorted(SCHEDULERS))
    def test_every_row_resolves(self, name):
        assert callable(load(SCHEDULERS[name]))

    def test_the_fuzz_pool_is_the_table_rows_that_admit_it(self):
        from repro.verify import SCHEDULER_NAMES
        assert SCHEDULER_NAMES == ("eevdf", "fifo", "serverless", "wfq")
        for name in SCHEDULER_NAMES:
            assert SCHEDULERS[name].kind == "enoki", name
            assert not SCHEDULERS[name].upgrade, name


def repro_modules_after(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    script = (code + "\nimport sys\nprint(*sorted(m for m in sys.modules "
              "if m.split('.')[0] == 'repro'))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    return set(done.stdout.split())


def session_modules(sched):
    return repro_modules_after(
        "from repro.exp import KernelBuilder, ScenarioSpec\n"
        f"KernelBuilder.session_from_spec(ScenarioSpec(sched={sched!r}))")


def under(modules, package):
    return {m for m in modules if m == package or m.startswith(package + ".")}


class TestImportGraph:
    """What a session loads is what it costs to start: every process
    compiles the modules it imports.  Pinned exactly, in fresh
    interpreters."""

    def test_native_cfs_session_loads_no_framework(self):
        loaded = session_modules("cfs")
        for package in ("repro.core", "repro.obs", "repro.verify"):
            assert not under(loaded, package), package
        assert under(loaded, "repro.schedulers") == {
            "repro.schedulers", "repro.schedulers.cfs"}

    def test_wfq_session_loads_its_scheduler_and_no_service(self):
        loaded = session_modules("wfq")
        assert under(loaded, "repro.schedulers") == {
            "repro.schedulers", "repro.schedulers.base",
            "repro.schedulers.cfs", "repro.schedulers.wfq"}
        for service in ("upgrade", "replay", "watchdog", "faults", "record"):
            assert f"repro.core.{service}" not in loaded, service

    def test_importing_verify_loads_none_of_it(self):
        loaded = repro_modules_after("import repro.verify")
        assert under(loaded, "repro.verify") == {"repro.verify"}

    def test_listing_enoki_schedulers_imports_none(self):
        loaded = repro_modules_after(
            "from repro.exp import enoki_scheduler_names\n"
            "assert 'wfq' in enoki_scheduler_names()")
        assert not under(loaded, "repro.schedulers")

    @pytest.mark.parametrize("package", LAZY_FACADES)
    def test_facade_names_resolve_and_are_listed(self, package):
        module = importlib.import_module(package)
        listed = dir(module)
        for name in module.__all__:
            assert name in listed, name
            assert getattr(module, name) is not None, name
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
