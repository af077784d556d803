"""Public-API surface tests: the documented entry points exist, the
layering rules hold, and a session imports only the code it runs."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: the facades whose names load their submodule on first use
LAZY_FACADES = ("repro.core", "repro.obs", "repro.schedulers",
                "repro.verify")


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

    def test_enoki_schedulers_do_not_touch_the_kernel(self):
        """Enoki scheduler modules import only the trait layer and task
        constants — never the Kernel or SchedClass (paper: schedulers are
        pure policy)."""
        from pathlib import Path
        import repro.schedulers as schedulers

        package_dir = Path(inspect.getfile(schedulers)).parent
        enoki_files = ["wfq.py", "fifo.py", "shinjuku.py", "locality.py",
                       "arachne.py", "nest.py"]
        for name in enoki_files:
            text = (package_dir / name).read_text()
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
        from repro.schedulers import (
            EnokiCoreArbiter,
            EnokiFifo,
            EnokiLocality,
            EnokiNest,
            EnokiShinjuku,
            EnokiWfq,
        )

        for cls in (EnokiCoreArbiter, EnokiFifo, EnokiLocality, EnokiNest,
                    EnokiShinjuku, EnokiWfq):
            assert issubclass(cls, EnokiScheduler)
            # And each declares its upgrade transfer type (or None).
            assert hasattr(cls, "TRANSFER_TYPE")


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
        for package in ("repro.core", "repro.obs", "repro.verify",
                        "repro.cluster"):
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
        assert not under(loaded, "repro.cluster")
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
