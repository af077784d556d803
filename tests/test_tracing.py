"""Tests for the scheduling tracer."""

import ast
import re
from pathlib import Path

import pytest

from repro.exp import KernelBuilder, ScenarioSpec
from repro.obs import Observer
from repro.obs.observer import _EVENT_COUNTERS, _VALUE_METRICS
from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel import Kernel, SimConfig, SimError, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel import tracing
from repro.simkernel.tracing import (EVENTS, SchedTracer, TraceEvent,
                                     field_index)
from repro.verify.sanitizers import (DEFAULT_SANITIZERS, LockSanitizer,
                                     TokenSanitizer)

from tests.source_trees import trees
from tests.test_verify import ROUTING_TABLE


def make_kernel(nr_cpus=2):
    kernel = Kernel(Topology.smp(nr_cpus), SimConfig())
    kernel.register_sched_class(NativeFifoClass(policy=1), priority=10)
    return kernel


class TestTracer:
    def test_records_dispatches_and_idles(self):
        kernel = make_kernel()
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(100))
            yield Sleep(usecs(50))
            yield Run(usecs(100))

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        summary = tracer.summary()
        assert summary.get("dispatch", 0) >= 2
        assert summary.get("idle", 0) >= 1
        assert tracer.events_for_pid(task.pid)

    def test_timeline_reconstruction(self):
        kernel = make_kernel(nr_cpus=1)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(200))

        task = kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        spans = tracer.timeline(cpu=0)
        busy = [s for s in spans if s[2] == task.pid]
        assert busy
        total = sum(end - start for start, end, _pid in busy)
        assert total >= usecs(150)

    def test_busy_ns_matches_kernel_accounting(self):
        kernel = make_kernel(nr_cpus=1)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(500))

        kernel.spawn(prog, policy=1)
        kernel.run_until_idle()
        traced = tracer.busy_ns(0)
        accounted = kernel.stats.cpus[0].busy_ns
        # The tracer sees dispatch boundaries; accounting sees runtimes.
        assert abs(traced - accounted) < usecs(50)

    def test_capacity_bound_and_drop_count(self):
        tracer = SchedTracer(capacity=10)
        for i in range(25):
            tracer._hook("dispatch", i, 0, (), pid=1)
        assert len(tracer.events) == 10
        assert tracer.dropped == 15

    def test_capacity_zero_counts_and_retains_nothing(self):
        tracer = SchedTracer(capacity=0)
        for i in range(5):
            tracer._hook("dispatch", i, 0, (), pid=1)
        assert len(tracer.events) == 0
        assert tracer.retained == tracer.dropped == 5

    @pytest.mark.parametrize("capacity", [True, False, -1, 2.5, "8", None])
    def test_bad_capacity_raises_sim_error(self, capacity):
        with pytest.raises(SimError, match=re.escape(repr(capacity))):
            SchedTracer(capacity=capacity)

    def test_string_kinds_raises_sim_error(self):
        """A bare string would be a set of its characters and silently
        filter out every event."""
        with pytest.raises(SimError, match="'dispatch'"):
            SchedTracer(kinds="dispatch")
        kernel = make_kernel()
        with pytest.raises(SimError, match="'dispatch'"):
            Observer.attach(kernel, kinds="dispatch")
        assert kernel.trace is None
        session = KernelBuilder.session_from_spec(
            ScenarioSpec(sched="wfq", topology="smp:2"))
        with pytest.raises(SimError, match="'idle'"):
            session.attach_observer(kinds="idle")

    def test_detach_restores_hook(self):
        kernel = make_kernel()
        tracer = SchedTracer.attach(kernel)
        tracer.detach()
        assert kernel.trace is None

    def test_switch_count_filterable(self):
        kernel = make_kernel(nr_cpus=2)
        tracer = SchedTracer.attach(kernel)

        def prog():
            yield Run(usecs(50))

        kernel.spawn(prog, policy=1, origin_cpu=0)
        kernel.spawn(prog, policy=1, origin_cpu=1)
        kernel.run_until_idle()
        assert tracer.switch_count() == (tracer.switch_count(0)
                                         + tracer.switch_count(1))

    def test_event_str(self):
        event = TraceEvent(t_ns=1_500_000, kind="dispatch", cpu=3, pid=9)
        text = str(event)
        assert "cpu3" in text and "pid=9" in text


# ----------------------------------------------------------------------
# the positional intake
# ----------------------------------------------------------------------

#: what an emit site calls: the trace hook (``trace``, or ``_trace`` as
#: the spin locks hold it), the intake ``_hook`` or a lock or token tap
HOOK_NAMES = frozenset({"trace", "_trace", "_hook", "on_event"})


def emit_sites(modules):
    """``(where, kind, keys, value nodes, call)`` for every emit site in
    ``modules`` (``(path, tree)`` pairs); ``keys`` is ``None`` unless the
    site passes a name it imports from the table."""
    for path, tree in modules:
        imported = {alias.asname or alias.name: alias.name
                    for node in tree.body if isinstance(node, ast.ImportFrom)
                    and node.module == "repro.simkernel.tracing"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else None)
            if name not in HOOK_NAMES:
                continue
            keys = node.args[3] if len(node.args) > 3 else None
            keys = (getattr(tracing, imported[keys.id])
                    if isinstance(keys, ast.Name) and keys.id in imported
                    else None)
            yield (f"{path.name}:{node.lineno}", node.args[0].value, keys,
                   node.args[4:], node)


def bad_sites(sites):
    """What is wrong with each emit site: keys the table does not list
    for its kind, a value count other than one per key, or a keyword
    other than ``pid`` and ``cost``."""
    bad = []
    for where, kind, keys, values, call in sites:
        if keys not in EVENTS.get(kind, ("", ()))[1]:
            bad.append(f"{where} {kind}: keys not in the table")
        elif len(values) != len(keys) or any(
                isinstance(value, ast.Starred) for value in values):
            bad.append(f"{where} {kind}: keys and values differ")
        if {k.arg for k in call.keywords} - {"pid", "cost"}:
            bad.append(f"{where} {kind}: keywords "
                       f"{[k.arg for k in call.keywords]}")
    return bad


def static_keys():
    """kind -> the keys tuples its emit sites may pass."""
    return {kind: set(keys) for kind, (_by, keys) in EVENTS.items()}


def positional_reads():
    """``(field, kinds)`` for every field a sink reads by position: the
    sanitizers' lock and generation, the Observer's fields."""
    return ([("lock", LockSanitizer.KINDS),
             ("gen", TokenSanitizer.KINDS - {"dispatch"})]
            + [(field, {kind}) for kind, (_family, _name, field)
               in _VALUE_METRICS.items() if field is not None]
            + [(field, {kind}) for kind, names in _EVENT_COUNTERS.items()
               for name in names for field in re.findall(r"{(\w+)}", name)])


PLANTED = """
from repro.simkernel.tracing import GEN, LOCK
MINE = ("lock",)
def emit(trace):
    trace("lock_acquire", 0, 0, LOCK, 1)
    trace("lock_acquire", 0, 0, GEN, 1)
    trace("lock_acquire", 0, 0, MINE, 1)
    trace("lock_acquire", 0, 0, LOCK)
"""


class TestPositionalIntake:
    def test_every_emit_site_passes_a_keys_constant_and_one_value_each(self):
        sites = list(emit_sites(trees("src/repro")))
        assert bad_sites(sites) == []
        assert len(sites) >= 38
        # Every keys tuple of the table still has an emit site.
        assert {(kind, keys) for _where, kind, keys, _values, _call
                in sites} == {(kind, keys) for kind, variants
                              in static_keys().items() for keys in variants}
        # A planted site off the table fails.
        planted = [(Path("planted.py"), ast.parse(PLANTED))]
        assert [line.split(" ", 1)[1]
                for line in bad_sites(emit_sites(planted))] == [
            "lock_acquire: keys not in the table",
            "lock_acquire: keys not in the table",
            "lock_acquire: keys and values differ"]

    def test_each_field_a_sink_reads_by_position_is_at_its_index(
            self, monkeypatch):
        for field, kinds in positional_reads():
            field_index(field, kinds)   # raises unless every variant agrees
        # A variant that orders its keys otherwise, or drops the field,
        # fails.
        for kind, variant, field in (
                ("lock_release", ("thread", "lock"), "lock"),
                ("token_issue", (), "gen"),
                ("hint_enqueue", ("depth", "queue"), "depth")):
            by, variants = EVENTS[kind]
            monkeypatch.setitem(EVENTS, kind, (by, (*variants, variant)))
            with pytest.raises(SimError, match=repr(field)):
                field_index(field, {kind})

    def test_every_kind_a_sink_routes_is_in_the_table(self):
        """A misspelled kind would route nothing, silently."""
        routed = set(_VALUE_METRICS) | set(_EVENT_COUNTERS)
        for cls in DEFAULT_SANITIZERS:
            routed |= (cls.KINDS or set()) | getattr(cls, "SCAN_KINDS", set())
        assert routed - set(EVENTS) == set()

    @pytest.mark.parametrize("kind", sorted(ROUTING_TABLE))
    @pytest.mark.parametrize("cost", [0, 7])
    def test_a_positional_emission_round_trips(self, kind, cost):
        """The ring yields the event the keyword payload names, and the
        sinks read that payload, in the emitter's order, ``cost`` last."""
        for keys in sorted(static_keys().get(kind,
                                             {("lock", "gen", "zeta")})):
            values = tuple(f"{kind}.{key}" for key in keys)
            payload = dict(zip(keys, values))
            tracer, seen = SchedTracer(), []
            tracer.add_route(
                lambda kind: lambda kind, t, cpu, pid, cost, keys, values:
                seen.append(list(zip(keys, values))
                            + ([("cost", cost)] if cost else [])))
            tracer._hook(kind, 5, 1, keys, *values, pid=3, cost=cost)
            assert list(tracer.events) == [TraceEvent(
                5, kind, 1, 3, cost, tuple(sorted(payload.items())))]
            assert seen == [list(payload.items())
                            + ([("cost", cost)] if cost else [])]
