"""Tests for the scheduling tracer."""

import ast
import re

import pytest

from repro.exp import KernelBuilder, ScenarioSpec
from repro.obs import Observer
from repro.obs.observer import _VALUE_METRICS
from repro.schedulers.fifo_native import NativeFifoClass
from repro.simkernel import Kernel, SimConfig, SimError, Topology
from repro.simkernel.clock import usecs
from repro.simkernel.program import Run, Sleep
from repro.simkernel.tracing import SchedTracer, TraceEvent
from repro.verify.sanitizers import LockSanitizer, TokenSanitizer

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


def _module_keys(tree):
    """Module-level ``NAME = ("field", ...)`` constants: name -> node."""
    return {node.targets[0].id: node.value for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)}


def emit_sites():
    """``(where, kind, keys node, value nodes, call)`` for every emit
    site under ``src/repro``, its keys constant resolved."""
    for path, tree in trees("src/repro"):
        constants = _module_keys(tree)
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
            where = f"{path.name}:{node.lineno}"
            keys = node.args[3] if len(node.args) > 3 else None
            if isinstance(keys, ast.Name):
                keys = constants.get(keys.id)
            yield where, node.args[0].value, keys, node.args[4:], node


def _pairs(keys, values):
    """A key matches a value; ``*fields`` matches ``*fields.values()``."""
    if len(keys.elts) != len(values):
        return False
    for key, value in zip(keys.elts, values):
        if isinstance(key, ast.Starred):
            if not (isinstance(value, ast.Starred)
                    and isinstance(value.value, ast.Call)
                    and ast.unparse(value.value)
                    == f"{ast.unparse(key.value)}.values()"):
                return False
        elif not (isinstance(key, ast.Constant)
                  and isinstance(key.value, str)
                  and not isinstance(value, ast.Starred)):
            return False
    return True


def static_keys():
    """kind -> the field-name tuples its emit sites pass (the static
    prefix of a computed one)."""
    out = {}
    for _where, kind, keys, _values, _call in emit_sites():
        out.setdefault(kind, set()).add(tuple(
            key.value for key in keys.elts if isinstance(key, ast.Constant)))
    return out


#: kind -> {field: the index its sinks read it at}, for every field a
#: sink reads off the payload by position: the lock sanitizer's lock, the
#: token sanitizer's generation and the Observer's ring-depth gauge
READ_BY_POSITION = {
    **{kind: {"lock": 0} for kind in LockSanitizer.KINDS},
    **{kind: {"gen": 0} for kind in TokenSanitizer.KINDS - {"dispatch"}},
    "hint_enqueue": {"depth": _VALUE_METRICS["hint_enqueue"][2]},
}


def misplaced(emitted):
    """``(kind, keys, field)`` for each emit site's keys tuple that does
    not hold a field its sinks read by position at that index."""
    return [(kind, keys, field)
            for kind, fields in sorted(READ_BY_POSITION.items())
            for keys in sorted(emitted.get(kind, ()))
            for field, index in sorted(fields.items())
            if keys[index:index + 1] != (field,)]


class TestPositionalIntake:
    def test_every_emit_site_passes_a_keys_constant_and_one_value_each(self):
        bad, sites = [], 0
        for where, kind, keys, values, call in emit_sites():
            sites += 1
            if keys is None or not _pairs(keys, values):
                bad.append(f"{where} {kind}: keys and values differ")
            if {k.arg for k in call.keywords} - {"pid", "cost"}:
                bad.append(f"{where} {kind}: keywords "
                           f"{[k.arg for k in call.keywords]}")
        assert bad == []
        assert sites >= 34

    def test_each_field_a_sink_reads_by_position_is_at_its_index(self):
        emitted = static_keys()
        assert set(READ_BY_POSITION) <= set(emitted)
        assert misplaced(emitted) == []
        # A site that orders its keys otherwise, or drops the field, fails.
        assert misplaced({"lock_release": {("thread", "lock")},
                          "token_issue": {()},
                          "hint_enqueue": {("depth", "queue")}}) == [
            ("hint_enqueue", ("depth", "queue"), "depth"),
            ("lock_release", ("thread", "lock"), "lock"),
            ("token_issue", (), "gen")]

    @pytest.mark.parametrize("kind", sorted(ROUTING_TABLE))
    @pytest.mark.parametrize("cost", [0, 7])
    def test_a_positional_emission_round_trips(self, kind, cost):
        """The ring yields the event the keyword payload names, and the
        sinks read that payload, in the emitter's order, ``cost`` last."""
        emitted = static_keys()
        assert kind in emitted or kind in {"never_heard_of_it",
                                           "rwlock_downgrade"}
        for keys in sorted(emitted.get(kind, {("lock", "gen", "zeta")})):
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
