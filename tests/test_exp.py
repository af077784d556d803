"""Tests for the ``repro.exp`` session layer and the bench runner.

Covers the spec's JSON/hash identity, the typed loader behind it, every
builder path (native, Enoki,
ghOSt, declarative from-spec), seed threading into the kernel RNG, and
the bench runner's core promise: results identical at any worker count,
with or without cache hits.
"""

import json
import re
from dataclasses import dataclass, replace

import pytest

from repro import dataclass_kwargs
from repro.core import FaultPlan, FaultSpec
from repro.core.errors import FaultError
from repro.exp import (
    KernelBuilder,
    ScenarioSpec,
    Session,
    canonical_fault_plan,
    enoki_scheduler_names,
    parse_topology,
)
from repro.exp.bench import (
    BenchCache,
    derive_seed,
    deterministic_payload,
    run_spec,
    run_sweep,
)
from repro.simkernel import Topology
from repro.simkernel.clock import msecs
from repro.simkernel.errors import SimError


class TestScenarioSpec:
    def test_round_trips_through_json(self):
        spec = ScenarioSpec(name="x", topology="smp:4", seed=9,
                            sched="wfq", workload="pipe",
                            workload_options={"rounds": 10})
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_hash_is_stable_and_content_sensitive(self):
        spec = ScenarioSpec(name="x", seed=1)
        assert spec.spec_hash() == ScenarioSpec(name="x", seed=1).spec_hash()
        assert spec.spec_hash() != spec.with_seed(2).spec_hash()

    def test_parse_topology_forms(self):
        assert parse_topology("small8").nr_cpus == 8
        assert parse_topology("big80").nr_cpus == 80
        smp = parse_topology("smp:4:2")
        assert smp.nr_cpus == 4
        topo = Topology.smp(2)
        assert parse_topology(topo) is topo
        with pytest.raises(SimError):
            parse_topology("hexagonal")

    @pytest.mark.parametrize("desc", [
        "smp:x", "smp:", "smp:4:", "smp:0", "smp:4:0", "smp:-4",
        "smp:1:1:1:1"])
    def test_a_malformed_smp_topology_is_named(self, desc):
        with pytest.raises(SimError, match=re.escape(repr(desc))):
            parse_topology(desc)

    def test_an_unknown_field_is_named_not_dropped(self):
        # a typo must not quietly run the default (CFS) scheduler
        with pytest.raises(SimError, match="'schd'"):
            ScenarioSpec.from_dict({"schd": "wfq"})

    @pytest.mark.parametrize("data, named", [
        ({"seed": "x"}, "'seed'"), ({"upgrade_at_ns": "5"}, "'upgrade_at_ns'"),
        ({"policy": True}, "'policy'"), ({"topology": 8}, "'topology'"),
        ({"record": 1}, "'record'"), ({"config": []}, "'config'"),
        ({"groups": "g0"}, "'groups'"), ({"fault_plan": "x"}, "'fault_plan'"),
        (["pipe"], "must be a mapping"),
        # nested values: each group, SLO and config override
        ({"groups": [{"name": "a", "weight": "x"}]}, "'weight'"),
        ({"groups": [{"name": "a", "weight": "5"}]}, "'weight'"),
        ({"config": {"enoki_call_ns": "x"}}, "'enoki_call_ns'"),
        ({"config": {"nonexistent_key": 1}}, "'nonexistent_key'"),
        ({"slos": [{"name": "x"}]}, "'metric'"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_a_wrong_typed_value_is_named_at_load(self, data, named):
        with pytest.raises(SimError, match=named):
            ScenarioSpec.from_dict(data)


@dataclass(frozen=True)
class _Shape:
    name: str
    sizes: tuple = ()
    scale: float = 1.0
    count: int = 0
    note: str = None


class TestDataclassKwargs:
    """The one type check every spec and fault-plan loader goes through."""

    def test_a_list_or_tuple_loads_for_a_tuple_field(self):
        for sizes in ([1, 2], (1, 2)):
            data = {"name": "a", "sizes": sizes}
            assert dataclass_kwargs(_Shape, data, SimError) == data

    def test_an_int_loads_for_a_float_field_but_not_the_reverse(self):
        assert dataclass_kwargs(_Shape, {"name": "a", "scale": 2},
                                SimError)["scale"] == 2
        with pytest.raises(SimError, match="'count' must be int, got 2.0"):
            dataclass_kwargs(_Shape, {"name": "a", "count": 2.0}, SimError)

    def test_a_bool_is_not_an_int(self):
        with pytest.raises(SimError, match="'count' must be int, got True"):
            dataclass_kwargs(_Shape, {"name": "a", "count": True}, SimError)

    def test_none_loads_only_where_the_default_is_none(self):
        assert dataclass_kwargs(_Shape, {"name": "a", "note": None},
                                SimError)["note"] is None
        for key in ("name", "count"):
            with pytest.raises(SimError, match=repr(key)):
                dataclass_kwargs(_Shape, {"name": "a", key: None}, SimError)

    def test_every_unknown_key_is_named(self):
        with pytest.raises(SimError, match="'aa', 'zz'"):
            dataclass_kwargs(_Shape, {"name": "a", "zz": 1, "aa": 2},
                             SimError)

    def test_a_missing_required_field_is_named(self):
        with pytest.raises(SimError, match="_Shape needs field 'name'"):
            dataclass_kwargs(_Shape, {"count": 1}, SimError)

    def test_the_caller_names_the_error_class(self):
        with pytest.raises(FaultError, match="must be a mapping, got list"):
            dataclass_kwargs(_Shape, [("name", "a")], FaultError)

    def test_the_result_is_a_copy(self):
        data = {"name": "a"}
        out = dataclass_kwargs(_Shape, data, SimError)
        out["count"] = 3
        assert data == {"name": "a"}


class TestFaultPlanCacheKeys:
    def test_fault_plan_changes_hash(self):
        clean = ScenarioSpec(name="x", workload="pipe")
        faulted = ScenarioSpec(name="x", workload="pipe",
                               fault_plan=FaultPlan.builtin("tick-crash"))
        assert clean.spec_hash() != faulted.spec_hash()

    def test_plan_object_and_sparse_dict_hash_identically(self):
        # The sparse spelling leaves out every field at its default.
        plan = FaultPlan.builtin("rampage")
        default = FaultSpec(kind="raise").to_dict()
        sparse = {"name": plan.name, "description": plan.description,
                  "specs": [{k: v for k, v in s.to_dict().items()
                             if k == "kind" or v != default[k]}
                            for s in plan.specs]}
        as_object = ScenarioSpec(name="x", workload="pipe",
                                 fault_plan=plan)
        as_sparse = ScenarioSpec(name="x", workload="pipe",
                                 fault_plan=sparse)
        assert as_object.spec_hash() == as_sparse.spec_hash()

    def test_canonical_fault_plan_round_trips(self):
        plan = FaultPlan.builtin("rampage")
        canonical = canonical_fault_plan(plan)
        assert canonical == canonical_fault_plan(canonical)
        assert canonical_fault_plan(None) is None


class TestKernelBuilder:
    def test_native_stack(self):
        session = KernelBuilder().with_native("cfs").build()
        assert isinstance(session, Session)
        assert session.policy == 0
        assert session.shim is None
        assert len(session.kernel._classes) == 1

    def test_enoki_stack_provides_shim_and_factory(self):
        session = (KernelBuilder()
                   .with_native("cfs", policy=0, priority=5)
                   .with_enoki("wfq", policy=7, priority=10)
                   .build())
        assert session.policy == 7
        assert session.shim is not None
        assert session.shim is session.sched_class()
        fresh = session.scheduler_factory()
        assert type(fresh) is type(session.shim.scheduler)
        assert fresh is not session.shim.scheduler

    def test_unknown_names_rejected(self):
        with pytest.raises(SimError):
            KernelBuilder().with_native("bogus")
        with pytest.raises(SimError):
            KernelBuilder().with_enoki("bogus")

    @pytest.mark.parametrize("field", ("sched", "base_sched"))
    def test_from_spec_rejects_an_unknown_scheduler(self, field):
        """Read time, not build time, and the error lists the names."""
        spec = ScenarioSpec(**{"sched": "wfq", field: "ghost_bogus"})
        with pytest.raises(SimError, match="'ghost_bogus'; valid: cfs, "):
            KernelBuilder.from_spec(spec)

    def test_with_enoki_takes_a_policy_class(self):
        from repro.schedulers.wfq import EnokiWfq

        class Marked(EnokiWfq):
            pass

        session = KernelBuilder().with_enoki(Marked).build()
        assert type(session.shim.scheduler) is Marked
        assert type(session.scheduler_factory()) is Marked

    def test_seed_threads_into_kernel_rng(self):
        session = KernelBuilder(seed=123).with_native("cfs").build()
        assert session.kernel.config.seed == 123
        a = KernelBuilder(seed=5).with_native("cfs").build().kernel
        b = KernelBuilder(seed=5).with_native("cfs").build().kernel
        assert ([a._rng.randrange(100) for _ in range(4)]
                == [b._rng.randrange(100) for _ in range(4)])

    def test_registry_names(self):
        names = enoki_scheduler_names()
        assert {"wfq", "fifo", "eevdf", "shinjuku", "locality"} <= set(names)

    def test_from_spec_native(self):
        session = KernelBuilder.session_from_spec(
            ScenarioSpec(sched="cfs", topology="smp:2"))
        assert session.policy == 0
        assert len(session.kernel._classes) == 1

    def test_from_spec_enoki(self):
        spec = ScenarioSpec(sched="eevdf", topology="smp:2", seed=4)
        session = KernelBuilder.session_from_spec(spec)
        assert session.policy == 7
        assert session.shim is not None
        assert session.kernel.config.seed == 4
        assert len(session.kernel._classes) == 2

    def test_from_spec_ghost(self):
        from repro.schedulers.ghost import GHOST_POLICY
        session = KernelBuilder.session_from_spec(
            ScenarioSpec(sched="ghost_sol"))
        assert session.policy == GHOST_POLICY

    def test_from_spec_fault_plan_wires_containment(self):
        from repro.core import FaultPlan, FaultSpec
        plan = FaultPlan.builtin(FaultPlan.builtin_names()[0]).to_dict()
        spec = ScenarioSpec(sched="wfq", topology="smp:2", fault_plan=plan)
        session = KernelBuilder.session_from_spec(spec)
        assert session.injector is not None
        assert session.watchdog is not None
        session.stop()

    def test_fault_install_requires_shim(self):
        from repro.core import FaultPlan, FaultSpec
        session = KernelBuilder().with_native("cfs").build()
        plan = FaultPlan.builtin(FaultPlan.builtin_names()[0])
        with pytest.raises(SimError):
            session.install_faults(plan)


def _tiny_specs():
    return [
        ScenarioSpec(name="a", sched="cfs", seed=derive_seed(0, 0),
                     workload="pipe", workload_options={"rounds": 30}),
        ScenarioSpec(name="b", sched="wfq", seed=derive_seed(0, 1),
                     workload="pipe", workload_options={"rounds": 30}),
        ScenarioSpec(name="c", sched="wfq", seed=derive_seed(0, 2),
                     topology="smp:2", workload="pipe",
                     workload_options={"rounds": 30,
                                       "same_core": True}),
    ]


def _catalogue_slice():
    """Paper-catalogue cells of four workloads: a pipe, a fairness, a
    shortened faas load and a multi-tenant one."""
    from repro.exp.paper import catalogue_specs
    cells = {spec.name: spec for spec in catalogue_specs(
        ["table3", "fairness", "faas", "multitenant"])}
    faas = cells["faas-serverless-12k"]
    short = dict(faas.workload_options, warmup_ns=msecs(5),
                 duration_ns=msecs(15))
    return [cells["table3-wfq-two"], cells["fairness-wfq-spread"],
            replace(faas, workload_options=short),
            cells["multitenant-mixed-policy"]]


class TestBenchRunner:
    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(0, 1) == derive_seed(0, 1)
        assert derive_seed(0, 1) != derive_seed(0, 2)
        assert derive_seed(0, 1) != derive_seed(1, 1)

    def test_run_spec_is_deterministic(self):
        spec = _tiny_specs()[1]
        assert run_spec(spec) == run_spec(spec)

    def test_run_spec_rejects_unknown_workload(self):
        with pytest.raises(SimError):
            run_spec(ScenarioSpec(workload="raytrace"))

    def test_unknown_workload_error_lists_the_registry(self):
        """Fail fast *and* helpfully: the message names every workload
        that would have worked."""
        from repro.exp.bench import workload_names

        with pytest.raises(SimError) as excinfo:
            run_spec(ScenarioSpec(workload="raytrace"))
        message = str(excinfo.value)
        assert "raytrace" in message
        for name in workload_names():
            assert name in message

    def test_spec_hash_ignores_workload_option_key_order(self):
        a = ScenarioSpec(name="x", seed=1, workload="faas",
                         workload_options={"offered_rps": 9_000,
                                           "functions": 16,
                                           "max_workers": 8})
        b = ScenarioSpec(name="x", seed=1, workload="faas",
                         workload_options={"max_workers": 8,
                                           "functions": 16,
                                           "offered_rps": 9_000})
        assert a.spec_hash() == b.spec_hash()
        c = a.to_dict()
        c["workload_options"] = dict(
            reversed(list(c["workload_options"].items())))
        assert ScenarioSpec.from_dict(c).spec_hash() == a.spec_hash()

    @pytest.mark.parametrize("make_specs", [_tiny_specs, _catalogue_slice],
                             ids=["tiny", "catalogue-slice"])
    def test_sweep_identical_across_workers_and_cache(self, tmp_path,
                                                      make_specs):
        specs = make_specs()
        cold = run_sweep(specs, "t", workers=2,
                         cache_dir=str(tmp_path / "cache"),
                         out_dir=str(tmp_path), rev="r1")
        assert cold["meta"]["cache_hits"] == 0
        warm = run_sweep(specs, "t", workers=2,
                         cache_dir=str(tmp_path / "cache"),
                         out_dir=str(tmp_path), rev="r1")
        assert warm["meta"]["cache_hits"] == len(specs)
        serial = run_sweep(specs, "t", workers=1, use_cache=False,
                           out_dir=str(tmp_path), rev="r1")
        a = json.dumps(deterministic_payload(cold), sort_keys=True)
        b = json.dumps(deterministic_payload(warm), sort_keys=True)
        c = json.dumps(deterministic_payload(serial), sort_keys=True)
        assert a == b == c
        payload = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert payload["kind"] == "repro.bench trajectory"
        assert ([r["name"] for r in payload["results"]]
                == [spec.name for spec in specs])

    def test_cells_run_longest_first_by_the_previous_run(self, tmp_path,
                                                          monkeypatch):
        """The cells go out slowest first by the times the last payload
        at the same path kept in its ``meta`` (catalogue order without
        one, a cell it never timed first); results keep catalogue
        order, and a cached cell keeps its last time."""
        from repro.exp import bench

        specs = _tiny_specs() + [replace(_tiny_specs()[0], name="d",
                                         seed=derive_seed(0, 3))]
        order = []

        def timed_run(spec_dict):
            order.append(spec_dict["name"])
            return {"simulated_ns": 1}, {"a": 1.0, "b": 3.0, "c": 2.0,
                                         "d": 0.5}[spec_dict["name"]]

        monkeypatch.setattr(bench, "_timed_run", timed_run)

        def sweep(**options):
            order.clear()
            payload = run_sweep(specs, "t", out_dir=str(tmp_path),
                                rev="r1", **options)
            assert [r["name"] for r in payload["results"]] == list("abcd")
            return payload

        first = sweep(use_cache=False)
        assert order == list("abcd")
        times = {r["name"]: first["meta"]["cell_wall_s"][r["spec_hash"]]
                 for r in first["results"]}
        assert times == {"a": 1.0, "b": 3.0, "c": 2.0, "d": 0.5}
        sweep(use_cache=False)
        assert order == list("bcad")
        cache = BenchCache(str(tmp_path / "cache"), "r1")
        hashes = [spec.spec_hash() for spec in specs]
        cache.put(hashes[1], specs[1].to_dict(), {"simulated_ns": 1})
        payload = json.loads((tmp_path / "BENCH_t.json").read_text())
        del payload["meta"]["cell_wall_s"][hashes[0]]     # "a" untimed
        (tmp_path / "BENCH_t.json").write_text(json.dumps(payload))
        warm = sweep(cache_dir=str(tmp_path / "cache"))
        assert order == list("acd")
        assert warm["meta"]["cell_wall_s"][hashes[1]] == 3.0
        (tmp_path / "BENCH_t.json").write_text("{not json")
        sweep(use_cache=False)
        assert order == list("abcd")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_mean_one(self, tmp_path, workers):
        specs = _tiny_specs()
        serial = run_sweep(specs, "t", workers=1, use_cache=False,
                           out_dir=str(tmp_path), rev="r1")
        clamped = run_sweep(specs, "t", workers=workers, use_cache=False,
                            out_dir=str(tmp_path), rev="r1")
        assert clamped["meta"]["workers"] == 1
        assert (deterministic_payload(clamped)
                == deterministic_payload(serial))

    def test_cache_is_rev_scoped(self, tmp_path):
        spec = _tiny_specs()[0]
        cache = BenchCache(str(tmp_path), rev="r1")
        cache.put(spec.spec_hash(), spec.to_dict(), {"m": 1})
        assert cache.get(spec.spec_hash()) == {"m": 1}
        other = BenchCache(str(tmp_path), rev="r2")
        assert other.get(spec.spec_hash()) is None
        # A file that parses but is not a matching entry with a metrics
        # object (truncated by hand, foreign) is a miss, not a crash.
        entry = {"rev": "r1", "spec_hash": spec.spec_hash()}
        for damaged in ([], None, 3, "x", entry, dict(entry, metrics=[])):
            with open(cache._path(spec.spec_hash()), "w") as handle:
                json.dump(damaged, handle)
            assert cache.get(spec.spec_hash()) is None

    def test_rev_carries_the_uncommitted_state_of_src(self, tmp_path,
                                                      monkeypatch):
        """Results cached for the clean tree are never served after an
        edit under ``src/``: the rev grows a digest of the diff and of
        every untracked file, and the cache files keep apart."""
        from repro.exp import bench
        head = "a" * 40
        state = {"diff": b"", "ls-files": b""}
        monkeypatch.setattr(bench, "_SRC_DIR", str(tmp_path))
        monkeypatch.setattr(
            bench, "_git",
            lambda *args: (head.encode() + b"\n" if args[0] == "rev-parse"
                           else state[args[0]]))
        revs = [bench.git_rev()]
        assert revs == [head]
        for diff in (b"-old\n+new\n", b"-old\n+newer\n"):
            state["diff"] = diff
            revs.append(bench.git_rev())
        state.update({"diff": b"", "ls-files": b"fresh.py\0"})
        for body in ("x = 1\n", "x = 2\n"):
            (tmp_path / "fresh.py").write_text(body)
            revs.append(bench.git_rev())
        assert len(set(revs)) == 5
        assert all(rev.startswith(head + "+") for rev in revs[1:])
        spec_hash = _tiny_specs()[0].spec_hash()
        paths = {BenchCache(str(tmp_path), rev)._path(spec_hash)
                 for rev in revs}
        assert len(paths) == 5
        monkeypatch.setattr(bench, "_git", lambda *args: None)
        assert bench.git_rev() == "unknown"
