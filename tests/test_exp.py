"""Tests for the ``repro.exp`` session layer and the bench runner.

Covers the spec's JSON/hash identity, every builder path (native, Enoki,
ghOSt, declarative from-spec), seed threading into the kernel RNG, and
the bench runner's core promise: results identical at any worker count,
with or without cache hits.
"""

import json

import pytest

from repro.exp import (
    KernelBuilder,
    ScenarioSpec,
    Session,
    enoki_scheduler_names,
    parse_topology,
)
from repro.exp.bench import (
    BenchCache,
    derive_seed,
    deterministic_payload,
    run_spec,
    run_sweep,
    smoke_specs,
)
from repro.simkernel import Topology
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
        from repro.core import FaultPlan
        plan = FaultPlan.builtin(FaultPlan.builtin_names()[0]).to_dict()
        spec = ScenarioSpec(sched="wfq", topology="smp:2", fault_plan=plan)
        session = KernelBuilder.session_from_spec(spec)
        assert session.injector is not None
        assert session.watchdog is not None
        session.stop()

    def test_fault_install_requires_shim(self):
        from repro.core import FaultPlan
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

    def test_sweep_identical_across_workers_and_cache(self, tmp_path):
        specs = _tiny_specs()
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
        assert [r["name"] for r in payload["results"]] == ["a", "b", "c"]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_mean_one(self, tmp_path, workers):
        specs = _tiny_specs()
        serial = run_sweep(specs, "t", workers=1, use_cache=False,
                           out_dir=str(tmp_path), rev="r1")
        clamped = run_sweep(specs, "t", workers=workers, use_cache=False,
                            out_dir=str(tmp_path), rev="r1")
        assert clamped["meta"]["workers"] == 1
        assert len(clamped["meta"]["shard_wall_s"]) == 1
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

    def test_smoke_specs_have_derived_seeds_and_unique_hashes(self):
        specs = smoke_specs()
        hashes = {s.spec_hash() for s in specs}
        assert len(hashes) == len(specs)
        assert smoke_specs()[0].seed == smoke_specs()[0].seed
