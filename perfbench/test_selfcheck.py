"""Self-checks of the benchmark (``python -m pytest perfbench -q``; not
part of tier-1, whose ``testpaths`` stays ``tests``)."""

import copy
import json
import os
import subprocess
import sys

import pytest

from perfbench import ROOT, compare, load_benchmark, require_program
from perfbench.layers import LAYERS, layer_of_module
from perfbench.trace import profile_layers

require_program()
from perfbench.workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "smoke.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                    "--smoke", "--seed", "3", "--out", str(out)],
                   check=True, timeout=300, stdout=subprocess.DEVNULL)
    with open(out) as handle:
        return json.load(handle), out


def test_smoke_emits_exactly_the_declared_names(smoke_result):
    result, _ = smoke_result
    declared = load_benchmark()
    assert result["meta"]["smoke"] is True
    assert list(result["workloads"]) == [w["name"]
                                         for w in declared["workloads"]]
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    for name, entry in result["workloads"].items():
        # fail_share and (where validated) sim_err_pct ride in the result
        # file only: the contract forbids end-to-end metrics that are 0
        # or missing on some workload.
        extra = {"fail_share"} | ({"sim_err_pct"} if entry["validated"]
                                  else set())
        assert set(entry["end_to_end"]) == end_to_end | extra, name
        assert set(entry["per_layer"]) == per_layer, name
        assert entry["end_to_end"]["fail_share"]["value"] == 0, name
        shares = sum(entry["per_layer"][f"{layer}.self_share"]
                     for layer in LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01), name
    assert [n for n, e in result["workloads"].items()
            if e["validated"]] == ["pipe-wfq"]


def test_compare_accepts_itself_and_refuses_smoke_against_full(
        smoke_result, tmp_path, capsys):
    result, path = smoke_result
    assert compare.main([str(path), str(path)]) == 0
    full = copy.deepcopy(result)
    full["meta"]["smoke"] = False
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps(full))
    assert compare.main([str(path), str(full_path)]) == 2
    assert "smoke" in capsys.readouterr().err


def test_compare_flags_a_regression(smoke_result, tmp_path):
    result, path = smoke_result
    slower = copy.deepcopy(result)
    metric = slower["workloads"]["pipe-wfq"]["end_to_end"]["calls_per_op"]
    for key in ("median", "q1", "q3"):
        metric[key] *= 1.2
    metric["runs"] = [run * 1.2 for run in metric["runs"]]
    slower_path = tmp_path / "slower.json"
    slower_path.write_text(json.dumps(slower))
    assert compare.main([str(path), str(slower_path)]) == 1


def test_every_source_file_has_a_layer():
    package = ROOT / "src" / "repro"
    unmapped = []
    for dirpath, _, filenames in os.walk(package):
        for filename in filenames:
            if filename.endswith(".py"):
                relpath = os.path.relpath(os.path.join(dirpath, filename),
                                          package).replace(os.sep, "/")
                if layer_of_module(relpath) not in LAYERS:
                    unmapped.append(relpath)
    assert not unmapped
    assert layer_of_module("newpackage/module.py") is None


@pytest.mark.parametrize("name", ["pipe-wfq", "faas-serverless",
                                  "fuzz-mixed"])
def test_traced_passes_count_the_same_calls(name):
    workload = WORKLOADS[name](seed=1, smoke=True)
    workload.body(workload.build())          # fill the program's caches
    passes = []
    for _ in range(2):
        state = workload.build()
        _, calls, table = profile_layers(lambda: workload.body(state))
        passes.append((calls, {layer: row["calls"]
                               for layer, row in table.items()}))
    assert passes[0] == passes[1]


def test_planted_fault_raises_fail_share():
    workload = WORKLOADS["fuzz-mixed"](seed=0, smoke=True)
    outcome = workload.check(None, workload.body(None, bug="skip_consume"))
    assert outcome["failed"] > 0
    assert outcome["failed"] / outcome["ops"] > 0
    assert outcome["problems"]
    clean = workload.check(None, workload.body(None))
    assert clean["failed"] == 0 and not clean["problems"]
