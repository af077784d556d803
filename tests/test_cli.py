"""Tests for the command-line runner."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


class TestCli:
    def test_list_names_commands_and_the_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out
        assert "table3" in out
        assert "record-replay" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    def test_the_five_quick_verbs_are_gone(self, capsys):
        for gone in ("pipe", "schbench", "rocksdb", "upgrade", "fairness"):
            with pytest.raises(SystemExit) as excinfo:
                main([gone])
            assert excinfo.value.code == 2
        capsys.readouterr()


class TestHostileCounts:
    """A count or length option below its range exits 2 with the usage
    line and no traceback, before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["faas", "--load", "0"],
        ["trace", "--capacity", "0"],
        ["stats", "--rounds", "-3"],
        ["top", "--interval-us", "0"],
        ["report", "--interval-us", "0"],
        ["chaos", "--hogs", "-1"],
        ["fuzz", "--episodes", "-2"],
        ["cluster", "--machines", "0"],
        ["bench", "--workers", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_exits_two_with_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}")
        assert f"argument {argv[1]}: must be >=" in err

    def test_zero_hogs_is_in_range(self, capsys):
        assert main(["chaos", "--plan", "hint-drop", "--rounds", "20",
                     "--hogs", "0"]) == 0
        capsys.readouterr()

    def test_chaos_harness_refuses_negative_rounds_promptly(self):
        # Below the CLI: the watchdog's timer kept a sender blocked for
        # ever from letting the kernel go idle, so this never returned.
        script = ("from repro.cli import _chaos_run\n"
                  "from repro.core import FaultPlan\n"
                  "_chaos_run(FaultPlan.builtin('tick-crash'), rounds=-1, "
                  "hogs=1)\n")
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 1
        assert "ValueError: rounds (-1)" in done.stderr


class TestBenchArtefact:
    """``repro bench <artefact>``: the table, the paper's row, a verdict
    per claim; exit 1 when a claim fails, 2 when the name is unknown.
    (That each table is *right* is ``test_paper_tables.py``'s job.)"""

    def run(self, tmp_path, *argv):
        return main(["bench", *argv, "--out-dir", str(tmp_path),
                     "--cache-dir", str(tmp_path / "cache")])

    def test_prints_table_paper_row_and_verdicts(self, tmp_path, capsys):
        assert self.run(tmp_path, "upgrade-scaling") == 0
        out = capsys.readouterr().out
        assert "Ablation — upgrade pause vs machine size" in out
        assert "80 CPUs  9.20" in out
        assert "[paper] anchors: 1.5 us at 8 cores" in out
        assert "ok    the pause grows with core count" in out
        payload = json.loads(
            (tmp_path / "BENCH_upgrade-scaling.json").read_text())
        assert [r["name"] for r in payload["results"]] == [
            f"upgrade-scaling-{n}" for n in (2, 8, 20, 40, 80)]

    def test_failed_claim_exits_one(self, tmp_path, capsys, monkeypatch):
        from repro.exp.paper import CATALOGUE
        monkeypatch.setattr(CATALOGUE["hackbench"], "claims",
                            lambda results: [("never holds", False)])
        assert self.run(tmp_path, "hackbench") == 1
        out = capsys.readouterr().out
        assert "FAIL  never holds" in out
        assert "a claim of the paper does not hold" in out

    def test_unknown_artefact_exits_two_naming_the_catalogue(
            self, tmp_path, capsys):
        assert self.run(tmp_path, "nosuch") == 2
        err = capsys.readouterr().err
        assert "nosuch" in err
        for name in ("table3", "fig2bc", "upgrade-scaling"):
            assert name in err
        assert not list(tmp_path.iterdir())

    def test_artefact_with_another_sweep_exits_two(self, tmp_path, capsys):
        assert self.run(tmp_path, "table3", "--smoke") == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestChaosExitCodes:
    def test_contained_plan_exits_zero(self, capsys):
        assert main(["chaos", "--plan", "tick-crash",
                     "--rounds", "150", "--hogs", "3"]) == 0
        out = capsys.readouterr().out
        assert "invariants held" in out

    def test_json_summary_is_machine_readable(self, capsys):
        assert main(["chaos", "--plan", "hint-drop", "--json",
                     "--rounds", "150", "--hogs", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["lost"] == 0
        assert payload["violations"] == 0
        assert "hint-drop" in payload["plans"]
        assert payload["plans"]["hint-drop"]["violations"] == []


class TestFuzzCli:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["fuzz", "--episodes", "8", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out

    def test_planted_bug_exits_nonzero(self, capsys):
        assert main(["fuzz", "--episodes", "2", "--seed", "3",
                     "--bug", "skip_consume"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "token" in out

    def test_json_summary(self, capsys):
        assert main(["fuzz", "--episodes", "4", "--seed", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["episodes"] == 4
        assert payload["failures"] == []
        assert payload["control_checked"] == 4

    def test_failing_json_carries_violations(self, capsys):
        assert main(["fuzz", "--episodes", "2", "--seed", "3",
                     "--bug", "skip_consume", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["failures"]
        sanitizers = {v["sanitizer"]
                      for failure in payload["failures"]
                      for v in failure["violations"]}
        assert "token" in sanitizers

    def test_bug_run_shrinks_and_artifact_replays(self, tmp_path, capsys):
        artifact = str(tmp_path / "repro.json")
        assert main(["fuzz", "--episodes", "1", "--seed", "5",
                     "--bug", "skip_consume", "--out", artifact]) == 1
        assert "shrunk reproducer" in capsys.readouterr().out
        # The artifact is self-contained: replaying it still fails...
        assert main(["fuzz", "--repro", artifact]) == 1
        assert "violation reproduced" in capsys.readouterr().out
        # ...and its JSON carries the shrunk spec and the repro command.
        payload = json.loads(open(artifact).read())
        assert payload["kind"] == "repro.verify reproducer"
        assert payload["violations"]
        assert artifact in payload["repro_command"]
