"""Tests for the command-line runner."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from repro.core import FaultPlan
from repro.verify import (SCHEDULER_NAMES, ArtifactError, generate_episode,
                          load_artifact)
from tests.source_trees import class_def, parse

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
#: the documents whose command lines and file paths are checked
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md")


class TestCli:
    def test_list_names_commands_and_the_catalogue(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bench" in out
        assert "table3" in out
        assert "record-replay" in out
        experiments = out.split("paper artefacts")[0].split("\n")[1:]
        assert [line.split()[0] for line in experiments if line] == [
            "bench", "faas", "trace", "chaos", "fuzz"]

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "experiments" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["chaos", "--plan", "hint-drop", "--rounds", "150", "--hogs", "3"],
        ["fuzz", "--episodes", "2", "--seed", "3", "--bug", "skip_consume"],
        ["bench", "upgrade-scaling", "--out-dir", "{tmp}",
         "--cache-dir", "{tmp}/cache"],
        ["chaos", "--list"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_json_is_one_sorted_document_with_the_same_status(
            self, argv, tmp_path, capsys):
        """Every ``--json`` prints one document with sorted keys, and exits
        with the status of the same run without it; ``bench``'s is the
        trajectory it wrote."""
        argv = [word.format(tmp=tmp_path) for word in argv]
        status = main(argv)
        capsys.readouterr()
        assert main([*argv, "--json"]) == status
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        if argv[0] == "bench":
            written = tmp_path / "BENCH_upgrade-scaling.json"
            assert payload == json.loads(written.read_text())

    def test_the_five_quick_verbs_are_gone(self, capsys):
        """So are the six flags of the sweeps the catalogue absorbed, the
        three observed-episode verbs ``repro trace`` absorbed and the
        trace options it dropped, and the retired fleet's ``cluster``;
        ``trace``'s ``--json`` and ``--live`` exclude each other."""
        for gone in (["pipe"], ["schbench"], ["rocksdb"], ["upgrade"],
                     ["fairness"], ["bench", "--smoke"], ["bench", "--faas"],
                     ["bench", "--faas-invocations", "1"],
                     ["bench", "--multitenant"], ["bench", "--seed", "0"],
                     ["bench", "--name", "x"], ["stats"], ["top"],
                     ["report"], ["trace", "--export", "chrome"],
                     ["trace", "--capacity", "1"],
                     ["trace", "--json", "--live"], ["cluster"]):
            with pytest.raises(SystemExit) as excinfo:
                main(gone)
            assert excinfo.value.code == 2
        capsys.readouterr()

    def test_every_command_line_in_the_docs_parses(self, capsys):
        """Each ``repro <verb> [--flag ...]`` the docs cite is one the
        parser accepts (``<placeholder>`` arguments stand for any value),
        and each artefact a ``repro bench`` line names is in the
        catalogue."""
        from repro.exp.paper import CATALOGUE
        root = os.path.dirname(SRC)
        line = re.compile(r"(?:python3? -m |`)repro ([a-z][\w-]*)"
                          r"([^\n`|;#>&]*)")
        parser = build_parser()
        stale = []
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                text = handle.read().replace("\\\n", " ")
            for match in line.finditer(text):
                argv = [match.group(1)] + [
                    "x" if word.startswith("<") else word
                    for word in match.group(2).split()]
                try:
                    args = parser.parse_args(argv)
                except SystemExit:
                    stale.append(f"{doc}: repro {' '.join(argv)}")
                    continue
                if getattr(args, "artefact", None) not in (None, "x",
                                                           *CATALOGUE):
                    stale.append(f"{doc}: repro {' '.join(argv)}")
        capsys.readouterr()
        assert not stale

    def test_every_python_path_in_the_docs_exists(self):
        """Each ``*.py`` path the docs cite in backticks or a code block
        is a file under the repo root, ``src/`` or ``src/repro/`` (a bare
        file name, with no directory, is a label and is not checked)."""
        root = os.path.dirname(SRC)
        code = re.compile(r"```.*?```|`[^`\n]+`", re.S)
        path = re.compile(r"[\w.-]*(?:/[\w.-]+)+\.py\b")
        cited, stale = 0, []
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                names = path.findall(" ".join(code.findall(handle.read())))
            cited += len(names)
            stale += [f"{doc}: {name}" for name in names
                      if not any(os.path.isfile(os.path.join(root, base, name))
                                 for base in ("", "src", "src/repro"))]
        assert cited and not stale

    #: DESIGN.md's line count when this ceiling was last set.  Lower it
    #: when a change shrinks the file, never raise it to land one.
    DESIGN_LINES = 700

    def test_design_stays_under_its_line_ceiling(self):
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "DESIGN.md")) as handle:
            lines = sum(1 for _line in handle)
        assert lines <= self.DESIGN_LINES, (
            f"DESIGN.md has {lines} lines, over its ceiling of "
            f"{self.DESIGN_LINES}")

    #: CHANGES.md entries from this PR number on are held to the ceiling
    CHANGES_FROM_PR = 48
    CHANGES_ENTRY_LINES = 25

    def test_changes_entries_stay_short(self):
        """A CHANGES.md entry (``- **PR n ...`` up to the next bullet or
        heading, its ``FOUND:`` / ``MENDED:`` lines included) runs to at
        most 25 lines, each counted at its length wrapped to 80 columns."""
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "CHANGES.md")) as handle:
            lines = handle.read().splitlines()
        entries, pr = {}, None
        for line in lines:
            start = re.match(r"- \*\*PR (\d+)\b", line)
            if start or line.startswith(("- ", "#")):
                pr = int(start.group(1)) if start else None
                if pr is not None and pr >= self.CHANGES_FROM_PR:
                    entries[pr] = 0
            if pr is not None and pr >= self.CHANGES_FROM_PR:
                entries[pr] += -(-len(line) // 80)     # a blank: none
        assert self.CHANGES_FROM_PR in entries
        long = {pr: n for pr, n in entries.items()
                if n > self.CHANGES_ENTRY_LINES}
        assert not long, f"CHANGES.md entries over 25 lines: {long}"

    def test_every_cited_class_attribute_exists(self):
        """Each backticked ``Name.attr`` the docs cite, where ``Name`` is a
        public class of ``repro``, is a class attribute, a dataclass
        field, an ``__init__`` parameter or a ``self.attr`` assignment of
        that class or one of its ``repro`` bases."""
        root = os.path.dirname(SRC)
        classes = _public_classes()
        cite = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")
        cited, stale = 0, []
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                text = handle.read()
            for match in cite.finditer(text):
                name, attr = match.groups()
                if name not in classes:
                    continue
                cited += 1
                klass = getattr(importlib.import_module(classes[name]), name)
                if not (hasattr(klass, attr)
                        or attr in getattr(klass, "__dataclass_fields__", {})
                        or attr in inspect.signature(klass).parameters
                        or attr in _self_attributes(klass)):
                    line = text.count("\n", 0, match.start()) + 1
                    stale.append(f"{doc}:{line}: {name}.{attr}")
        assert cited and not stale

    def test_design_names_every_module(self):
        """Each module under ``src/repro`` (package ``__init__`` and
        ``__main__`` aside) is in DESIGN.md's section 2 tree, or cited as
        a path or as a dotted ``repro.`` name."""
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "DESIGN.md")) as handle:
            text = handle.read()
        named = _design_tree(text)
        missing = []
        for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
            for name in files:
                if (not name.endswith(".py")
                        or name in ("__init__.py", "__main__.py")):
                    continue
                path = os.path.relpath(os.path.join(dirpath, name), root)
                inner = os.path.relpath(path, "src/repro")
                dotted = "repro." + inner[:-3].replace(os.sep, ".")
                if (path not in named and f"{inner}`" not in text
                        and f"/{inner}" not in text
                        and not re.search(re.escape(dotted) + r"\b", text)):
                    missing.append(path)
        assert named and not missing

    def test_design_cites_no_pr(self):
        """DESIGN.md states the design as it is; CHANGES.md narrates how
        each pull request got there."""
        root = os.path.dirname(SRC)
        with open(os.path.join(root, "DESIGN.md")) as handle:
            text = handle.read()
        assert not re.findall(r"\bPRs? ?\d+", text)

    def test_every_dotted_repro_name_resolves(self):
        """Each ``repro.a.b`` the docs cite in code is a module, or an
        attribute of the longest module prefix."""
        root = os.path.dirname(SRC)
        code = re.compile(r"```.*?```|`[^`\n]+`", re.S)
        dotted = re.compile(r"(?<![\w/.\"])repro(?:\.[A-Za-z_]\w*)+")
        cited, stale = 0, []
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                names = dotted.findall(" ".join(code.findall(handle.read())))
            cited += len(names)
            stale += [f"{doc}: {name}" for name in names
                      if not _resolves(name)]
        assert cited and not stale

    def test_every_repro_variable_is_read(self):
        """Each ``REPRO_*`` environment variable the docs name is read
        under ``src/`` or by ``tests/conftest.py``."""
        root = os.path.dirname(SRC)
        sources = [os.path.join(root, "tests", "conftest.py")] + [
            os.path.join(dirpath, name)
            for dirpath, _dirs, files in os.walk(SRC)
            for name in files if name.endswith(".py")]
        read = set()
        for path in sources:
            with open(path) as handle:
                read.update(re.findall(r"[\"'](REPRO_\w+)[\"']",
                                       handle.read()))
        named = set()
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                named.update(re.findall(r"\bREPRO_[A-Z_]+\b", handle.read()))
        assert named and not named - read

    def test_every_cited_flag_is_accepted(self):
        """Each ``--flag`` in a doc's inline code is an option of some
        ``repro`` subcommand or of ``perfbench/run.py``."""
        root = os.path.dirname(SRC)
        accepted = set()
        parsers = [build_parser()]
        while parsers:
            parser = parsers.pop()
            for action in parser._actions:
                accepted.update(action.option_strings)
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        tree = parse(os.path.join(root, "perfbench", "run.py"))
        accepted.update(
            node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and isinstance(node.args[0], ast.Constant))
        cited, stale = 0, []
        for doc in DOCS:
            with open(os.path.join(root, doc)) as handle:
                spans = re.findall(r"(?<!`)`(--[a-z][\w-]*)", handle.read())
            cited += len(spans)
            stale += [f"{doc}: {flag}" for flag in spans
                      if flag not in accepted]
        assert cited and not stale


def _resolves(name):
    """Whether dotted ``name`` is a module, or attributes of the longest
    importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr, None)
        return target is not None
    return False


def _design_tree(text):
    """The ``src/repro/...`` paths of the ``*.py`` files DESIGN.md's
    section 2 tree lists (a directory line ends in ``/``; a file sits
    below it, indented further)."""
    block = text.split("\n## 2.", 1)[1].split("```", 2)[1]
    paths, stack = set(), []
    for line in block.splitlines():
        match = re.match(r"( *)([\w./]+)(?:\s|$)", line)
        if not match:
            continue
        indent, name = len(match.group(1)), match.group(2)
        while stack and stack[-1][0] >= indent:
            stack.pop()
        if name.endswith("/"):
            stack.append((indent, name))
        elif name.endswith(".py"):
            paths.add("".join(part for _indent, part in stack) + name)
    return paths


def _public_classes():
    """Module-level class name -> module, for every public class under
    ``src/repro``."""
    classes = {}
    for dirpath, _dirs, files in os.walk(os.path.join(SRC, "repro")):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            module = os.path.relpath(path, SRC)[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            for node in parse(path).body:
                if (isinstance(node, ast.ClassDef)
                        and not node.name.startswith("_")):
                    classes[node.name] = module
    return classes


def _self_attributes(klass):
    """Every ``self.attr`` a method of ``klass`` or a ``repro`` base
    assigns."""
    names = set()
    for base in klass.__mro__:
        if not base.__module__.startswith("repro"):
            continue
        names.update(
            node.attr for node in ast.walk(class_def(base))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self")
    return names


class TestHostileCounts:
    """A count or length option below its range exits 2 with the usage
    line and no traceback, before anything runs."""

    @pytest.mark.parametrize("argv", [
        ["faas", "--load", "0"],
        ["trace", "--rounds", "0"],
        ["trace", "--interval-us", "0"],
        ["trace", "--hogs", "-1"],
        ["chaos", "--hogs", "-1"],
        ["fuzz", "--episodes", "-2"],
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


class TestFaasCli:
    """``repro faas``: CFS against the serverless policy on one FaaS
    trace, its latency table and SLO verdicts, byte for byte."""

    GOLDEN = (
        "FaaS trace at 10000 invocations/s (short-invocation latency, us)\n"
        "================================================================\n"
        "scheduler         p50     p99     p99.9   rps     cold  completed\n"
        "----------------  ------  ------  ------  ------  ----  ---------\n"
        "CFS               138.78  583.95  896.15  10,393  0     1559\n"
        "Enoki-Serverless  138.61  581.93  897.44  10,393  0     1559\n"
        "SLO[CFS] faas-wakeup-p99: 5 violation(s)\n"
        "SLO[CFS] faas-rq-depth: met\n"
        "SLO[Enoki-Serverless] faas-wakeup-p99: met\n"
        "SLO[Enoki-Serverless] faas-rq-depth: met\n"
    )

    def test_table_and_slo_lines_are_pinned(self, capsys):
        assert main(["faas", "--load", "10000", "--duration-ms", "150"]) == 0
        assert capsys.readouterr().out == self.GOLDEN


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

    def test_unknown_plan_exits_two_naming_the_plans(self, capsys):
        assert main(["chaos", "--plan", "nosuch"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith(
            "repro chaos: no built-in fault plan 'nosuch' (available: ")
        assert err.count("\n") == 1
        assert all(name in err for name in FaultPlan.builtin_names())


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

    @pytest.mark.parametrize("sched", SCHEDULER_NAMES)
    def test_every_pool_scheduler_is_accepted(self, sched, capsys):
        assert main(["fuzz", "--episodes", "1", "--seed", "1",
                     "--sched", sched]) == 0
        capsys.readouterr()

    def test_scheduler_outside_the_pool_exits_two_naming_it(self, capsys):
        assert main(["fuzz", "--episodes", "1", "--sched", "shinjuku"]) == 2
        err = capsys.readouterr().err
        assert "'shinjuku'" in err
        assert all(name in err for name in SCHEDULER_NAMES)

    @staticmethod
    def _damage(how, path):
        spec = generate_episode(3).to_dict()
        if how == "unknown EpisodeSpec field":
            spec["nr_cpu"] = 2
        elif how == "unknown TaskSpec field":
            spec["tasks"][0]["runns"] = 1
        elif how == "unknown scheduler":
            spec["sched"] = "nosuch"
        elif how == "wrong-typed GroupSpec value":
            spec["groups"][0]["weight"] = "heavy"
        elif how == "unknown GroupSpec field":
            spec["groups"][0]["parnt"] = "root"
        text = json.dumps({"kind": "repro.verify reproducer", "spec": spec})
        if how == "truncated JSON":
            text = text[:len(text) // 2]
        elif how == "missing spec":
            text = json.dumps({"kind": "repro.verify reproducer"})
        if how != "missing file":
            path.write_text(text)

    @pytest.mark.parametrize("how", [
        "missing file", "truncated JSON", "missing spec",
        "unknown EpisodeSpec field", "unknown TaskSpec field",
        "unknown scheduler", "wrong-typed GroupSpec value",
        "unknown GroupSpec field"])
    def test_damaged_reproducer_is_one_typed_error(self, how, tmp_path,
                                                   capsys):
        path = tmp_path / "repro.json"
        self._damage(how, path)
        with pytest.raises(ArtifactError, match=re.escape(str(path))):
            load_artifact(str(path))
        assert main(["fuzz", "--repro", str(path)]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err.count("\n") == 1 and str(path) in err
