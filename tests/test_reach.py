"""Every ``def`` and ``class`` in ``src/`` is reached by the program.

A def that only tests call is surface a developer must learn and tests
must cover, for nothing.  The guard works by name, on the AST: for every
def or class name in ``src/`` (dunders excepted), one of these holds:

* the name occurs in ``src/`` outside its own definition: as a name, an
  attribute, an import, a string of identifiers (``getattr`` hook
  dispatch, a message's ``FUNCTION``), or the ``attr`` of a
  ``module:attr`` string (the builder's scheduler table).
  A package's export table is not a use: its strings name what the
  package offers, not what the program runs;
* it occurs in ``perfbench/`` or ``examples/``, the callers CI runs;
* it is allowed: a hook ``SchedClass`` or the ``EnokiScheduler`` trait
  declares (the paper's Table 1 surface stays even where nothing calls
  it), a ``Message`` schema class, or a name on the short hand lists
  below, each with its reason.

A new def that fails here gets a production caller or goes.

The same walk holds imports to the same rule: every name a module in
``src/``, ``tests/`` or ``examples/`` imports is read there, unless the
module is a package ``__init__`` (its imports are the package's
re-exports), the module lists the name in ``__all__``, or
``SIDE_EFFECT_IMPORTS`` keeps it for what importing it does.
"""

import ast
import re
from functools import cache

from repro.core.messages import Message
from repro.core.trait import EnokiScheduler
from repro.simkernel.sched_class import SchedClass
from tests.source_trees import ROOT, trees

#: the callers CI runs besides the tests
CALLERS = ("perfbench", "examples")
IDENTIFIERS = re.compile(r"[A-Za-z_]\w*(?: [A-Za-z_]\w*)*")
REFERENCE = re.compile(r"[\w.]+:([A-Za-z_]\w*)")

#: user API a document cites, by the document that cites it
CITED = {
    "violation_report": "README.md",
    "spawn_in_group": "README.md",
    "deterministic_payload": "EXPERIMENTS.md",
}

#: helpers tests use that would only move their bodies into the tests
KEPT = {
    "by_kind": "filters a watchdog report's findings by kind",
    "peek_all": "snapshots a ring without popping; the deque is private",
    "events_of_kind": "a tracer query; tests filter events by kind",
    "events_for_pid": "a tracer query; tests filter events by pid",
    "switch_count": "a tracer query; tests count dispatches per CPU",
    "arg": "looks up one field of a trace event's payload tuple",
    "step": "runs one event, for tests that check state between events",
    "generate": "the FaaS sampler's pure trace, which its tests compare",
    "episode_digest": "a fuzz episode's digest, which the golden files pin",
    "canonical_stream": "the observed stream the golden digests pin; "
                        "a --canonical trace would write it",
    "assert_kernel_state": "the raising check a sanitized test run calls",
    "busy_ns_total": "the closed per-CPU busy sum the gauges are checked on",
    "_bucket_index": "the reference the histogram's inline copy is held to",
    "acquire_read": "the reference dispatch's inline read section is held to",
    "release_read": "the reference dispatch's inline read section is held to",
}

#: ``(file name, imported name)`` kept for its import's side effect, with
#: the reason; none today
SIDE_EFFECT_IMPORTS = {}


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def _docstrings(tree):
    """The docstring nodes, which name things without using them."""
    found = set()
    for node in ast.walk(tree):
        if _is_def(node) or isinstance(node, ast.Module):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)):
                found.add(id(body[0].value))
    return found


def _names(node, docstrings=frozenset(), strings=True):
    """Every name ``node``'s subtree uses, with repeats."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif (strings and isinstance(sub, ast.Constant)
              and isinstance(sub.value, str) and id(sub) not in docstrings):
            if IDENTIFIERS.fullmatch(sub.value):
                yield from sub.value.split()
            elif reference := REFERENCE.fullmatch(sub.value):
                yield reference[1]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def allowed():
    hooks = {name for cls in (SchedClass, EnokiScheduler)
             for name, value in vars(cls).items() if callable(value)}
    schema = {cls.__name__ for cls in _subclasses(Message)}
    return hooks | schema | set(CITED) | set(KEPT)


@cache
def unreached():
    """``{name: [path:line, ...]}`` for each def or class name in
    ``src/`` that nothing outside tests uses."""
    defs, uses, own_uses = {}, {}, {}
    for path, tree in trees("src"):
        docstrings = _docstrings(tree)
        strings = path.name != "__init__.py"
        for name in _names(tree, docstrings, strings):
            uses[name] = uses.get(name, 0) + 1
        for node in ast.walk(tree):
            if not _is_def(node) or (node.name.startswith("__")
                                     and node.name.endswith("__")):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            defs.setdefault(node.name, []).append(where)
            # a recursive call or a self-reference is not a caller
            own_uses[node.name] = own_uses.get(node.name, 0) + sum(
                1 for name in _names(node, docstrings, strings)
                if name == node.name)
    called = {name for _path, tree in trees(*CALLERS)
              for name in _names(tree)}
    return {name: where for name, where in sorted(defs.items())
            if uses.get(name, 0) <= own_uses.get(name, 0)
            and name not in called}


def test_no_def_only_tests_reach():
    found = {name: where for name, where in unreached().items()
             if name not in allowed()}
    assert not found, (
        "defs nothing outside tests uses (give each a production caller "
        f"or delete it): {found}")


def test_every_hand_allowed_name_is_still_needed():
    """A name that gains a caller, or goes, leaves the hand lists."""
    orphans = unreached()
    stale = sorted(name for name in (*CITED, *KEPT) if name not in orphans)
    assert not stale, f"no longer needs the allow-list: {stale}"


def test_cited_names_are_in_their_documents():
    for name, document in CITED.items():
        text = (ROOT / document).read_text()
        assert re.search(rf"\b{name}\b", text), (name, document)


def _unused_imports(path, tree):
    """``path:line name`` for each name ``tree`` imports and never reads."""
    if path.name == "__init__.py":
        return []
    exported = {const.value for node in ast.walk(tree)
                if isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)
                for const in ast.walk(node.value)
                if isinstance(const, ast.Constant)}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if (name != "*" and name not in read and name not in exported
                    and (path.name, name) not in SIDE_EFFECT_IMPORTS):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    return found


def test_no_unused_imports():
    found = [hit for path, tree in trees("src", "tests", "examples")
             for hit in _unused_imports(path, tree)]
    assert not found, f"imported and never read: {found}"
