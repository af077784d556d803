"""Syntax trees of the repository's own Python files, each parsed once
per test module.

Several tier-1 checks walk the trees of ``src``, ``tests``, ``examples``
and ``perfbench``.  They share these cached parses instead of each
reading and parsing its own copy.  A tree is shared: never mutate one.
``tests/conftest.py`` calls :func:`forget` when the session leaves a
module: held for the whole suite, the trees' ~300 000 nodes would be
walked by every later full garbage collection.
"""

import ast
import inspect
from functools import cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@cache
def _parse(path):
    return ast.parse(path.read_text())


def forget():
    """Drop every cached tree."""
    _parse.cache_clear()


def parse(path):
    """The tree of the file at ``path`` (a string or a ``Path``)."""
    return _parse(Path(path).resolve())


def trees(*dirs):
    """``(path, tree)`` for each ``*.py`` under each of ``dirs``, named
    relative to the repository root, in sorted order per directory."""
    for directory in dirs:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield path, parse(path)


def class_def(cls):
    """The ``ClassDef`` node of module-level or nested class ``cls``."""
    body = parse(inspect.getsourcefile(cls)).body
    for name in cls.__qualname__.split("."):
        node = next(node for node in body
                    if isinstance(node, ast.ClassDef) and node.name == name)
        body = node.body
    return node
