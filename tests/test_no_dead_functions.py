"""Every function and method in ``src/repro`` has a caller.

An AST scan: each function defined under ``src/repro`` must be named
somewhere in ``src/repro``, ``tests``, ``benchmarks``, ``routebench`` or
``examples`` outside its own body — as a name, an attribute, or a
string (``getattr`` targets and the benchmark tracer's patch list are
strings).  Dunder methods are skipped, since the interpreter calls them.
The scan goes by name, so a dead function that shares its name with a
live one is not caught; what it catches is a name nothing mentions.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = (
    SOURCE_ROOT,
    REPO_ROOT / "tests",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "routebench",
    REPO_ROOT / "examples",
)


def _mentions(tree):
    """Names read as identifiers, attributes or identifier strings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_function_is_named_outside_its_own_body():
    trees = {}
    for root in SCANNED:
        assert root.is_dir(), root
        for path in sorted(root.rglob("*.py")):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    mentions = Counter()
    for tree in trees.values():
        mentions.update(_mentions(tree))
    dead = []
    for path, tree in trees.items():
        if not path.is_relative_to(SOURCE_ROOT):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for mention in _mentions(node) if mention == name)
            if mentions[name] == own:
                dead.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} {name}")
    assert dead == []
