"""Every module uses the names it imports.

An AST scan of ``src/repro``, ``tests``, ``benchmarks`` and
``examples``: a name bound by an import must be read somewhere in the
module.  Package ``__init__.py`` files are skipped, since their imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = (
    SOURCE_ROOT,
    REPO_ROOT / "tests",
    REPO_ROOT / "benchmarks",
    REPO_ROOT / "examples",
)


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for root in SCANNED:
        assert root.is_dir(), root
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused.extend(
                f"{path.relative_to(root.parent)}:{line} {name}"
                for line, name in _imported_names(tree)
                if name not in used
            )
    assert unused == []
