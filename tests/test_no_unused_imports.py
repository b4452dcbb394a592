"""Every module uses the names it imports.

An AST scan of ``src/repro``: a name bound by an import must be read
somewhere in the module.  Package ``__init__.py`` files are skipped,
since their imports are the package's re-exports.
"""

import ast
from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent


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
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(
            f"{path.relative_to(SOURCE_ROOT)}:{line} {name}"
            for line, name in _imported_names(tree)
            if name not in used
        )
    assert unused == []
