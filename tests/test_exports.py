"""The package's public surface: ``stablecut.__all__`` and its imports agree."""

from __future__ import annotations

import ast
from pathlib import Path

import stablecut


def imported_public_names() -> set[str]:
    tree = ast.parse(Path(stablecut.__file__).read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_every_exported_name_resolves():
    assert len(set(stablecut.__all__)) == len(stablecut.__all__)
    missing = [name for name in stablecut.__all__ if not hasattr(stablecut, name)]
    assert missing == []


def test_exports_are_sorted():
    assert stablecut.__all__ == sorted(stablecut.__all__)


def test_every_public_import_is_exported():
    assert imported_public_names() - set(stablecut.__all__) == set()


def test_every_import_is_used():
    """Every name a module or script binds by a top-level import is read
    somewhere in that file; ``__init__.py`` imports in order to re-export."""
    unused = []
    package = Path(stablecut.__file__).parent
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for path in sorted(package.glob("*.py")) + sorted(scripts.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in tree.body:
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.parent.name}/{path.name}:{node.lineno} {name}")
    assert unused == []
