"""No module of the package or its tests imports a name that it never reads.

Neither pyflakes nor ruff is a dependency, so this check parses every
module with ``ast``. ``from __future__`` imports are directives, not
names, and the package ``__init__.py`` imports only to re-export.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "sketchstream").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` and never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in imported.items() if name not in loaded]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import IO, Sequence\n"
        "x: IO = sys\n"
    )
    assert unused_imports(source) == ["os (line 2)", "Sequence (line 4)"]


@pytest.mark.parametrize(
    "path",
    [path for path in MODULES if path.name != "__init__.py"],
    ids=lambda path: path.relative_to(ROOT).as_posix(),
)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
