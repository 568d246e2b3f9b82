"""No module in src/launderscan imports a name it never uses, unless the
import line says why with ``# noqa: F401``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "launderscan"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name ``source`` imports and never reads, other
    than ``__future__`` features and lines marked ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_unused_import_is_found_and_noqa_spares_it():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import (\n"
        "    Optional,\n"
        "    Sequence,\n"
        ")\n"
        "from json import loads  # noqa: F401\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "sys"), (5, "Sequence")]
