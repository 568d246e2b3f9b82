"""No module in src/launderscan imports a name it never uses, unless the
import line says why with ``# noqa: F401``, nothing it defines goes
unreferenced, and nothing it defines is read only by the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "launderscan"


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


def definitions(source: str) -> list[tuple[int, str]]:
    """(line, name) for each module-level function, class and assigned name,
    and each method that is not a dunder, that ``source`` defines."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        out.extend((t.lineno, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            out.extend((f.lineno, f.name) for f in node.body
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(line, name) for line, name in out if not name.startswith("__")]


def references(source: str) -> set[str]:
    """The names ``source`` reads: loaded names, attributes, import aliases,
    and identifier-shaped string constants (a name wrapped by its string, as
    ``setattr`` does)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(part for part in (node.name, node.asname) if part)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def _references_in(*folders: Path) -> set[str]:
    return set().union(*(references(path.read_text("utf-8"))
                         for folder in folders for path in folder.glob("*.py")))


def only_tests_read(source: str, program: set[str], tests: set[str]) -> list[str]:
    """The names ``source`` defines that ``tests`` reference and ``program``
    does not: test helpers living in the program."""
    return [name for _, name in definitions(source) if name in tests and name not in program]


def test_every_definition_is_referenced():
    referenced = _references_in(SRC, ROOT / "tests", ROOT / "chainbench")
    dead = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in definitions(path.read_text("utf-8"))
        if name not in referenced
    ]
    assert dead == []


def test_unreferenced_definition_is_found():
    source = (
        "LIMIT = 3\n"
        "_cache: dict = {}\n"
        "def used(): return LIMIT\n"
        "def unused(): return used()\n"
        "class Box:\n"
        "    def __init__(self): self.n = 0\n"
        "    def grow(self): return 'shrink'\n"
        "    def shrink(self): return Box().grow()\n"
    )
    assert definitions(source) == [(1, "LIMIT"), (2, "_cache"), (3, "used"), (4, "unused"),
                                   (5, "Box"), (7, "grow"), (8, "shrink")]
    names = references(source)
    assert [name for _, name in definitions(source) if name not in names] == ["_cache", "unused"]


def test_no_definition_is_referenced_only_from_tests():
    program = _references_in(SRC, ROOT / "chainbench")
    tests = _references_in(ROOT / "tests")
    helpers = [
        f"{path.name} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name in only_tests_read(path.read_text("utf-8"), program, tests)
    ]
    assert helpers == []


def test_definition_referenced_only_from_tests_is_found():
    source = (
        "def helper(): return 1\n"
        "def run(): return helper()\n"
        "def oracle(): return 2\n"
        "def dead(): return 3\n"
    )
    program = references(source) | references("from m import run\nrun()\n")
    tests = references("from m import oracle, run\nassert oracle() != run()\n")
    assert only_tests_read(source, program, tests) == ["oracle"]
