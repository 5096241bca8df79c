"""Every top-level import in ``src/`` and ``tests/`` is read somewhere.

A small stand-in for a linter's unused-import rule that needs nothing
beyond the standard library: each non-``__init__`` module is parsed with
:mod:`ast`, and every name a module-level ``import`` binds must appear in
the module as a name, the root of an attribute chain, a quoted
annotation or an ``__all__`` entry. ``__init__`` modules are skipped
because their imports are re-exports; elsewhere a re-export says so with
the usual ``# noqa: F401`` marker on its import.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for top in ("src", "tests")
    for path in (ROOT / top).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree: ast.Module, lines=()):
    """``(bound name, line)`` for every module-level import not marked as
    a re-export in ``lines`` (the module's source lines)."""
    for node in tree.body:
        statement = lines[node.lineno - 1 : node.end_lineno]
        if any("noqa: F401" in line for line in statement):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _string_names(text: str):
    try:
        expression = ast.parse(text, mode="eval")
    except SyntaxError:
        return
    for node in ast.walk(expression):
        if isinstance(node, ast.Name):
            yield node.id


def read_names(tree: ast.Module):
    """Every name the module reads, quoted annotations and ``__all__``
    entries included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations and ``__all__`` entries name objects in
            # strings; a docstring parses to nothing useful here.
            names.update(_string_names(node.value))
    return names


def unused_imports(path: Path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    used = read_names(tree)
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported_names(tree, source.splitlines())
        if name not in used
    ]


def test_finds_an_unused_import():
    source = (
        "import os\n"
        "from typing import List, Dict\n"
        "from json import dumps  # noqa: F401 (re-exported)\n"
        "x: 'Dict' = {}\n"
    )
    tree = ast.parse(source)
    imported = imported_names(tree, source.splitlines())
    assert sorted(name for name, _ in imported) == ["Dict", "List", "os"]
    assert {"Dict"} <= read_names(tree)
    assert not {"List", "os"} & read_names(tree)


def test_no_unused_top_level_import():
    unused = [line for path in MODULES for line in unused_imports(path)]
    assert unused == []
