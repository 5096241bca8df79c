"""README.md's code runs as written, and the top level exports what it imports.

The README's ``python`` blocks are one session: later blocks may use names
an earlier block defined, so they run in order in one namespace, from the
repository root (blocks open catalog documents by relative path).

``repro.__all__`` is exactly the set of names README.md and ``examples/``
import ``from repro``: a name the docs stop importing leaves the top
level, and a new top-level name needs a documented import first.
"""

import ast
import pathlib
import re

import repro

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def readme_blocks():
    """``(first line number, source)`` of each ``python`` block, in order."""
    text = README.read_text()
    return [
        (text.count("\n", 0, match.start(1)) + 1, match.group(1))
        for match in _BLOCK.finditer(text)
    ]


def imported_from_repro(source):
    """Names a source imports with ``from repro import ...``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro"
        and node.level == 0
        for alias in node.names
    }


def test_readme_python_blocks_run_in_order(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    blocks = readme_blocks()
    assert blocks, "README.md has no python blocks"
    namespace = {"__name__": "readme"}
    for line, source in blocks:
        exec(compile(source, f"README.md:{line}", "exec"), namespace)
    assert capsys.readouterr().out.strip()


def test_top_level_exports_exactly_the_documented_imports():
    sources = [source for _line, source in readme_blocks()]
    sources += [path.read_text() for path in EXAMPLES]
    documented = set().union(*(imported_from_repro(s) for s in sources))
    assert set(repro.__all__) - {"__version__"} == documented
    for name in repro.__all__:
        assert hasattr(repro, name), name
