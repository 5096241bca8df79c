"""Service graphs are built and edited in one place: where they are made.

The composer freezes every graph it composes and hands the one frozen
graph to every request of its class, so a session, the admission walk or
a recovery pass that mutated its graph would raise at run time. Inside
``src/`` only the graph package, the composition tier (which builds
graphs and corrects them before freezing), the application templates and
the scenario compiler may call a ``ServiceGraph`` mutator. The scan is
syntactic (:mod:`ast`, stdlib only): it flags every call of a mutator's
name, on any receiver but the ``sqlite3`` module, whose ``connect`` opens
a database.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MUTATORS = (
    "add_component",
    "add_edge",
    "connect",
    "remove_component",
    "remove_edge",
    "update_component",
    "insert_between",
)
ALLOWED = ("graph/", "composition/", "apps/", "scenarios/compile.py")


def mutations(source: str):
    """Line numbers of every call of a graph mutator's name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in MUTATORS
        and not (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id == "sqlite3"
        )
    )


def scan():
    """``{module path relative to src/repro: [lines]}`` of mutator calls."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = mutations(path.read_text())
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    return found


def allowed(module: str) -> bool:
    return any(module.startswith(prefix) for prefix in ALLOWED)


def test_only_graph_builders_mutate_graphs():
    stray = {
        module: lines for module, lines in scan().items()
        if not allowed(module)
    }
    assert stray == {}


def test_every_allowance_still_mutates():
    # A stale allowance would let a new caller in unnoticed.
    modules = sorted(scan())
    for prefix in ALLOWED:
        assert any(module.startswith(prefix) for module in modules), prefix


def test_guard_flags_graph_mutation():
    snippet = (
        "session.graph.update_component(component)\n"
        "graph.connect('a', 'b', 1.0)\n"
        "conn = sqlite3.connect(path)\n"
        "graph.component('a')\n"
        "graph.insert_between('a', 'b', buffer)\n"
    )
    assert mutations(snippet) == [1, 2, 5]
