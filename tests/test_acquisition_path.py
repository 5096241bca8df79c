"""Capacity is acquired in one place: the reservation ledger.

``Device.allocate`` and ``NetworkTopology.reserve`` take capacity
without the ledger's admission check. Inside ``src/`` only three modules
may reach them: the ledger itself, the fault injector (resource
pressure) and the load monitor (background load). Any other caller would
be a second acquisition path, whose bookings the ledger can neither
audit nor release. The scan is syntactic (:mod:`ast`, stdlib only): it
flags every ``.allocate`` or ``.reserve`` attribute, called or not.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ACQUIRERS = ("allocate", "reserve")
ALLOWED = ("server/ledger.py", "faults/injector.py", "profiling/monitor.py")


def acquisitions(source: str):
    """Line numbers of every ``.allocate``/``.reserve`` attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in ACQUIRERS
    )


def scan():
    """``{module path relative to src/repro: [lines]}`` of acquisitions."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        lines = acquisitions(path.read_text())
        if lines:
            found[path.relative_to(SRC).as_posix()] = lines
    return found


def test_only_the_ledger_and_load_generators_acquire_capacity():
    stray = {
        module: lines for module, lines in scan().items()
        if module not in ALLOWED
    }
    assert stray == {}


def test_every_allowed_module_still_acquires():
    # A stale allowance would let a new caller in unnoticed.
    assert sorted(scan()) == sorted(ALLOWED)


def test_guard_flags_direct_acquisition():
    snippet = (
        "device.allocate(load)\n"
        "take = topology.reserve\n"
        "ledger.prepare(txn, graph, assignment)\n"
        "device.allocated\n"
    )
    assert acquisitions(snippet) == [1, 2]
