"""Experiment drivers: one module per table/figure of the paper.

Each driver exposes a ``run(...)`` function returning a structured result
object with a ``format_table()`` (or ``format_report()``) method that
prints the same rows/series the paper reports. The benchmark harness under
``benchmarks/`` calls these drivers; EXPERIMENTS.md records the
paper-vs-measured comparison.
"""

from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.figure3 import PrototypeScenarioResult, run_prototype_scenario
from repro.experiments.figure4 import OverheadBreakdown, run_figure4
from repro.experiments.figure5 import Figure5Result, run_figure5

__all__ = [
    "Table1Result",
    "run_table1",
    "PrototypeScenarioResult",
    "run_prototype_scenario",
    "OverheadBreakdown",
    "run_figure4",
    "Figure5Result",
    "run_figure5",
]
