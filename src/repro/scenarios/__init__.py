"""Declarative scenario catalog: spec → compile → run.

One YAML/JSON document declares an entire experiment — environment,
registry, workload graphs, arrival mix, fault plan, serving/cluster/
control/federation knobs, one seed — and this package turns it into a run:

- :mod:`repro.scenarios.spec` — strict parse/validate/round-trip;
- :mod:`repro.scenarios.compile` — lowering into testbeds, ladders,
  seeded traces, fault schedules, and request factories;
- :mod:`repro.scenarios.runner` — end-to-end execution of the serving
  tree (domains, clusters, federations; faults, sessions, control and
  batching and epoch kills at every shape), and sweeps over load
  multipliers, shard counts and cluster counts;
- ``catalog/`` — the built-in scenarios behind ``python -m repro
  scenario <name>``.
"""

from pathlib import Path
from typing import List

from repro.scenarios.compile import (
    CompiledScenario,
    ScenarioTestbed,
    compile_scenario,
    derive_seed,
)
from repro.scenarios.runner import (
    ScenarioRunResult,
    ScenarioSweep,
    build_federation,
    run_scenario,
    run_sweep,
)
from repro.scenarios.spec import (
    ScenarioSpec,
    ScenarioValidationError,
    load_scenario,
    loads_scenario_text,
)

#: Directory holding the built-in scenario documents.
CATALOG_DIR = Path(__file__).parent / "catalog"


def catalog_scenarios() -> List[str]:
    """Names of the built-in scenarios, sorted."""
    return sorted(
        path.stem
        for path in CATALOG_DIR.glob("*.yaml")
        if path.is_file()
    )


def scenario_path(name: str) -> Path:
    """Path of a built-in scenario document by name."""
    path = CATALOG_DIR / f"{name}.yaml"
    if not path.is_file():
        known = ", ".join(catalog_scenarios())
        raise KeyError(f"unknown scenario {name!r} (catalog: {known})")
    return path


def load_catalog_scenario(name: str) -> ScenarioSpec:
    """Load and validate a built-in scenario by name."""
    return load_scenario(scenario_path(name))


__all__ = [
    "CATALOG_DIR",
    "CompiledScenario",
    "ScenarioRunResult",
    "ScenarioSpec",
    "ScenarioSweep",
    "ScenarioTestbed",
    "ScenarioValidationError",
    "build_federation",
    "catalog_scenarios",
    "compile_scenario",
    "derive_seed",
    "load_catalog_scenario",
    "load_scenario",
    "loads_scenario_text",
    "run_scenario",
    "run_sweep",
    "scenario_path",
]
