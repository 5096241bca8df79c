"""Standing benchmark for the predictive QoS control plane.

``BENCH_control.json`` answers one question: does closing the loop
actually help? The bench replays the same seeded workloads twice — once
purely reactive, once with the :mod:`repro.control` plane attached — and
commits the deltas:

- **cluster leg** — the ``audio_lab`` scenario's overload regime (2
  shards, least-loaded router, serial service floor) at saturating load
  multipliers. Controlled runs must *never regress* the shed rate at
  any multiplier and must *reduce* it at one or more: proactive
  ladder-entry degradation admits work at reduced fidelity before the
  front door would have shed it, the emptier queue stops walking doomed
  full-rate configurations, and the utilization-aware offset stands
  down in ledger-bound regimes where degraded entries would only turn
  failed walks into denials.
- **chaos leg** — the chaos sweep's fault storm. Controlled runs watch
  rising φ-accrual suspicion and evacuate movable sessions *before* the
  detector's verdict, so the measured injection→repaired time must beat
  the reactive detection + MTTR path (or, failing that, the mean
  session-interruption time must drop).

Everything runs under the sim driver, so the whole artifact is
byte-identical per seed — the CI ``control-smoke`` job replays it twice
and compares, then :func:`verify_payload` gates the committed claims.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.chaos_sweep import run_chaos_once
from repro.scenarios import load_catalog_scenario, run_sweep

#: The cluster leg's fixed shape: the measured worker-bound overload
#: regime where proactive degradation genuinely reduces sheds (serial
#: service floor, two shards, load-aware routing).
CLUSTER_SHARDS = 2
CLUSTER_ROUTER = "least-loaded"
CLUSTER_MULTIPLIERS: Sequence[float] = (8.0, 10.0)
# The quick leg needs ×8: with ledger-bound regimes standing the
# shaping levers down, ×10 at the short horizon is a designed tie and
# the strict-win half of the gate can only come from ×8.
CLUSTER_MULTIPLIERS_QUICK: Sequence[float] = (8.0, 10.0)

#: The chaos leg's fault-rate multipliers.
CHAOS_MULTIPLIERS: Sequence[float] = (1.0, 2.0)
CHAOS_MULTIPLIERS_QUICK: Sequence[float] = (2.0,)

HORIZON_S = 300.0
HORIZON_QUICK_S = 120.0


@dataclass(frozen=True)
class ControlClusterCell:
    """One load multiplier, reactive vs controlled, same seed and trace."""

    multiplier: float
    reactive_shed_rate: float
    controlled_shed_rate: float
    reactive_admitted: int
    controlled_admitted: int
    reactive_denied: int  #: shed + failed (every request turned away)
    controlled_denied: int
    control_forecasts: int
    control_actuations: int
    control_reverts: int
    control_rebalanced: int

    @property
    def shed_rate_delta(self) -> float:
        """Controlled minus reactive — negative is a win."""
        return self.controlled_shed_rate - self.reactive_shed_rate

    def as_dict(self) -> Dict[str, object]:
        return {
            "multiplier": self.multiplier,
            "reactive_shed_rate": round(self.reactive_shed_rate, 6),
            "controlled_shed_rate": round(self.controlled_shed_rate, 6),
            "shed_rate_delta": round(self.shed_rate_delta, 6),
            "reactive_admitted": self.reactive_admitted,
            "controlled_admitted": self.controlled_admitted,
            "reactive_denied": self.reactive_denied,
            "controlled_denied": self.controlled_denied,
            "control_forecasts": self.control_forecasts,
            "control_actuations": self.control_actuations,
            "control_reverts": self.control_reverts,
            "control_rebalanced": self.control_rebalanced,
        }


@dataclass(frozen=True)
class ControlChaosCell:
    """One fault multiplier, reactive vs controlled, same storm."""

    fault_multiplier: float
    #: Reactive repair path: injection → detection → recovered.
    reactive_repair_ms: float
    #: Controlled repair path: injection → pre-emptive evacuation done.
    controlled_repair_ms: float
    reactive_interruption_ms: float
    controlled_interruption_ms: float
    reactive_affected: int
    controlled_affected: int
    control_evacuations: int
    control_sessions_moved: int
    control_evacuation_reverts: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "fault_multiplier": self.fault_multiplier,
            "reactive_repair_ms": round(self.reactive_repair_ms, 6),
            "controlled_repair_ms": round(self.controlled_repair_ms, 6),
            "reactive_interruption_ms": round(self.reactive_interruption_ms, 6),
            "controlled_interruption_ms": round(
                self.controlled_interruption_ms, 6
            ),
            "reactive_affected": self.reactive_affected,
            "controlled_affected": self.controlled_affected,
            "control_evacuations": self.control_evacuations,
            "control_sessions_moved": self.control_sessions_moved,
            "control_evacuation_reverts": self.control_evacuation_reverts,
        }


@dataclass
class ControlBenchResult:
    """Both legs of the controlled-vs-reactive comparison."""

    seed: int
    horizon_s: float
    quick: bool
    shards: int = CLUSTER_SHARDS
    router: str = CLUSTER_ROUTER
    cluster_cells: List[ControlClusterCell] = field(default_factory=list)
    chaos_cells: List[ControlChaosCell] = field(default_factory=list)

    def format_table(self) -> str:
        lines = [
            "Predictive control plane: controlled vs reactive "
            f"(seed {self.seed}, horizon {self.horizon_s:g}s, "
            f"{self.shards} shards, {self.router} router)",
            "",
            f"{'load x':>8}{'shed reactive':>15}{'shed controlled':>17}"
            f"{'delta':>9}{'admits r/c':>12}{'denied r/c':>12}",
        ]
        for cell in self.cluster_cells:
            lines.append(
                f"{cell.multiplier:>8.1f}"
                f"{100.0 * cell.reactive_shed_rate:>14.1f}%"
                f"{100.0 * cell.controlled_shed_rate:>16.1f}%"
                f"{100.0 * cell.shed_rate_delta:>+8.1f}%"
                f"{cell.reactive_admitted:>6d}/{cell.controlled_admitted:<5d}"
                f"{cell.reactive_denied:>6d}/{cell.controlled_denied:<5d}"
            )
        lines += [
            "",
            f"{'fault x':>8}{'repair reactive':>17}{'repair controlled':>19}"
            f"{'interr r/c ms':>16}{'evac':>6}{'moved':>7}",
        ]
        for cell in self.chaos_cells:
            lines.append(
                f"{cell.fault_multiplier:>8.1f}"
                f"{cell.reactive_repair_ms:>15.0f}ms"
                f"{cell.controlled_repair_ms:>17.0f}ms"
                f"{cell.reactive_interruption_ms:>8.1f}/"
                f"{cell.controlled_interruption_ms:<7.1f}"
                f"{cell.control_evacuations:>6d}"
                f"{cell.control_sessions_moved:>7d}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON artifact (committed as ``BENCH_control.json``)."""
        payload = {
            "benchmark": "control_plane",
            "config": {
                "seed": self.seed,
                "horizon_s": self.horizon_s,
                "quick": self.quick,
                "shards": self.shards,
                "router": self.router,
            },
            "cluster": [cell.as_dict() for cell in self.cluster_cells],
            "chaos": [cell.as_dict() for cell in self.chaos_cells],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run_control_bench(
    quick: bool = False, seed: int = 42
) -> ControlBenchResult:
    """Run both legs, reactive then controlled, at the same seeds."""
    horizon_s = HORIZON_QUICK_S if quick else HORIZON_S
    multipliers = CLUSTER_MULTIPLIERS_QUICK if quick else CLUSTER_MULTIPLIERS
    chaos_multipliers = CHAOS_MULTIPLIERS_QUICK if quick else CHAOS_MULTIPLIERS
    result = ControlBenchResult(seed=seed, horizon_s=horizon_s, quick=quick)
    lab = load_catalog_scenario("audio_lab")
    lab = replace(
        lab,
        seed=seed,
        cluster=replace(
            lab.cluster, shards=CLUSTER_SHARDS, router=CLUSTER_ROUTER
        ),
    )
    reactive_sweep, controlled_sweep = (
        run_sweep(lab, multipliers, horizon_s=horizon_s, controlled=controlled)
        for controlled in (False, True)
    )
    for reactive, controlled_point in zip(
        reactive_sweep.points, controlled_sweep.points
    ):
        result.cluster_cells.append(
            ControlClusterCell(
                multiplier=reactive.multiplier,
                reactive_shed_rate=reactive.shed_rate,
                controlled_shed_rate=controlled_point.shed_rate,
                reactive_admitted=reactive.admitted,
                controlled_admitted=controlled_point.admitted,
                reactive_denied=reactive.shed + reactive.failed,
                controlled_denied=(
                    controlled_point.shed + controlled_point.failed
                ),
                control_forecasts=controlled_point.control_forecasts,
                control_actuations=controlled_point.control_actuations,
                control_reverts=controlled_point.control_reverts,
                control_rebalanced=controlled_point.control_rebalanced,
            )
        )
    for multiplier in chaos_multipliers:
        points = {}
        for controlled in (False, True):
            points[controlled] = run_chaos_once(
                multiplier,
                seed=seed,
                horizon_s=horizon_s,
                controlled=controlled,
            )
        reactive_point, controlled_point = points[False], points[True]
        result.chaos_cells.append(
            ControlChaosCell(
                fault_multiplier=multiplier,
                reactive_repair_ms=(
                    reactive_point.mean_detection_ms
                    + reactive_point.mean_mttr_ms
                ),
                controlled_repair_ms=controlled_point.mean_control_repair_ms,
                reactive_interruption_ms=reactive_point.mean_interruption_ms,
                controlled_interruption_ms=(
                    controlled_point.mean_interruption_ms
                ),
                reactive_affected=reactive_point.sessions_affected,
                controlled_affected=controlled_point.sessions_affected,
                control_evacuations=controlled_point.control_evacuations,
                control_sessions_moved=(
                    controlled_point.control_sessions_moved
                ),
                control_evacuation_reverts=(
                    controlled_point.control_evacuation_reverts
                ),
            )
        )
    return result


def verify_payload(payload: Dict[str, object]) -> List[str]:
    """The bench's claims, checked against a (fresh or committed) artifact.

    Empty return means the control plane earned its keep:

    - at *every* load multiplier the controlled shed rate is no worse
      than reactive, and at ≥ 1 multiplier it strictly beats it (the
      utilization-aware entry offset must never regress a regime the
      way the pre-fix offset did at ×8);
    - at ≥ 1 fault multiplier with real repairs, the controlled
      injection→repaired time beats reactive detection + MTTR, *or* the
      mean session interruption drops.
    """
    problems: List[str] = []
    cluster = list(payload.get("cluster", []))  # type: ignore[arg-type]
    if not cluster:
        problems.append("no cluster cells in artifact")
    else:
        for cell in cluster:
            if float(cell["controlled_shed_rate"]) > float(
                cell["reactive_shed_rate"]
            ):
                problems.append(
                    "controlled shed rate regresses reactive at load "
                    f"multiplier {cell['multiplier']}"
                )
        if not any(
            float(cell["controlled_shed_rate"])
            < float(cell["reactive_shed_rate"])
            for cell in cluster
        ):
            problems.append(
                "controlled shed rate beats reactive at no load multiplier"
            )
    chaos = list(payload.get("chaos", []))  # type: ignore[arg-type]
    if not chaos:
        problems.append("no chaos cells in artifact")
    else:
        meaningful = [
            cell
            for cell in chaos
            if float(cell["reactive_repair_ms"]) > 0.0
        ]
        if not meaningful:
            problems.append("no chaos cell saw a reactive repair")
        elif not any(
            (
                0.0
                < float(cell["controlled_repair_ms"])
                < float(cell["reactive_repair_ms"])
            )
            or (
                0.0
                < float(cell["controlled_interruption_ms"])
                < float(cell["reactive_interruption_ms"])
            )
            for cell in meaningful
        ):
            problems.append(
                "controlled runs improve neither repair time nor "
                "interruption time at any fault multiplier"
            )
    return problems


def verify(result: ControlBenchResult) -> List[str]:
    """:func:`verify_payload` over a freshly run result."""
    return verify_payload(json.loads(result.to_json()))


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    """Parse a committed ``BENCH_control.json``; None when absent."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
