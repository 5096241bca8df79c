"""Load sensitivity of the Figure 5 result (an extension beyond the paper).

Figure 5 fixes the offered load at 5000 requests / 1000 h. This sweep
varies the arrival rate around that operating point and reports each
algorithm's overall success rate, answering two questions the paper leaves
open: how quickly does each policy degrade as the smart space saturates,
and does the heuristic's advantage persist at light load (where any
placement fits) and at heavy load (where nothing does)?

Expected shape: all curves decrease monotonically (modulo sampling noise)
in offered load; the heuristic dominates at every point, with the largest
relative gap in the mid-load region where placement quality decides
admission.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.experiments.figure5 import run_figure5
from repro.workloads.requests import figure5_trace


@dataclass
class LoadSweepResult:
    """Success rate per algorithm per load multiplier."""

    multipliers: List[float] = field(default_factory=list)
    rates: Dict[str, List[float]] = field(default_factory=dict)
    base_requests: int = 0
    horizon_h: float = 0.0

    def format_table(self) -> str:
        names = sorted(self.rates)
        header = f"{'load x':>8}" + "".join(f"{n:>12}" for n in names)
        lines = [
            "Load sensitivity of the Figure 5 success-rate comparison",
            f"(base load: {self.base_requests} requests over "
            f"{self.horizon_h:g} hours)",
            "",
            header,
        ]
        for i, multiplier in enumerate(self.multipliers):
            row = f"{multiplier:>8.2f}"
            for name in names:
                row += f"{self.rates[name][i]:>12.3f}"
            lines.append(row)
        return "\n".join(lines)

    def monotone_nonincreasing(self, name: str, tolerance: float = 0.05) -> bool:
        """Rates decrease with load, allowing small sampling noise."""
        values = self.rates[name]
        return all(b <= a + tolerance for a, b in zip(values, values[1:]))


def run_load_sweep(
    multipliers: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0),
    base_requests: int = 600,
    horizon_h: float = 120.0,
    seed: int = 17,
) -> LoadSweepResult:
    """Run Figure 5's three algorithms across arrival-rate multipliers.

    Each point is one :func:`run_figure5` over a ``seed`` trace of
    ``base_requests × multiplier`` requests, sampled once over the whole
    horizon; the baselines draw from ``seed + 1``.
    """
    result = LoadSweepResult(
        base_requests=base_requests, horizon_h=horizon_h
    )
    for multiplier in multipliers:
        request_count = max(1, int(round(base_requests * multiplier)))
        figure = run_figure5(
            trace=figure5_trace(
                seed=seed, request_count=request_count, horizon_h=horizon_h
            ),
            window_h=horizon_h,
            seed=seed + 1,
        )
        result.multipliers.append(multiplier)
        for name, series in figure.series.items():
            result.rates.setdefault(name, []).append(series.overall_rate)
    return result
