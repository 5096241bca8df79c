"""Figure 5: success rate of fixed vs random vs heuristic over 1000 hours.

Setup (Section 4): three heterogeneous devices — desktop, laptop, PDA —
with initial normalised availability RA1=[256MB, 300%], RA2=[128MB, 100%],
RA3=[32MB, 50%]; end-to-end bandwidths b12=50 Mbps, b13=5 Mbps,
b23=5 Mbps. 5000 application requests over 1000 hours, each picking one of
5 predefined graphs (50–100 nodes, 5–10 outbound edges), with holding
times exponentially distributed between 5 minutes and 1 hour.

"A service configuration request is said to be successful if the service
graph can fit into the current available devices. The success rate is
calculated by the ratio of the number of successful service configuration
requests to the number of total configuration attempts . . . every 50
hours."

Dynamic algorithms (heuristic, random) decide each request's placement
against the residual availability at its arrival; the fixed algorithm
freezes one placement per predefined graph (computed against the empty
system) and merely re-checks it, so it degrades as load concentrates.

Expected shape: heuristic ≥ random ≥ fixed at every sample point, with the
heuristic staying near the top of the band.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distribution.baselines import FixedDistributor, RandomDistributor
from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionStrategy
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.apps.templates import figure5_graphs
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import CPU, MEMORY, ResourceVector
from repro.workloads.requests import RequestTrace, figure5_trace


def paper_devices() -> List[CandidateDevice]:
    """The three devices with the paper's initial availability vectors."""
    return [
        CandidateDevice("desktop", ResourceVector({MEMORY: 256.0, CPU: 3.0})),
        CandidateDevice("laptop", ResourceVector({MEMORY: 128.0, CPU: 1.0})),
        CandidateDevice("pda", ResourceVector({MEMORY: 32.0, CPU: 0.5})),
    ]


def paper_bandwidths() -> Dict[Tuple[str, str], float]:
    """b12 = 50 Mbps, b13 = 5 Mbps, b23 = 5 Mbps."""
    return {
        ("desktop", "laptop"): 50.0,
        ("desktop", "pda"): 5.0,
        ("laptop", "pda"): 5.0,
    }


@dataclass
class SuccessSeries:
    """Success-rate samples for one algorithm."""

    name: str
    sample_times_h: List[float] = field(default_factory=list)
    success_rates: List[float] = field(default_factory=list)
    total_attempts: int = 0
    total_successes: int = 0
    failure_causes: Dict[str, int] = field(default_factory=dict)

    @property
    def overall_rate(self) -> float:
        if self.total_attempts == 0:
            return 0.0
        return self.total_successes / self.total_attempts

    def record_failure(self, violations) -> None:
        """Tally the kinds of constraint that killed a request.

        A failed request may violate several constraints; each distinct
        (kind, detail) pair counts once per request, so the tallies answer
        "how often was memory/CPU/bandwidth the binding constraint?".
        """
        seen = set()
        for violation in violations:
            key = (
                f"{violation.kind}:{violation.detail}"
                if violation.kind == "resource"
                else violation.kind
            )
            seen.add(key)
        for key in seen:
            self.failure_causes[key] = self.failure_causes.get(key, 0) + 1


@dataclass
class Figure5Result:
    """All series plus run metadata."""

    series: Dict[str, SuccessSeries]
    request_count: int
    horizon_h: float
    window_h: float

    def format_series(self) -> str:
        """Render the figure's data as an aligned text table."""
        names = [n for n in ("heuristic", "random", "fixed") if n in self.series]
        header = f"{'time (hr)':>10}" + "".join(f"{n:>12}" for n in names)
        lines = [
            "Figure 5. Success rate comparisons among the fixed, random and "
            "our heuristic algorithms",
            f"({self.request_count} requests over {self.horizon_h:g} hours, "
            f"sampled every {self.window_h:g} hours)",
            "",
            header,
        ]
        sample_times = self.series[names[0]].sample_times_h
        for i, t in enumerate(sample_times):
            row = f"{t:>10.0f}"
            for name in names:
                row += f"{self.series[name].success_rates[i]:>12.3f}"
            lines.append(row)
        lines.append("")
        lines.append(
            "overall:  "
            + ", ".join(
                f"{name}={self.series[name].overall_rate:.3f}" for name in names
            )
        )
        lines.append("")
        lines.append("failure causes (requests blocked by each constraint):")
        for name in names:
            causes = self.series[name].failure_causes
            if not causes:
                lines.append(f"  {name}: none")
                continue
            summary = ", ".join(
                f"{cause}={count}"
                for cause, count in sorted(
                    causes.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            lines.append(f"  {name}: {summary}")
        return "\n".join(lines)

    def ordering_holds(self) -> bool:
        """heuristic ≥ random ≥ fixed on overall success rate."""
        h = self.series["heuristic"].overall_rate
        r = self.series["random"].overall_rate
        f = self.series["fixed"].overall_rate
        return h >= r >= f


class _SystemState:
    """Residual resource/bandwidth bookkeeping for one algorithm's run."""

    def __init__(
        self,
        devices: Sequence[CandidateDevice],
        bandwidths: Dict[Tuple[str, str], float],
    ) -> None:
        self.capacity = {d.device_id: d.available for d in devices}
        self.allocated: Dict[str, ResourceVector] = {
            d.device_id: ResourceVector() for d in devices
        }
        self.bandwidth_capacity = {
            self._pair(*pair): mbps for pair, mbps in bandwidths.items()
        }
        self.bandwidth_used: Dict[Tuple[str, str], float] = {}

    @staticmethod
    def _pair(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def environment(self) -> DistributionEnvironment:
        devices = [
            CandidateDevice(did, self.capacity[did] - self.allocated[did])
            for did in self.capacity
        ]
        return DistributionEnvironment(devices, bandwidth=self.available_bandwidth)

    def available_bandwidth(self, first: str, second: str) -> float:
        key = self._pair(first, second)
        capacity = self.bandwidth_capacity.get(key, 0.0)
        return max(0.0, capacity - self.bandwidth_used.get(key, 0.0))

    def admit(self, graph: ServiceGraph, assignment: Assignment) -> Dict:
        """Charge an admitted application; returns the release token."""
        loads = assignment.device_loads(graph)
        for device_id, load in loads.items():
            self.allocated[device_id] = self.allocated[device_id] + load
        traffic = assignment.pairwise_throughput(graph)
        charged: Dict[Tuple[str, str], float] = {}
        for (src, dst), mbps in traffic.items():
            key = self._pair(src, dst)
            charged[key] = charged.get(key, 0.0) + mbps
            self.bandwidth_used[key] = self.bandwidth_used.get(key, 0.0) + mbps
        return {"loads": loads, "bandwidth": charged}

    def release(self, token: Dict) -> None:
        for device_id, load in token["loads"].items():
            self.allocated[device_id] = self.allocated[device_id] - load
        for key, mbps in token["bandwidth"].items():
            remaining = self.bandwidth_used.get(key, 0.0) - mbps
            if remaining <= 1e-12:
                self.bandwidth_used.pop(key, None)
            else:
                self.bandwidth_used[key] = remaining


def _simulate_one(
    name: str,
    strategy: DistributionStrategy,
    trace: RequestTrace,
    graphs: Sequence[ServiceGraph],
    devices: Sequence[CandidateDevice],
    bandwidths: Dict[Tuple[str, str], float],
    weights: CostWeights,
    window_h: float,
) -> SuccessSeries:
    state = _SystemState(devices, bandwidths)
    series = SuccessSeries(name=name)
    departures: List[Tuple[float, int, Dict]] = []
    window_attempts = 0
    window_successes = 0
    next_sample = window_h

    def flush_window(up_to: float) -> None:
        nonlocal window_attempts, window_successes, next_sample
        while next_sample <= up_to + 1e-12:
            rate = (window_successes / window_attempts) if window_attempts else 0.0
            series.sample_times_h.append(next_sample)
            series.success_rates.append(rate)
            window_attempts = 0
            window_successes = 0
            next_sample += window_h

    for request in trace:
        while departures and departures[0][0] <= request.arrival_h:
            _t, _rid, token = heapq.heappop(departures)
            state.release(token)
        flush_window(request.arrival_h)
        graph = graphs[request.graph_index]
        result = strategy.distribute(graph, state.environment(), weights)
        window_attempts += 1
        series.total_attempts += 1
        if result.feasible and result.assignment is not None:
            window_successes += 1
            series.total_successes += 1
            token = state.admit(graph, result.assignment)
            heapq.heappush(departures, (request.departure_h, request.request_id, token))
        else:
            series.record_failure(result.violations)
    flush_window(trace.horizon_h)
    return series


def run_figure5(
    trace: Optional[RequestTrace] = None,
    window_h: float = 50.0,
    random_attempts: int = 3,
    seed: int = 11,
    weights: Optional[CostWeights] = None,
) -> Figure5Result:
    """Run the three-algorithm success-rate comparison.

    The *random* baseline draws resource-aware random placements (mode
    ``"fit"``) with a small retry budget — it benefits from dynamic
    re-decision at every request but remains cost- and bandwidth-blind.
    The *fixed* baseline freezes one such random placement per predefined
    graph at its first request ("predefined configuration") and never
    revises it.
    """
    trace = trace or figure5_trace()
    graphs = figure5_graphs()
    devices = paper_devices()
    bandwidths = paper_bandwidths()
    weights = weights or CostWeights()

    strategies: List[Tuple[str, DistributionStrategy]] = [
        ("heuristic", HeuristicDistributor()),
        ("random", RandomDistributor(rng=random.Random(seed), attempts=random_attempts, mode="fit")),
        ("fixed", FixedDistributor(
            base=RandomDistributor(rng=random.Random(seed + 1), attempts=20, mode="fit")
        )),
    ]
    series: Dict[str, SuccessSeries] = {}
    for name, strategy in strategies:
        series[name] = _simulate_one(
            name, strategy, trace, graphs, devices, bandwidths, weights, window_h
        )
    return Figure5Result(
        series=series,
        request_count=len(trace),
        horizon_h=trace.horizon_h,
        window_h=window_h,
    )
