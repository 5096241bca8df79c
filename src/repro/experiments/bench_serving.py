"""Standing performance benchmarks: the serving core and the distributor.

Not a paper table — the repo's perf trajectory. ``python -m repro bench``
measures two things and writes one committed JSON artifact each:

- **Serving core** (``BENCH_serving.json``) — requests/sec and
  p50/p95 end-to-end latency of the worker-side hot path, batched vs
  unbatched, at 1/4/8 shards. The workload is admission-heavy: waves
  sized to each shard's capacity are submitted through the cluster's
  router, drained single-threaded (so the numbers isolate the serving
  core — snapshot builds, ledger rounds, deploy bookkeeping — from
  thread-scheduler noise), and admitted sessions are stopped between
  waves so capacity keeps turning over. Batched and unbatched modes serve
  identical request streams and should admit identical counts; only the
  grouping differs.
- **Distribution search** (``BENCH_distribution.json``) — wall-clock
  search time of the service distributor versus graph size, the number
  the paper's Table 1 scaling claims rest on.

CI re-runs the quick variant on every push and fails when any serving
cell's requests/sec regresses more than the tolerance against the
committed baseline (:func:`compare_to_baseline`).
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.audio_on_demand import (
    CLIENT_CYCLE,
    audio_request,
    build_audio_cluster,
)
from repro.distribution.cost import CostWeights
from repro.distribution.heuristic import HeuristicDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.server.batching import BatchPolicy
from repro.server.drivers import audit_or_raise
from repro.server.service import ServerRequest

#: The shard counts every serving bench run covers.
SHARD_COUNTS = (1, 4, 8)

#: Serving-bench modes, in reporting order.
MODES = ("unbatched", "batched")


@dataclass(frozen=True)
class ServingBenchCell:
    """One (shard count × mode) measurement."""

    shards: int
    mode: str
    requests: int
    admitted: int
    failed: int
    shed: int
    elapsed_s: float
    requests_per_s: float
    p50_total_ms: float
    p95_total_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "mode": self.mode,
            "requests": self.requests,
            "admitted": self.admitted,
            "failed": self.failed,
            "shed": self.shed,
            "elapsed_s": round(self.elapsed_s, 6),
            "requests_per_s": round(self.requests_per_s, 3),
            "p50_total_ms": round(self.p50_total_ms, 6),
            "p95_total_ms": round(self.p95_total_ms, 6),
        }


@dataclass
class ServingBenchResult:
    """The whole serving bench: shard counts × modes."""

    waves: int
    per_shard: int
    max_batch_size: int
    quick: bool
    cells: List[ServingBenchCell] = field(default_factory=list)

    def cell(self, shards: int, mode: str) -> ServingBenchCell:
        for cell in self.cells:
            if cell.shards == shards and cell.mode == mode:
                return cell
        raise KeyError(f"no bench cell for {shards} shards / {mode}")

    def speedup(self, shards: int) -> float:
        """Batched-over-unbatched throughput ratio at one shard count."""
        return (
            self.cell(shards, "batched").requests_per_s
            / self.cell(shards, "unbatched").requests_per_s
        )

    def format_table(self) -> str:
        header = (
            f"{'shards':>7}{'mode':>11}{'requests':>10}{'admitted':>10}"
            f"{'req/s':>10}{'p50 ms':>9}{'p95 ms':>9}{'speedup':>9}"
        )
        lines = [
            "Serving-core throughput: batched vs unbatched admission",
            f"(waves {self.waves} x {self.per_shard}/shard, "
            f"max batch {self.max_batch_size}, single-threaded drain)",
            "",
            header,
        ]
        for cell in self.cells:
            speedup = (
                f"{self.speedup(cell.shards):>8.2f}x"
                if cell.mode == "batched"
                else " " * 9
            )
            lines.append(
                f"{cell.shards:>7d}{cell.mode:>11}{cell.requests:>10d}"
                f"{cell.admitted:>10d}{cell.requests_per_s:>10.1f}"
                f"{cell.p50_total_ms:>9.2f}{cell.p95_total_ms:>9.2f}{speedup}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "benchmark": "serving_core",
            "config": {
                "waves": self.waves,
                "per_shard": self.per_shard,
                "max_batch_size": self.max_batch_size,
                "quick": self.quick,
                "shard_counts": list(SHARD_COUNTS),
            },
            "cells": [cell.as_dict() for cell in self.cells],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an unsorted sample sequence."""
    if not samples:
        return 0.0
    import math

    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def _run_serving_cell(
    shards: int,
    batched: bool,
    waves: int,
    per_shard: int,
    max_batch_size: int,
) -> ServingBenchCell:
    """Measure one (shard count × mode) cell.

    Requests are submitted through the cluster router in capacity-sized
    waves and drained single-threaded, in chunks of the mode's batch
    policy (one request per chunk unbatched); admitted sessions stop between
    waves so the ledger keeps turning over and every wave exercises real
    admissions rather than saturated-ladder failures.
    """
    cluster, testbeds = build_audio_cluster(
        shards,
        router="least-loaded",
        queue_capacity=256,
        batched=batched,
        batch=BatchPolicy(max_batch_size=max_batch_size, max_linger_s=0.0),
    )
    rid = 0
    # Collect first and keep the cyclic collector off while the clock runs:
    # a collection pause (tens of ms for the cell's heap) lands wherever an
    # allocation count trips it, and would time the collector, not the
    # batching under test.
    gc.collect()
    collector_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(waves):
            for _ in range(per_shard * shards):
                client = CLIENT_CYCLE[rid % len(CLIENT_CYCLE)]
                cluster.submit(
                    ServerRequest(
                        request_id=f"req-{rid}",
                        composition=audio_request(testbeds[0], client),
                        user_id=f"user-{rid % 97}",
                    )
                )
                rid += 1
            for shard in cluster.shards:
                shard.drain()
            for shard in cluster.shards:
                for outcome in shard.outcomes():
                    if (
                        outcome.admitted
                        and outcome.session is not None
                        and outcome.session.running
                    ):
                        shard.stop_session(outcome)
        elapsed = time.perf_counter() - start
    finally:
        if collector_was_enabled:
            gc.enable()
    audit_or_raise(cluster, "serving bench")
    snapshot = cluster.metrics.snapshot()["cluster"]
    totals: List[float] = []
    for shard in cluster.shards:
        totals.extend(shard.metrics.stage("total_ms").iter_samples())
    return ServingBenchCell(
        shards=shards,
        mode="batched" if batched else "unbatched",
        requests=rid,
        admitted=snapshot["admitted"],  # type: ignore[index]
        failed=snapshot["failed"],  # type: ignore[index]
        shed=snapshot["shed_final"],  # type: ignore[index]
        elapsed_s=elapsed,
        requests_per_s=rid / elapsed if elapsed > 0 else 0.0,
        p50_total_ms=_percentile(totals, 50),
        p95_total_ms=_percentile(totals, 95),
    )


def run_serving_bench(
    shard_counts: Sequence[int] = SHARD_COUNTS,
    waves: int = 12,
    per_shard: int = 4,
    max_batch_size: int = 8,
    quick: bool = False,
) -> ServingBenchResult:
    """Run the batched-vs-unbatched serving bench across shard counts."""
    if quick:
        waves = min(waves, 4)
    result = ServingBenchResult(
        waves=waves,
        per_shard=per_shard,
        max_batch_size=max_batch_size,
        quick=quick,
    )
    for shards in shard_counts:
        for batched in (False, True):
            result.cells.append(
                _run_serving_cell(
                    shards, batched, waves, per_shard, max_batch_size
                )
            )
    return result


# -- the distribution-search bench ---------------------------------------------------


@dataclass(frozen=True)
class DistributionBenchCell:
    """Search time of one algorithm at one graph size."""

    nodes: int
    algorithm: str
    repeats: int
    mean_ms: float
    min_ms: float
    max_ms: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "nodes": self.nodes,
            "algorithm": self.algorithm,
            "repeats": self.repeats,
            "mean_ms": round(self.mean_ms, 3),
            "min_ms": round(self.min_ms, 3),
            "max_ms": round(self.max_ms, 3),
        }


@dataclass
class DistributionBenchResult:
    """Distributor search time versus graph size."""

    repeats: int
    device_count: int
    quick: bool
    cells: List[DistributionBenchCell] = field(default_factory=list)

    def format_table(self) -> str:
        header = f"{'nodes':>7}{'algorithm':>14}{'mean ms':>10}{'min ms':>9}{'max ms':>9}"
        lines = [
            "Distribution search time vs graph size",
            f"({self.device_count} candidate devices, "
            f"{self.repeats} repeats per cell)",
            "",
            header,
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.nodes:>7d}{cell.algorithm:>14}{cell.mean_ms:>10.2f}"
                f"{cell.min_ms:>9.2f}{cell.max_ms:>9.2f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "benchmark": "distribution_search",
            "config": {
                "repeats": self.repeats,
                "device_count": self.device_count,
                "quick": self.quick,
            },
            "cells": [cell.as_dict() for cell in self.cells],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _bench_graph(node_count: int, seed: int = 7):
    config = RandomGraphConfig(
        node_count=(node_count, node_count),
        out_degree=(3, 6),
        memory_mb=(0.1, 1.0),
        cpu_fraction=(0.001, 0.01),
    )
    return random_service_graph(random.Random(seed), config)


def _bench_environment(device_count: int):
    from repro.distribution.fit import CandidateDevice, DistributionEnvironment
    from repro.resources.vectors import ResourceVector

    devices = [
        CandidateDevice(f"dev{i}", ResourceVector(memory=200.0, cpu=2.0))
        for i in range(device_count)
    ]
    bandwidth = {
        (f"dev{i}", f"dev{j}"): 100.0
        for i in range(device_count)
        for j in range(i + 1, device_count)
    }
    return DistributionEnvironment(devices, bandwidth=bandwidth)


def run_distribution_bench(
    node_counts: Sequence[int] = (25, 50, 100),
    repeats: int = 5,
    device_count: int = 8,
    quick: bool = False,
) -> DistributionBenchResult:
    """Time the heuristic distributor's search across graph sizes."""
    if quick:
        node_counts = tuple(node_counts)[:2]
        repeats = min(repeats, 3)
    result = DistributionBenchResult(
        repeats=repeats, device_count=device_count, quick=quick
    )
    environment = _bench_environment(device_count)
    weights = CostWeights()
    distributor = HeuristicDistributor()
    for nodes in node_counts:
        graph = _bench_graph(nodes)
        times_ms: List[float] = []
        for _ in range(repeats):
            start = time.perf_counter()
            outcome = distributor.distribute(graph, environment, weights)
            times_ms.append((time.perf_counter() - start) * 1000.0)
            if not outcome.feasible:
                raise AssertionError(
                    f"distribution bench graph ({nodes} nodes) infeasible"
                )
        result.cells.append(
            DistributionBenchCell(
                nodes=nodes,
                algorithm="heuristic",
                repeats=repeats,
                mean_ms=sum(times_ms) / len(times_ms),
                min_ms=min(times_ms),
                max_ms=max(times_ms),
            )
        )
    return result


# -- the regression gate -------------------------------------------------------------


def compare_to_baseline(
    current: ServingBenchResult,
    baseline: Dict[str, object],
    tolerance: float = 0.15,
) -> List[str]:
    """Throughput regressions of ``current`` against a committed baseline.

    Two gates, both at ``tolerance``; empty return means both pass:

    - **absolute** — only when the two runs used the same workload shape
      (waves × per-shard × batch size × quick flag): each (shards, mode)
      cell's requests/sec must reach the baseline cell's minus tolerance.
      Skipped for mismatched configs — absolute numbers from different
      wave counts (or different machines' committed baselines) are not
      comparable;
    - **relative** — always: the batched/unbatched speedup per shard
      count must not fall more than tolerance below the baseline's
      (floor capped at break-even, since short CI runs legitimately see
      smaller speedups than the committed long run). This is the
      machine-portable gate: it catches the batching core getting slower
      relative to the unbatched path it shares every other cost with,
      which is the regression this benchmark exists to catch.

    Cells present on only one side are ignored (the bench shape may grow
    between PRs), as are baseline cells with non-positive throughput.
    """
    if tolerance < 0:
        raise ValueError("tolerance cannot be negative")
    config = baseline.get("config", {})
    same_config = (
        config.get("waves") == current.waves  # type: ignore[union-attr]
        and config.get("per_shard") == current.per_shard  # type: ignore[union-attr]
        and config.get("max_batch_size") == current.max_batch_size  # type: ignore[union-attr]
        and config.get("quick") == current.quick  # type: ignore[union-attr]
    )
    baseline_cells = {
        (cell["shards"], cell["mode"]): cell
        for cell in baseline.get("cells", [])  # type: ignore[union-attr]
    }
    regressions: List[str] = []
    if same_config:
        for cell in current.cells:
            reference = baseline_cells.get((cell.shards, cell.mode))
            if reference is None:
                continue
            reference_rps = float(reference["requests_per_s"])  # type: ignore[index]
            if reference_rps <= 0:
                continue
            floor = reference_rps * (1.0 - tolerance)
            if cell.requests_per_s < floor:
                regressions.append(
                    f"{cell.shards} shard(s) {cell.mode}: "
                    f"{cell.requests_per_s:.1f} req/s < "
                    f"{floor:.1f} (baseline {reference_rps:.1f} "
                    f"- {100.0 * tolerance:.0f}%)"
                )
    shard_counts = sorted(
        {cell.shards for cell in current.cells if cell.mode == "batched"}
    )
    for shards in shard_counts:
        batched = baseline_cells.get((shards, "batched"))
        unbatched = baseline_cells.get((shards, "unbatched"))
        if batched is None or unbatched is None:
            continue
        unbatched_rps = float(unbatched["requests_per_s"])  # type: ignore[index]
        if unbatched_rps <= 0:
            continue
        baseline_speedup = float(batched["requests_per_s"]) / unbatched_rps  # type: ignore[index]
        try:
            current_speedup = current.speedup(shards)
        except (KeyError, ZeroDivisionError):
            continue
        # Capped at break-even: short CI runs legitimately see smaller
        # speedups than the committed long run, but batched dropping
        # below the unbatched path is always a real regression.
        floor = min(baseline_speedup * (1.0 - tolerance), 1.0)
        if current_speedup < floor:
            regressions.append(
                f"{shards} shard(s): batched speedup "
                f"{current_speedup:.2f}x < {floor:.2f}x "
                f"(baseline {baseline_speedup:.2f}x "
                f"- {100.0 * tolerance:.0f}%)"
            )
    return regressions


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    """Parse a committed ``BENCH_serving.json``; None when absent."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
