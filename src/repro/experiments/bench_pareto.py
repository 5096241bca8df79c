"""Standing benchmark for the per-class Pareto front cache.

``BENCH_pareto.json`` answers two questions about the multi-objective
admission path:

- **throughput leg** — profile-driven admission replays one seeded
  request stream twice, once with the per-domain
  :class:`~repro.server.admission.FrontCache` disabled (every walk
  re-probes all ladder levels) and once with it enabled (one probe per
  request class, O(1) lookups after). Cached throughput must be at
  least the uncached throughput, and both modes must reach *identical
  dispositions*. The waves are sized so every request fits at any rung:
  under genuine capacity pressure the modes legitimately diverge
  (uncached re-probing scores levels against the *loaded* ledger while
  the cache replays the cold measurement), so disposition equality is
  only a memo-correctness claim on an uncontended stream.
- **determinism leg** — the same profile-driven admission sequence runs
  twice on fresh testbeds; the serialised outcomes and the class's
  measured Pareto front must be byte-identical (the fronts carry a
  deterministic total order, so replays cannot reorder them).

CI re-runs the quick variant (``pareto-smoke``) and fails when either
claim stops holding; :func:`verify_payload` gates the committed
artifact the same way.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.distribution.pareto import profile_names
from repro.server.drivers import audit_or_raise
from repro.server.service import DomainConfigurationService, ServerRequest

#: Reporting order of the throughput modes.
MODES = ("uncached", "cached")

#: Clients the request stream cycles through (all resolve to one
#: request class: same abstract graph, same user QoS).
CLIENT_CYCLE = ("desktop1", "desktop2", "desktop3", "jornada")


@dataclass(frozen=True)
class ParetoBenchCell:
    """One throughput mode's measurement over the shared request stream."""

    mode: str
    requests: int
    admitted: int
    failed: int
    elapsed_s: float
    requests_per_s: float
    cache_hits: int
    cache_misses: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "requests": self.requests,
            "admitted": self.admitted,
            "failed": self.failed,
            "elapsed_s": round(self.elapsed_s, 6),
            "requests_per_s": round(self.requests_per_s, 3),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


@dataclass
class ParetoBenchResult:
    """The whole Pareto bench: both throughput modes plus determinism."""

    waves: int
    per_wave: int
    seed: int
    quick: bool
    cells: List[ParetoBenchCell] = field(default_factory=list)
    replay_identical: bool = False
    replay_digest: str = ""
    replay_outcomes: int = 0

    def cell(self, mode: str) -> ParetoBenchCell:
        for cell in self.cells:
            if cell.mode == mode:
                return cell
        raise KeyError(f"no pareto bench cell for mode {mode!r}")

    def speedup(self) -> float:
        """Cached-over-uncached throughput ratio."""
        return (
            self.cell("cached").requests_per_s
            / self.cell("uncached").requests_per_s
        )

    def format_table(self) -> str:
        header = (
            f"{'mode':>10}{'requests':>10}{'admitted':>10}{'req/s':>10}"
            f"{'hits':>7}{'misses':>8}{'speedup':>9}"
        )
        lines = [
            "Per-class Pareto front cache: profile-driven admission",
            f"(waves {self.waves} x {self.per_wave}, seed {self.seed}, "
            "one request class)",
            "",
            header,
        ]
        for cell in self.cells:
            speedup = (
                f"{self.speedup():>8.2f}x" if cell.mode == "cached" else " " * 9
            )
            lines.append(
                f"{cell.mode:>10}{cell.requests:>10d}{cell.admitted:>10d}"
                f"{cell.requests_per_s:>10.1f}{cell.cache_hits:>7d}"
                f"{cell.cache_misses:>8d}{speedup}"
            )
        lines.append("")
        lines.append(
            "replay: "
            + ("byte-identical" if self.replay_identical else "DIVERGED")
            + f" over {self.replay_outcomes} outcomes"
            + f" (digest {self.replay_digest[:12]})"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "benchmark": "pareto_front_cache",
            "config": {
                "waves": self.waves,
                "per_wave": self.per_wave,
                "seed": self.seed,
                "quick": self.quick,
                "profiles": list(profile_names()),
            },
            "cells": [cell.as_dict() for cell in self.cells],
            "determinism": {
                "runs": 2,
                "identical": self.replay_identical,
                "digest": self.replay_digest,
                "outcomes": self.replay_outcomes,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _request_stream(
    waves: int, per_wave: int, seed: int
) -> List[Tuple[str, str, str]]:
    """The seeded (request id, client, profile) stream both modes replay."""
    rng = random.Random(seed)
    profiles = profile_names()
    stream: List[Tuple[str, str, str]] = []
    rid = 0
    for _ in range(waves):
        for _ in range(per_wave):
            stream.append(
                (
                    f"req-{rid}",
                    CLIENT_CYCLE[rid % len(CLIENT_CYCLE)],
                    rng.choice(profiles),
                )
            )
            rid += 1
    return stream


def _run_mode(
    stream: Sequence[Tuple[str, str, str]],
    per_wave: int,
    front_cache: bool,
) -> ParetoBenchCell:
    """Serve the stream in waves; stop admitted sessions between waves."""
    testbed = build_audio_testbed()
    service = DomainConfigurationService(
        testbed.configurator,
        ladder=_bench_ladder(),
        queue_capacity=256,
        skip_downloads=True,
        front_cache=front_cache,
    )
    admitted = 0
    failed = 0
    # Collect first so a cell never pays for garbage earlier cells left: a
    # full collection is tens of ms, longer than a quick cell's own work.
    gc.collect()
    start = time.perf_counter()
    for offset in range(0, len(stream), per_wave):
        for rid, client, profile in stream[offset : offset + per_wave]:
            service.submit(
                ServerRequest(
                    request_id=rid,
                    composition=audio_request(testbed, client),
                    utility_profile=profile,
                )
            )
        for outcome in service.drain():
            if outcome.admitted:
                admitted += 1
                if outcome.session is not None and outcome.session.running:
                    service.stop_session(outcome)
            else:
                failed += 1
    elapsed = time.perf_counter() - start
    audit_or_raise(service, "pareto bench")
    cache = service.admission.front_cache
    return ParetoBenchCell(
        mode="cached" if front_cache else "uncached",
        requests=len(stream),
        admitted=admitted,
        failed=failed,
        elapsed_s=elapsed,
        requests_per_s=len(stream) / elapsed if elapsed > 0 else 0.0,
        cache_hits=cache.hits if cache is not None else 0,
        cache_misses=cache.misses if cache is not None else 0,
    )


def _bench_ladder():
    from repro.qos.vectors import QoSVector
    from repro.runtime.degradation import DegradationLadder, QoSLevel

    qos = QoSVector(frame_rate=(20.0, 48.0))
    return DegradationLadder.of(
        QoSLevel(label="full", user_qos=qos, demand_scale=1.0),
        QoSLevel(label="reduced", user_qos=qos, demand_scale=0.7),
        QoSLevel(label="economy", user_qos=qos, demand_scale=0.45),
    )


def _replay_once(stream: Sequence[Tuple[str, str, str]]) -> str:
    """One deterministic replay, serialised: outcomes plus the class front."""
    testbed = build_audio_testbed()
    service = DomainConfigurationService(
        testbed.configurator,
        ladder=_bench_ladder(),
        queue_capacity=256,
        skip_downloads=True,
    )
    for rid, client, profile in stream:
        service.submit(
            ServerRequest(
                request_id=rid,
                composition=audio_request(testbed, client),
                utility_profile=profile,
            )
        )
    outcomes = [
        (o.request_id, o.status.name, o.level) for o in service.drain()
    ]
    front = service.admission.class_front(
        audio_request(testbed, CLIENT_CYCLE[0])
    )
    return json.dumps(
        {
            "outcomes": outcomes,
            "front": [p.as_dict() for p in front.points()],
        },
        sort_keys=True,
    )


def run_pareto_bench(
    waves: int = 12,
    per_wave: int = 4,
    seed: int = 42,
    quick: bool = False,
) -> ParetoBenchResult:
    """Run the cached-vs-uncached Pareto bench plus the replay check."""
    if quick:
        waves = min(waves, 4)
    stream = _request_stream(waves, per_wave, seed)
    result = ParetoBenchResult(
        waves=waves, per_wave=per_wave, seed=seed, quick=quick
    )
    for front_cache in (False, True):
        result.cells.append(_run_mode(stream, per_wave, front_cache))
    replay_stream = _request_stream(min(waves, 4), per_wave, seed)
    first = _replay_once(replay_stream)
    second = _replay_once(replay_stream)
    result.replay_identical = first == second
    result.replay_digest = hashlib.sha256(first.encode("utf-8")).hexdigest()
    result.replay_outcomes = len(replay_stream)
    return result


# -- the gate ------------------------------------------------------------------------


def verify_payload(payload: Dict[str, object]) -> List[str]:
    """The claims a ``BENCH_pareto.json`` payload must uphold.

    Empty return means the artifact passes:

    - the determinism leg's two replays were byte-identical;
    - the cached mode's throughput is at least the uncached mode's (the
      cache can only remove probe work, never add it);
    - both modes reached identical dispositions (admitted and failed
      counts match) — the cache is a memo, not a decision change.
    """
    problems: List[str] = []
    determinism = payload.get("determinism")
    if not isinstance(determinism, dict) or not determinism.get("identical"):
        problems.append("profile-driven replay is not byte-identical")
    cells = {
        cell["mode"]: cell
        for cell in payload.get("cells", [])  # type: ignore[union-attr]
        if isinstance(cell, dict) and "mode" in cell
    }
    uncached = cells.get("uncached")
    cached = cells.get("cached")
    if uncached is None or cached is None:
        problems.append("missing cached/uncached throughput cells")
        return problems
    if float(cached["requests_per_s"]) < float(uncached["requests_per_s"]):
        problems.append(
            "front-cached admission is slower than uncached "
            f"({cached['requests_per_s']} < {uncached['requests_per_s']} req/s)"
        )
    for counter in ("admitted", "failed"):
        if int(cached[counter]) != int(uncached[counter]):
            problems.append(
                f"cache changed dispositions: {counter} "
                f"{cached[counter]} (cached) != {uncached[counter]} (uncached)"
            )
    if int(cached["cache_hits"]) <= 0:
        problems.append("cached mode recorded no cache hits")
    return problems


def verify(result: ParetoBenchResult) -> List[str]:
    """Gate a fresh in-memory result (same checks as the payload gate)."""
    return verify_payload(json.loads(result.to_json()))


def compare_to_baseline(
    current: ParetoBenchResult,
    baseline: Dict[str, object],
    tolerance: float = 0.15,
) -> List[str]:
    """Relative regressions of ``current`` against a committed baseline.

    The machine-portable gate: the cached/uncached speedup must not fall
    more than ``tolerance`` below the baseline's, with the floor capped
    at break-even (a short CI run legitimately sees a smaller speedup,
    but cached dropping below uncached is always a real regression).
    """
    if tolerance < 0:
        raise ValueError("tolerance cannot be negative")
    cells = {
        cell["mode"]: cell
        for cell in baseline.get("cells", [])  # type: ignore[union-attr]
        if isinstance(cell, dict) and "mode" in cell
    }
    uncached = cells.get("uncached")
    cached = cells.get("cached")
    if uncached is None or cached is None:
        return []
    uncached_rps = float(uncached["requests_per_s"])
    if uncached_rps <= 0:
        return []
    baseline_speedup = float(cached["requests_per_s"]) / uncached_rps
    try:
        current_speedup = current.speedup()
    except (KeyError, ZeroDivisionError):
        return ["current result is missing a throughput cell"]
    floor = min(baseline_speedup * (1.0 - tolerance), 1.0)
    if current_speedup < floor:
        return [
            f"front-cache speedup {current_speedup:.2f}x < {floor:.2f}x "
            f"(baseline {baseline_speedup:.2f}x - {100.0 * tolerance:.0f}%)"
        ]
    return []


def load_baseline(path: str) -> Optional[Dict[str, object]]:
    """Parse a committed ``BENCH_pareto.json``; None when absent."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return None
