"""The four benchmark workloads, one seeded round at a time.

A *round* builds its inputs and environment from one seed (timed as set
up), then serves them inside the runner's measured phase (``measure`` is a
context manager that starts and stops the wall clock and, for traced
runs, installs the layer wrappers). Everything runs on the calling
thread. Every round also checks its own outputs: the ledger audit, one
final outcome per submitted request, and the disposition balance.

Inputs come only from the program's stable public surface: the apps
testbed, ``compile_scenario``/``run_scenario``, ``DomainCluster`` and the
service classes, plus the benchmark's own documents.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.observability.tracing import NullTracer, get_tracer
from repro.qos.vectors import QoSVector
from repro.runtime.degradation import DegradationLadder, QoSLevel
from repro.scenarios.compile import compile_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.server.batching import BatchingDomainService, BatchPolicy
from repro.server.cluster import DomainCluster, LeastLoadedRouter
from repro.server.service import (
    DomainConfigurationService,
    RequestOutcome,
    RequestStatus,
    ServerRequest,
)

import documents

AUDIO_CLIENTS = ("desktop1", "desktop2", "desktop3", "jornada")

#: Fixed workload parameters, recorded here so every run uses the same.
CLUSTER_SHARDS = 8
CLUSTER_WAVE = 32  # requests per wave: about one full-QoS wave of capacity
CLUSTER_WAVES = 60  # waves per round
MESH_WAVE = 12
MESH_REQUESTS = 1200
MESH_WAVE_PERIOD_S = 10.0  # sim-seconds of hold time one wave stands for
OPEN_RATE_PER_S = 250.0
OPEN_ARRIVALS = 1000  # four wall seconds of arrivals per round
OPEN_HOLD_MEAN_S = 0.020
OPEN_DEADLINE_S = 0.100
OPEN_LATENCY_LIMIT_MS = 20.0
OPEN_SPIN_S = 0.002  # the last stretch of every wait spins instead of sleeping
CLOSED_LATENCY_LIMIT_MS = {"cluster_waves": 50.0, "profile_mesh": 100.0}
SURGE_MULTIPLIER = 6.0
SURGE_HORIZON_S = 60.0
SURGE_SETUPS = 5


@dataclass
class RoundResult:
    """What one round measured and whether its outputs were correct."""

    index: int = 0  # sub-seed index the round ran with
    setup_s: List[float] = field(default_factory=list)
    wall_s: float = 0.0
    idle_s: float = 0.0
    submitted: int = 0
    admitted: int = 0  # admitted at the top rung
    degraded: int = 0
    failed: int = 0
    shed: int = 0
    latency_ms: List[float] = field(default_factory=list)
    sim_config_ms: List[float] = field(default_factory=list)
    sim_latency_ms: Optional[Dict[str, float]] = None
    slo_met: int = 0
    late_ms: List[float] = field(default_factory=list)
    digest: str = ""
    problems: List[str] = field(default_factory=list)

    @property
    def decided(self) -> int:
        return self.admitted + self.degraded + self.failed + self.shed

    @property
    def busy_s(self) -> float:
        return self.wall_s - self.idle_s


class Measure:
    """Times one round's measured phase.

    With a tracer, the layer wrappers are installed on entry and restored
    on exit, so they exist only while a traced round serves requests.
    Either way the program's own tracer must stay the no-op default.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.elapsed_s = 0.0
        self.problems: List[str] = []
        self._start = 0.0

    def _check_null_tracer(self, when: str) -> None:
        if not isinstance(get_tracer(), NullTracer):
            self.problems.append(f"program tracer is not the NullTracer {when}")

    def __enter__(self) -> "Measure":
        self._check_null_tracer("before the measured phase")
        # The cyclic collector is off while requests are served, as in
        # timeit. Its pauses (up to ~50 ms for a round's heap) start at
        # allocation counts, not between requests, so one pause would
        # delay anywhere from one shard's requests to a whole wave,
        # depending on the seed, and make the p99 jump between two modes
        # from round to round. The runner collects before every round.
        gc.collect()
        gc.disable()
        if self.tracer is not None:
            self.tracer.install()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed_s = time.perf_counter() - self._start
        gc.enable()
        if self.tracer is not None:
            self.tracer.restore()
        self._check_null_tracer("after the measured phase")


def audio_ladder() -> DegradationLadder:
    """Full and reduced audio rungs (the reduced rung scales demand)."""
    qos = QoSVector(frame_rate=(20.0, 48.0))
    return DegradationLadder.of(
        QoSLevel(label="full", user_qos=qos, demand_scale=1.0),
        QoSLevel(label="reduced", user_qos=qos, demand_scale=0.6),
    )


class _Tally:
    """Per-request bookkeeping shared by the live workloads."""

    def __init__(self, result: RoundResult, limit_ms: float) -> None:
        self.result = result
        self.limit_ms = limit_ms
        self.started: Dict[str, float] = {}
        self.final: Dict[str, RequestOutcome] = {}

    def submitted(self, request_id: str, at: float) -> None:
        if request_id in self.started:
            self.result.problems.append(f"{request_id} submitted twice")
        self.started[request_id] = at

    def decided(self, outcome: RequestOutcome, at: float) -> None:
        request_id = outcome.request_id
        if outcome.status is RequestStatus.QUEUED:
            return
        if request_id in self.final:
            self.result.problems.append(f"{request_id} has two final outcomes")
            return
        if request_id not in self.started:
            self.result.problems.append(f"{request_id} decided but never submitted")
            return
        self.final[request_id] = outcome
        latency_ms = (at - self.started[request_id]) * 1000.0
        self.result.latency_ms.append(latency_ms)
        status = outcome.status
        if status is RequestStatus.ADMITTED:
            self.result.admitted += 1
        elif status is RequestStatus.DEGRADED:
            self.result.degraded += 1
        elif status is RequestStatus.FAILED:
            self.result.failed += 1
        else:
            self.result.shed += 1
        if outcome.admitted:
            self.result.sim_config_ms.append(
                sum(record.timing.total_ms for record in outcome.attempts)
            )
            if latency_ms <= self.limit_ms:
                self.result.slo_met += 1

    def close(self, audit: List[str]) -> None:
        """Final checks: audit clean, one outcome each, balance holds."""
        result = self.result
        result.submitted = len(self.started)
        result.problems.extend(f"ledger audit: {p}" for p in audit)
        missing = set(self.started) - set(self.final)
        if missing:
            result.problems.append(
                f"{len(missing)} requests without a final outcome, "
                f"e.g. {sorted(missing)[0]}"
            )
        if result.submitted != result.decided:
            result.problems.append(
                f"submitted {result.submitted} != admitted {result.admitted} "
                f"+ degraded {result.degraded} + failed {result.failed} "
                f"+ shed {result.shed}"
            )
        result.digest = digest(
            f"{rid} {o.status.value} {o.level}" for rid, o in self.final.items()
        )


def digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode("utf-8")).hexdigest()


def _check_counters(result: RoundResult, counters: Dict[str, int]) -> None:
    """Cross-check the harness tally against the service's own counters."""
    expected = {
        "submitted": result.submitted,
        "admitted": result.admitted + result.degraded,
        "degraded": result.degraded,
        "failed": result.failed,
        "shed": result.shed,
    }
    for name, value in expected.items():
        if counters[name] != value:
            result.problems.append(
                f"service counter {name}={counters[name]} but harness saw {value}"
            )


def _service_counters(service: DomainConfigurationService) -> Dict[str, int]:
    metrics = service.metrics
    return {
        "submitted": metrics.count("submitted"),
        "admitted": metrics.count("admitted"),
        "degraded": metrics.count("admitted_degraded"),
        "failed": metrics.count("failed"),
        "shed": metrics.shed_total,
    }


# -- cluster_waves ---------------------------------------------------------------------


def cluster_waves(seed: int, measure: Measure, scale: float = 1.0) -> RoundResult:
    """Capacity-sized waves through an 8-shard batched least-loaded cluster."""
    result = RoundResult()
    rng = random.Random(seed)
    waves = max(2, int(CLUSTER_WAVES * scale))
    plan = [
        [
            (f"w{wave}-{index}", rng.choice(AUDIO_CLIENTS), f"user-{rng.randrange(4096)}")
            for index in range(CLUSTER_WAVE)
        ]
        for wave in range(waves)
    ]
    start = time.perf_counter()
    testbeds = [build_audio_testbed() for _ in range(CLUSTER_SHARDS)]
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=LeastLoadedRouter(),
        batched=True,
        batch=BatchPolicy(max_batch_size=16, max_linger_s=0.0),
        ladder=audio_ladder(),
        queue_capacity=64,
        skip_downloads=True,
    )
    requests = [
        [
            ServerRequest(
                request_id=request_id,
                composition=audio_request(testbeds[0], client),
                user_id=user,
            )
            for request_id, client, user in wave
        ]
        for wave in plan
    ]
    result.setup_s.append(time.perf_counter() - start)

    tally = _Tally(result, CLOSED_LATENCY_LIMIT_MS["cluster_waves"])
    clock = time.perf_counter
    with measure:
        for wave in requests:
            for request in wave:
                tally.submitted(request.request_id, clock())
                placed = cluster.submit(request)
                tally.decided(placed.outcome, clock())
            served: List[tuple] = []
            for shard in cluster.shards:
                while True:
                    outcomes = shard.process_batch()
                    if not outcomes:
                        break
                    now = clock()
                    for outcome in outcomes:
                        tally.decided(outcome, now)
                    served.extend((shard, outcome) for outcome in outcomes)
            for shard, outcome in served:
                if outcome.admitted:
                    shard.stop_session(outcome)
    result.wall_s = measure.elapsed_s
    tally.close(cluster.audit())
    whole = cluster.metrics.snapshot()["cluster"]
    _check_counters(
        result,
        {
            "submitted": whole["submitted"],
            "admitted": whole["admitted"],
            "degraded": whole["degraded"],
            "failed": whole["failed"],
            "shed": whole["shed_final"],
        },
    )
    return result


# -- profile_mesh ----------------------------------------------------------------------


def profile_mesh(seed: int, measure: Measure, scale: float = 1.0) -> RoundResult:
    """Profile-ordered ladder walks over a held conference mesh, unbatched."""
    result = RoundResult()
    count = max(2 * MESH_WAVE, int(MESH_REQUESTS * scale))
    start = time.perf_counter()
    compiled = compile_scenario(
        ScenarioSpec.from_dict(
            documents.profile_mesh_document(seed, horizon_s=2.0 * count + 60.0)
        )
    )
    testbed = compiled.build_testbed()
    spec = compiled.spec
    service = DomainConfigurationService(
        testbed.configurator,
        ladder=compiled.ladder(),
        queue_capacity=spec.server.queue_capacity,
        skip_downloads=spec.server.skip_downloads,
        max_conflict_retries=spec.server.max_conflict_retries,
        scenario=spec.name,
    )
    events = list(compiled.arrival_trace())[:count]
    if len(events) < count:
        raise RuntimeError("profile_mesh trace is shorter than one round")
    to_request = compiled.request_factory(testbed)
    requests = [to_request(event) for event in events]
    hold_waves = {
        request.request_id: max(1, math.ceil(request.duration_s / MESH_WAVE_PERIOD_S))
        for request in requests
    }
    result.setup_s.append(time.perf_counter() - start)

    tally = _Tally(result, CLOSED_LATENCY_LIMIT_MS["profile_mesh"])
    clock = time.perf_counter
    holding: List[tuple] = []  # (release wave, sequence, outcome)
    with measure:
        for wave_index in range(0, len(requests), MESH_WAVE):
            wave_no = wave_index // MESH_WAVE
            while holding and holding[0][0] <= wave_no:
                service.stop_session(heapq.heappop(holding)[2])
            for request in requests[wave_index:wave_index + MESH_WAVE]:
                tally.submitted(request.request_id, clock())
                tally.decided(service.submit(request), clock())
            while True:
                outcome = service.process_next()
                if outcome is None:
                    break
                tally.decided(outcome, clock())
                if outcome.admitted:
                    heapq.heappush(
                        holding,
                        (
                            wave_no + hold_waves[outcome.request_id],
                            len(tally.final),
                            outcome,
                        ),
                    )
        for _release, _seq, outcome in holding:
            service.stop_session(outcome)
    result.wall_s = measure.elapsed_s
    tally.close(service.ledger.audit())
    _check_counters(result, _service_counters(service))
    return result


# -- open_arrivals ---------------------------------------------------------------------


def open_arrivals(seed: int, measure: Measure, scale: float = 1.0) -> RoundResult:
    """Poisson arrivals at a fixed wall-clock rate into one batched domain.

    The harness submits whatever is due, retires sessions whose seeded
    hold time expired, and serves the queue with ``process_batch``;
    when nothing is due or queued it sleeps until the next event.
    Latency counts from each request's due time, so generator lateness
    is included and also reported on its own.
    """
    result = RoundResult()
    rng = random.Random(seed)
    count = max(50, int(OPEN_ARRIVALS * scale))
    schedule = []
    due = 0.0
    for index in range(count):
        due += rng.expovariate(OPEN_RATE_PER_S)
        schedule.append(
            (
                due,
                f"req-{index}",
                rng.choice(AUDIO_CLIENTS),
                rng.expovariate(1.0 / OPEN_HOLD_MEAN_S),
            )
        )
    start = time.perf_counter()
    testbed = build_audio_testbed()
    service = BatchingDomainService(
        testbed.configurator,
        ladder=audio_ladder(),
        queue_capacity=64,
        skip_downloads=True,
        batch=BatchPolicy(max_batch_size=16, max_linger_s=0.0),
    )
    requests = [
        ServerRequest(
            request_id=request_id,
            composition=audio_request(testbed, client),
            deadline_s=OPEN_DEADLINE_S,
            user_id=f"user-{index % 512}",
        )
        for index, (_due, request_id, client, _hold) in enumerate(schedule)
    ]
    holds = {request_id: hold for _due, request_id, _client, hold in schedule}
    result.setup_s.append(time.perf_counter() - start)

    tally = _Tally(result, OPEN_LATENCY_LIMIT_MS)
    clock = time.perf_counter
    retire: List[tuple] = []  # (expiry, sequence, outcome)
    idle_s = 0.0
    with measure:
        origin = clock()
        position = 0
        while position < count or service.queue.depth:
            now = clock() - origin
            while retire and retire[0][0] <= now:
                service.stop_session(heapq.heappop(retire)[2])
            while position < count and schedule[position][0] <= now:
                due_at = schedule[position][0]
                request = requests[position]
                tally.submitted(request.request_id, origin + due_at)
                result.late_ms.append((clock() - origin - due_at) * 1000.0)
                tally.decided(service.submit(request), clock())
                position += 1
            if service.queue.depth:
                outcomes = service.process_batch()
                done = clock()
                for outcome in outcomes:
                    tally.decided(outcome, done)
                    if outcome.admitted:
                        heapq.heappush(
                            retire,
                            (
                                done - origin + holds[outcome.request_id],
                                len(tally.final),
                                outcome,
                            ),
                        )
                continue
            wake = schedule[position][0] if position < count else math.inf
            if retire:
                wake = min(wake, retire[0][0])
            if wake != math.inf:
                idle_s += _wait_until(origin + wake)
        for _expiry, _seq, outcome in retire:
            service.stop_session(outcome)
    result.wall_s = measure.elapsed_s
    result.idle_s = idle_s
    tally.close(service.ledger.audit())
    _check_counters(result, _service_counters(service))
    return result


def _wait_until(target: float) -> float:
    """Sleep, then spin, until ``perf_counter()`` reaches ``target``.

    A sleeping vCPU can take milliseconds to be scheduled again, which
    would show up as generator lateness; spinning through the last stretch
    keeps the wake-up on time. Returns the seconds spent waiting.
    """
    start = time.perf_counter()
    if target - start > OPEN_SPIN_S:
        time.sleep(target - start - OPEN_SPIN_S)
    while time.perf_counter() < target:
        pass
    return time.perf_counter() - start


# -- surge_replay ----------------------------------------------------------------------


def surge_replay(seed: int, measure: Measure, scale: float = 1.0) -> RoundResult:
    """A controlled four-shard sim replay through ``run_scenario``.

    The front door builds its own testbeds inside the replay, so set up
    times the document compile plus one build of each shard's testbed,
    the same construction the replay performs before its first arrival.
    A replay is long next to that, so each round sets up several times.
    """
    result = RoundResult()
    horizon_s = max(5.0, SURGE_HORIZON_S * scale)
    for _ in range(SURGE_SETUPS):
        start = time.perf_counter()
        compiled = compile_scenario(
            ScenarioSpec.from_dict(documents.surge_replay_document(seed, horizon_s))
        )
        for _ in range(compiled.spec.cluster.shards):
            compiled.build_testbed()
        arrivals = len(compiled.arrival_trace(multiplier=SURGE_MULTIPLIER))
        result.setup_s.append(time.perf_counter() - start)

    with measure:
        replay = run_scenario(
            compiled,
            driver="sim",
            multiplier=SURGE_MULTIPLIER,
            batched=True,
            controlled=True,
        )
    result.wall_s = measure.elapsed_s
    result.submitted = replay.submitted
    result.admitted = replay.admitted - replay.degraded
    result.degraded = replay.degraded
    result.failed = replay.failed
    result.shed = replay.shed
    if replay.submitted != arrivals:
        result.problems.append(
            f"replay submitted {replay.submitted} of {arrivals} arrivals"
        )
    if result.submitted != result.decided:
        result.problems.append(
            f"submitted {result.submitted} != decided {result.decided}"
        )
    latency = replay.as_dict()["metrics"]["cluster"]["latency"]["total_ms"]
    result.sim_latency_ms = {
        "p50": replay.p50_total_ms,
        "p99": replay.p99_total_ms,
        "count": float(latency.get("count", 0)),
    }
    result.digest = digest([replay.to_json()])
    return result


WORKLOADS: Dict[str, Callable[..., RoundResult]] = {
    "cluster_waves": cluster_waves,
    "profile_mesh": profile_mesh,
    "open_arrivals": open_arrivals,
    "surge_replay": surge_replay,
}

#: Workloads whose dispositions are a pure function of the seed.
DETERMINISTIC = ("cluster_waves", "profile_mesh", "surge_replay")
