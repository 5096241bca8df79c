"""Benchmarks of the batched admission serving core.

Engineering benches backing the batching claims: draining a full wave
through ``process_batch`` (one snapshot + grouped ledger rounds per
batch) beats the per-request path, and ``load_score`` probes between
state changes are O(1). The standing trajectory harness lives in
``python -m repro bench`` (writes ``BENCH_serving.json``); these benches
give per-commit pytest-benchmark timings for the same hot paths.
"""

from __future__ import annotations

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.batching import BatchingDomainService, BatchPolicy
from repro.server.service import DomainConfigurationService, ServerRequest


def _submit_wave(service, testbed, count, clients=("desktop1", "desktop2")):
    for index in range(count):
        service.submit(
            ServerRequest(
                request_id=f"r{index}",
                composition=audio_request(
                    testbed, clients[index % len(clients)]
                ),
                user_id=f"user-{index % 7}",
            )
        )


def _stop_all(service, outcomes):
    for outcome in outcomes:
        service.stop_session(outcome)


def test_bench_unbatched_wave(benchmark):
    def serve_wave():
        testbed = build_audio_testbed()
        service = DomainConfigurationService(
            testbed.configurator, queue_capacity=64, skip_downloads=True
        )
        _submit_wave(service, testbed, 8)
        outcomes = service.drain()
        _stop_all(service, outcomes)
        return outcomes

    outcomes = benchmark(serve_wave)
    assert len(outcomes) == 8


def test_bench_batched_wave(benchmark):
    def serve_wave():
        testbed = build_audio_testbed()
        service = BatchingDomainService(
            testbed.configurator,
            queue_capacity=64,
            skip_downloads=True,
            batch=BatchPolicy(max_batch_size=8, max_linger_s=0.0),
        )
        _submit_wave(service, testbed, 8)
        outcomes = []
        while True:
            batch = service.process_batch()
            if not batch:
                break
            outcomes.extend(batch)
        _stop_all(service, outcomes)
        return outcomes

    outcomes = benchmark(serve_wave)
    assert len(outcomes) == 8


@pytest.mark.parametrize("batched", [False, True], ids=["single", "grouped"])
def test_bench_admission_rounds(benchmark, batched):
    """Isolate the admit path: sessions pre-submitted, drain timed."""
    testbed = build_audio_testbed()
    if batched:
        service = BatchingDomainService(
            testbed.configurator,
            queue_capacity=64,
            skip_downloads=True,
            batch=BatchPolicy(max_batch_size=8, max_linger_s=0.0),
        )
    else:
        service = DomainConfigurationService(
            testbed.configurator, queue_capacity=64, skip_downloads=True
        )

    def round_trip():
        _submit_wave(service, testbed, 6)
        if batched:
            outcomes = []
            while True:
                batch = service.process_batch()
                if not batch:
                    break
                outcomes.extend(batch)
        else:
            outcomes = service.drain()
        _stop_all(service, outcomes)
        return outcomes

    outcomes = benchmark(round_trip)
    assert len(outcomes) == 6


def test_bench_load_score_probe(benchmark):
    """The memoized routing probe: two tuple compares, not a domain walk."""
    testbed = build_audio_testbed()
    service = BatchingDomainService(
        testbed.configurator, queue_capacity=64, skip_downloads=True
    )
    _submit_wave(service, testbed, 4)
    service.load_score()  # warm the cache

    def probe():
        total = 0.0
        for _ in range(1000):
            total += service.load_score()
        return total

    total = benchmark(probe)
    assert total >= 0.0
