"""Shared benchmark utilities.

Every experiment benchmark writes its regenerated table/series to
``results/<name>.txt`` (repo root) in addition to asserting the paper's
qualitative shape, so a plain ``pytest benchmarks/ --benchmark-only`` run
leaves the reproduced evaluation artifacts on disk.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# sha256 of the canonical serialization of the seed-7, 200-node bench graph.
# Pinning the exact bytes means benchmark numbers compared across commits
# (the CI trend artifacts) measure code changes, not RNG drift.
_BENCH_GRAPH_FINGERPRINT = (
    "8e343c42330ac36480b62759db45c75f09cdac3870aadd166f5677afc4e0fd2c"
)


def _canonical_graph(graph) -> dict:
    """The graph as the sort-keyed dict the fingerprint was taken over.

    The bench graph carries no QoS, so each QoS vector encodes as ``{}``;
    a graph that does is refused rather than encoded some new way.
    """
    components = []
    for c in graph:
        assert not (len(c.qos_input) or len(c.qos_output)
                    or len(c.output_capabilities)), "bench graph has QoS"
        components.append({
            "component_id": c.component_id,
            "service_type": c.service_type,
            "qos_input": {},
            "qos_output": {},
            "resources": dict(c.resources),
            "adjustable_outputs": sorted(c.adjustable_outputs),
            "output_capabilities": {},
            "passthrough": sorted(c.passthrough),
            "pinned_to": c.pinned_to,
            "optional": c.optional,
            "code_size_kb": c.code_size_kb,
            "state_size_kb": c.state_size_kb,
            "attributes": [list(pair) for pair in c.attributes],
        })
    edges = [
        {"source": e.source, "target": e.target,
         "throughput_mbps": e.throughput_mbps}
        for e in graph.edges()
    ]
    return {"version": 1, "name": graph.name, "components": components,
            "edges": edges}


def _bench_graph_digest() -> str:
    from repro.graph.generators import RandomGraphConfig, random_service_graph

    config = RandomGraphConfig(
        node_count=(200, 200),
        out_degree=(3, 6),
        memory_mb=(0.1, 1.0),
        cpu_fraction=(0.001, 0.01),
    )
    graph = random_service_graph(random.Random(7), config)
    payload = json.dumps(_canonical_graph(graph), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture(scope="session", autouse=True)
def seed_determinism_guard():
    """Fail loudly when fixed-seed graph generation drifts.

    Regenerates the benchmark workload twice (catching nondeterministic
    generation, e.g. iteration over unordered sets) and checks the pinned
    fingerprint (catching drift across commits or interpreter versions).
    """
    first = _bench_graph_digest()
    second = _bench_graph_digest()
    assert first == second, "graph generation is nondeterministic for a fixed seed"
    assert first == _BENCH_GRAPH_FINGERPRINT, (
        "fixed-seed benchmark graph changed; benchmark comparisons against "
        "earlier runs are invalid. If the generator change is intentional, "
        "update _BENCH_GRAPH_FINGERPRINT."
    )
    yield


def write_result(name: str, content: str) -> pathlib.Path:
    """Persist one regenerated table/figure; returns the path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(content + "\n")
    return path
