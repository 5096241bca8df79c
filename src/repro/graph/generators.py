"""Random service-graph generation for the simulation experiments.

Section 4 evaluates the distribution heuristics on randomly generated
service graphs: Table 1 uses graphs of 10–20 components with on average 3–6
outbound edges; Figure 5 uses 5 predefined graphs of 50–100 nodes with 5–10
outbound edges. "Other parameters, including resource requirement vectors,
communication throughput on each edge and weight values, are uniformly
distributed."

Graphs are generated as DAGs by ranking the nodes and drawing edges only
from lower to higher ranks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.resources.vectors import CPU, MEMORY, ResourceVector


@dataclass(frozen=True)
class RandomGraphConfig:
    """Parameters of the random service-graph distribution.

    Ranges are inclusive ``(low, high)`` bounds sampled uniformly.
    Defaults correspond to the Table 1 workload; see
    :func:`figure5_config` for the Figure 5 workload.

    - ``node_count`` — number of components;
    - ``out_degree`` — per-node outbound edge count (capped by the number
      of higher-ranked nodes, which keeps the graph acyclic);
    - ``memory_mb`` / ``cpu_fraction`` — per-component requirement vector
      components, in benchmark-normalised units (CPU 0.05 = 5% of the
      benchmark machine);
    - ``throughput_mbps`` — per-edge communication throughput ``c(u, v)``;
    - ``code_size_kb`` / ``state_size_kb`` — sizes for the deployment cost
      model.
    """

    node_count: Tuple[int, int] = (10, 20)
    out_degree: Tuple[int, int] = (3, 6)
    memory_mb: Tuple[float, float] = (1.0, 24.0)
    cpu_fraction: Tuple[float, float] = (0.01, 0.12)
    throughput_mbps: Tuple[float, float] = (0.05, 1.5)
    code_size_kb: Tuple[float, float] = (50.0, 500.0)
    state_size_kb: Tuple[float, float] = (1.0, 64.0)
    service_type: str = "synthetic"

    def __post_init__(self) -> None:
        for name in (
            "node_count",
            "out_degree",
            "memory_mb",
            "cpu_fraction",
            "throughput_mbps",
            "code_size_kb",
            "state_size_kb",
        ):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name}: low bound {low} exceeds high bound {high}")
        if self.node_count[0] < 1:
            raise ValueError("graphs need at least one node")
        if self.out_degree[0] < 0:
            raise ValueError("out-degree cannot be negative")


def figure5_config() -> RandomGraphConfig:
    """The Figure 5 workload: 50–100 nodes, 5–10 outbound edges.

    Requirement ranges are scaled down so that a 50–100 node graph's total
    demand is of the same order as the 3-device testbed capacity — matching
    the paper's setup where most requests are satisfiable by a good
    placement but a meaningful fraction are not.
    """
    return RandomGraphConfig(
        node_count=(50, 100),
        out_degree=(5, 10),
        memory_mb=(0.1, 1.8),
        cpu_fraction=(0.002, 0.018),
        throughput_mbps=(0.004, 0.05),
    )


def random_service_graph(
    rng: random.Random,
    config: Optional[RandomGraphConfig] = None,
    name: str = "random-graph",
) -> ServiceGraph:
    """Generate one random DAG-shaped service graph.

    Nodes are ranked 0..n-1 and each node draws its outbound edges uniformly
    (without replacement) among higher-ranked nodes, so the result is a DAG
    by construction. The requested out-degree is capped by the number of
    higher-ranked nodes available, which naturally tapers the graph toward
    its sinks. Every non-root node is guaranteed at least one incoming edge
    so the graph is connected along stream paths.
    """
    if config is None:
        config = RandomGraphConfig()
    n = rng.randint(*config.node_count)
    graph = ServiceGraph(name=name)
    ids = [f"{name}/c{i}" for i in range(n)]
    for cid in ids:
        graph.add_component(
            ServiceComponent(
                component_id=cid,
                service_type=config.service_type,
                resources=ResourceVector(
                    {
                        MEMORY: rng.uniform(*config.memory_mb),
                        CPU: rng.uniform(*config.cpu_fraction),
                    }
                ),
                code_size_kb=rng.uniform(*config.code_size_kb),
                state_size_kb=rng.uniform(*config.state_size_kb),
            )
        )
    for i, cid in enumerate(ids):
        available = ids[i + 1 :]
        if not available:
            continue
        degree = min(rng.randint(*config.out_degree), len(available))
        targets = rng.sample(available, degree) if degree else []
        for target in targets:
            graph.add_edge(
                ServiceEdge(cid, target, rng.uniform(*config.throughput_mbps))
            )
    # Guarantee every non-root node is reachable: give orphans one parent.
    for i in range(1, n):
        cid = ids[i]
        if graph.in_degree(cid) == 0:
            parent = ids[rng.randrange(i)]
            if not graph.has_edge(parent, cid):
                graph.add_edge(
                    ServiceEdge(parent, cid, rng.uniform(*config.throughput_mbps))
                )
    return graph
