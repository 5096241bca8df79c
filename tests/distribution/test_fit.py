"""Unit tests for the "fit into" feasibility test (Definition 3.4)."""

import pytest

from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fit_violations,
    fits_into,
)
from repro.graph.cuts import Assignment
from repro.network.links import LinkClass
from repro.network.topology import NetworkTopology
from repro.resources.vectors import ResourceVector
from tests.conftest import chain_graph, make_component


class TestEnvironment:
    def test_needs_at_least_one_device(self):
        with pytest.raises(ValueError):
            DistributionEnvironment([])

    def test_duplicate_devices_rejected(self):
        device = CandidateDevice("d", ResourceVector(memory=1))
        with pytest.raises(ValueError):
            DistributionEnvironment([device, device])

    def test_bandwidth_table_is_symmetric(self, two_device_env):
        assert two_device_env.bandwidth("big", "small") == 10.0
        assert two_device_env.bandwidth("small", "big") == 10.0

    def test_same_device_bandwidth_unbounded(self, two_device_env):
        assert two_device_env.bandwidth("big", "big") == float("inf")

    def test_from_topology_reads_link_bandwidth(self):
        topology = NetworkTopology()
        topology.connect("d1", "d2", LinkClass.WLAN)  # 5 Mbps
        env = DistributionEnvironment.from_topology(
            [
                CandidateDevice("d1", ResourceVector(memory=12.0, cpu=1.0)),
                CandidateDevice("d2", ResourceVector(memory=12.0, cpu=1.0)),
            ],
            topology,
        )
        assert env.bandwidth("d1", "d2") == 5.0
        # Neither device holds both 10 MB components, and the 50 Mbps
        # edge overflows the link once they are split.
        graph = chain_graph("a", "b", throughput=50.0)
        split = Assignment({"a": "d1", "b": "d2"})
        assert [v.kind for v in fit_violations(graph, split, env)] == [
            "bandwidth"
        ]

    def test_missing_pair_has_zero_bandwidth(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("a", ResourceVector(memory=1)),
                CandidateDevice("b", ResourceVector(memory=1)),
            ],
            bandwidth={},
        )
        assert env.bandwidth("a", "b") == 0.0

    def test_missing_pair_uses_explicit_default(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("a", ResourceVector(memory=1)),
                CandidateDevice("b", ResourceVector(memory=1)),
                CandidateDevice("c", ResourceVector(memory=1)),
            ],
            bandwidth={("a", "b"): 10.0},
            default_bandwidth=3.0,
        )
        assert env.bandwidth("a", "b") == 10.0
        assert env.bandwidth("a", "c") == 3.0
        assert env.bandwidth("c", "b") == 3.0

    def test_missing_pair_default_can_be_unconstrained(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("a", ResourceVector(memory=1)),
                CandidateDevice("b", ResourceVector(memory=1)),
            ],
            bandwidth={},
            default_bandwidth=float("inf"),
        )
        assert env.bandwidth("a", "b") == float("inf")

    def test_negative_default_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            DistributionEnvironment(
                [CandidateDevice("a", ResourceVector(memory=1))],
                default_bandwidth=-1.0,
            )

    def test_default_bandwidth_unconstrained(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("a", ResourceVector(memory=1)),
                CandidateDevice("b", ResourceVector(memory=1)),
            ]
        )
        assert env.bandwidth("a", "b") == float("inf")

    def test_callable_bandwidth(self):
        env = DistributionEnvironment(
            [CandidateDevice("a", ResourceVector(memory=1)),
             CandidateDevice("b", ResourceVector(memory=1))],
            bandwidth=lambda i, j: 7.0,
        )
        assert env.bandwidth("a", "b") == 7.0

    def test_total_capacity(self, two_device_env):
        total = two_device_env.total_capacity()
        assert total["memory"] == 288.0
        assert total["cpu"] == 4.0


class TestFitViolations:
    def test_fitting_assignment_has_no_violations(self, two_device_env):
        graph = chain_graph("a", "b")
        assignment = Assignment({"a": "big", "b": "big"})
        assert fits_into(graph, assignment, two_device_env)

    def test_unplaced_component_reported(self, two_device_env):
        graph = chain_graph("a", "b")
        violations = fit_violations(
            graph, Assignment({"a": "big"}), two_device_env
        )
        assert violations[0].kind == "placement"

    def test_unknown_device_reported(self, two_device_env):
        graph = chain_graph("a")
        violations = fit_violations(
            graph, Assignment({"a": "ghost"}), two_device_env
        )
        assert violations[0].kind == "placement"

    def test_resource_overflow_reported_per_resource(self, two_device_env):
        graph = chain_graph("a")
        big_component = make_component("big_comp", memory=64.0, cpu=0.1)
        graph.add_component(big_component)
        assignment = Assignment({"a": "small", "big_comp": "small"})
        violations = fit_violations(graph, assignment, two_device_env)
        assert any(
            v.kind == "resource" and v.subject == "small" and v.detail == "memory"
            for v in violations
        )
        overflow = next(v for v in violations if v.kind == "resource")
        assert overflow.demand > overflow.supply

    def test_bandwidth_overflow_reported(self, two_device_env):
        graph = chain_graph("a", "b", throughput=50.0)
        assignment = Assignment({"a": "big", "b": "small"})
        violations = fit_violations(graph, assignment, two_device_env)
        assert any(v.kind == "bandwidth" for v in violations)

    def test_bandwidth_aggregates_over_cut_edges(self, two_device_env):
        # Two 6 Mbps edges in the same direction exceed the 10 Mbps pair.
        graph = chain_graph("a", "b")  # unused edge throughput
        graph.remove_edge("a", "b")
        graph.add_component(make_component("c"))
        graph.connect("a", "b", 6.0)
        graph.connect("a", "c", 6.0)
        assignment = Assignment({"a": "big", "b": "small", "c": "small"})
        violations = fit_violations(graph, assignment, two_device_env)
        assert any(v.kind == "bandwidth" for v in violations)
        # Each edge alone would fit.
        alone = Assignment({"a": "big", "b": "small", "c": "big"})
        assert fits_into(graph, alone, two_device_env)

    def test_pin_violation_reported(self, two_device_env):
        graph = chain_graph("a")
        graph.update_component(graph.component("a").with_pin("small"))
        violations = fit_violations(
            graph, Assignment({"a": "big"}), two_device_env
        )
        assert violations[0].kind == "pin"

    def test_colocated_traffic_free(self, two_device_env):
        graph = chain_graph("a", "b", throughput=1000.0)
        assignment = Assignment({"a": "big", "b": "big"})
        assert fits_into(graph, assignment, two_device_env)
