"""Unit tests for the Figure 5 simulation's bookkeeping (_SystemState)."""

import pytest

from repro.experiments.figure5 import _SystemState, paper_bandwidths, paper_devices
from repro.graph.cuts import Assignment
from tests.conftest import chain_graph


@pytest.fixture
def state():
    return _SystemState(paper_devices(), paper_bandwidths())


class TestAdmitRelease:
    def test_admit_charges_devices(self, state):
        graph = chain_graph("a", "b")
        assignment = Assignment({"a": "desktop", "b": "laptop"})
        state.admit(graph, assignment)
        env = state.environment()
        assert env.device("desktop").available["memory"] == 246.0
        assert env.device("laptop").available["memory"] == 118.0

    def test_admit_charges_bandwidth(self, state):
        graph = chain_graph("a", "b", throughput=2.0)
        assignment = Assignment({"a": "desktop", "b": "laptop"})
        state.admit(graph, assignment)
        assert state.available_bandwidth("desktop", "laptop") == 48.0

    def test_release_restores_everything(self, state):
        graph = chain_graph("a", "b", throughput=2.0)
        assignment = Assignment({"a": "desktop", "b": "pda"})
        token = state.admit(graph, assignment)
        state.release(token)
        env = state.environment()
        assert env.device("desktop").available["memory"] == 256.0
        assert env.device("pda").available["memory"] == 32.0
        assert state.available_bandwidth("desktop", "pda") == 5.0

    def test_bandwidth_symmetric_accounting(self, state):
        graph = chain_graph("a", "b", throughput=2.0)
        # Both directions count against the same unordered pair.
        first = state.admit(graph, Assignment({"a": "desktop", "b": "pda"}))
        second = state.admit(graph, Assignment({"a": "pda", "b": "desktop"}))
        assert state.available_bandwidth("desktop", "pda") == pytest.approx(1.0)
        state.release(first)
        state.release(second)
        assert state.available_bandwidth("desktop", "pda") == 5.0

    def test_multiple_apps_accumulate(self, state):
        graph = chain_graph("a", "b")
        tokens = [
            state.admit(graph, Assignment({"a": "desktop", "b": "desktop"}))
            for _ in range(3)
        ]
        env = state.environment()
        assert env.device("desktop").available["memory"] == 256.0 - 3 * 20.0
        for token in tokens:
            state.release(token)
        assert state.environment().device("desktop").available["memory"] == 256.0

    def test_unknown_pair_has_no_bandwidth(self, state):
        assert state.available_bandwidth("desktop", "ghost") == 0.0

    def test_environment_snapshot_is_live(self, state):
        graph = chain_graph("a")
        before = state.environment().device("desktop").available["memory"]
        state.admit(graph, Assignment({"a": "desktop"}))
        after = state.environment().device("desktop").available["memory"]
        assert after == before - 10.0
