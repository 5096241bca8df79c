"""The OC algorithm's checking order: reverse topological, client first."""

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import ordered_coordination
from repro.graph.service_graph import ServiceGraph
from repro.qos.vectors import QoSVector
from tests.conftest import make_component


class RecordingPolicy(CorrectionPolicy):
    """Records the edges it is asked to correct, fixes nothing."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def correct(self, graph, predecessor, node, issues):
        self.seen.append((predecessor, node))
        return [], issues  # leave everything unresolved


def inconsistent_chain(*ids):
    """A chain where every edge violates the satisfy relation."""
    graph = ServiceGraph()
    for cid in ids:
        graph.add_component(
            make_component(
                cid,
                qos_input=QoSVector(token=f"wanted-by-{cid}"),
                qos_output=QoSVector(token=f"made-by-{cid}"),
            )
        )
    for a, b in zip(ids, ids[1:]):
        graph.connect(a, b, 1.0)
    return graph


class TestCheckingOrder:
    def test_chain_checked_from_client_backwards(self):
        graph = inconsistent_chain("server", "filter", "client")
        policy = RecordingPolicy()
        ordered_coordination(graph, policy, max_passes=1)
        assert policy.seen == [("filter", "client"), ("server", "filter")]

    def test_diamond_checked_in_reverse_topological_order(self):
        graph = ServiceGraph()
        for cid in ("src", "left", "right", "sink"):
            graph.add_component(
                make_component(
                    cid,
                    qos_input=QoSVector(token=f"in-{cid}"),
                    qos_output=QoSVector(token=f"out-{cid}"),
                )
            )
        graph.connect("src", "left", 1.0)
        graph.connect("src", "right", 1.0)
        graph.connect("left", "sink", 1.0)
        graph.connect("right", "sink", 1.0)
        policy = RecordingPolicy()
        ordered_coordination(graph, policy, max_passes=1)
        # The sink's incoming edges are examined before any edge into the
        # middle layer, which precedes nothing into src (src has no preds).
        checked_nodes = [node for _pred, node in policy.seen]
        assert checked_nodes[0] == "sink"
        assert checked_nodes[1] == "sink"
        assert set(checked_nodes[2:]) == {"left", "right"}

    def test_first_examined_nodes_are_user_facing(self):
        """The paper: 'the first examined nodes ... usually correspond to
        client services' — i.e. the graph's sinks."""
        graph = inconsistent_chain("a", "b", "c", "d")
        policy = RecordingPolicy()
        ordered_coordination(graph, policy, max_passes=1)
        first_pred, first_node = policy.seen[0]
        assert first_node in graph.sinks()
