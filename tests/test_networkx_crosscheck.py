"""Cross-checks against networkx on graphs too large for the brute-force oracles.

networkx is a test-only dependency; the module is skipped without it.
"""

import pytest

from roadgame.analysis import agglomerative_modularity, centrality, modularity
from roadgame.network import conductance, edge_disjoint_paths
from roadgame.synth import generate_city

nx = pytest.importorskip("networkx")

NETWORKS = {
    "grid8": lambda: generate_city("grid", rows=8, cols=8, edge_time_s=60.0),
    "geo60": lambda: generate_city("geometric", seed=3, n=60, radius_m=250.0, side_m=1000.0),
    "planted32": lambda: generate_city("two_cluster", size_a=16, size_b=16, bridges=2,
                                       edge_time_s=60.0),
}


@pytest.fixture(scope="module", params=sorted(NETWORKS))
def net(request):
    return NETWORKS[request.param]()


@pytest.fixture(scope="module")
def graph(net):
    graph = nx.Graph()
    graph.add_nodes_from(net.node_ids)
    for eid in net.edge_ids:
        e = net.edges[eid]
        graph.add_edge(e.u, e.v, eid=eid, time=e.travel_time_s)
    return graph


def test_betweenness_matches_networkx(net, graph):
    scores = centrality(net, "betweenness")
    nodes = nx.betweenness_centrality(graph, normalized=False, weight="time")
    edges = nx.edge_betweenness_centrality(graph, normalized=False, weight="time")
    assert scores.node_scores == pytest.approx(nodes, rel=1e-9, abs=1e-9)
    by_id = {graph.edges[u, v]["eid"]: value for (u, v), value in edges.items()}
    assert scores.edge_scores == pytest.approx(by_id, rel=1e-9, abs=1e-9)


def test_greedy_modularity_matches_networkx(net, graph):
    part = agglomerative_modularity(net, "greedy")
    communities = [set(group) for group in part.communities()]
    assert modularity(net, part) == pytest.approx(
        nx.community.modularity(graph, communities), rel=1e-9, abs=1e-12)


def test_edge_disjoint_paths_match_edge_connectivity(net, graph):
    nodes = net.node_ids
    pairs = [(nodes[0], nodes[-1]), (nodes[1], nodes[len(nodes) // 2]),
             (nodes[len(nodes) // 3], nodes[-2])]
    for src, dst in pairs:
        assert len(edge_disjoint_paths(net, src, dst)) == nx.edge_connectivity(graph, src, dst)


def test_conductance_matches_networkx(net, graph):
    part = agglomerative_modularity(net, "greedy")
    sides = [set(group) for group in part.communities()]
    sides.append(set(net.node_ids[: len(net.node_ids) // 3]))
    for side in sides:
        if len(side) < net.num_nodes:
            assert conductance(net, side) == pytest.approx(
                nx.conductance(graph, side), rel=1e-12)
