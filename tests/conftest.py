import pytest
from hypothesis import strategies as st

from roadgame.network import Edge, Node, RoadNetwork
from roadgame.synth import generate_city


def build_net(edges, times=None, require_connected=True) -> RoadNetwork:
    """Small test network from (edge_id, u, v) triples; unit travel time
    unless ``times`` gives per-edge seconds (length = time * 10 m/s)."""
    nodes = {}
    edge_objs = []
    for eid, u, v in edges:
        for name in (u, v):
            nodes.setdefault(name, Node(name, float(len(nodes)), 0.0))
        t = 1.0 if times is None else times[eid]
        edge_objs.append(Edge(eid, u, v, t * 10.0, 10.0))
    return RoadNetwork(nodes.values(), edge_objs, require_connected=require_connected)


@st.composite
def connected_graphs(draw, min_nodes=5, max_nodes=40, times=None):
    """Random connected network: a random spanning tree plus extra edges,
    with node and edge ids shuffled against the order they were drawn in;
    unit travel times unless ``times`` is a strategy for each edge's."""
    n = draw(st.integers(min_nodes, max_nodes))
    names = [f"n{i:02d}" for i in draw(st.permutations(range(n)))]
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2 * n))
    pairs |= {(min(i, j), max(i, j)) for i, j in extra if i != j}
    ids = draw(st.permutations(range(len(pairs))))
    edges = [(f"e{ids[k]:03d}", names[i], names[j]) for k, (i, j) in enumerate(sorted(pairs))]
    if times is not None:
        times = {eid: draw(times) for eid, _, _ in edges}
    return build_net(edges, times=times)


def clique_edges(prefix, names):
    out = []
    count = 0
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            out.append((f"{prefix}{count:02d}", names[i], names[j]))
            count += 1
    return out


@pytest.fixture(scope="session")
def p3():
    # A - B - C; edge ids ordered so the A-B edge sorts first
    return build_net([("e0", "A", "B"), ("e1", "B", "C")])


@pytest.fixture(scope="session")
def square():
    return build_net([("e0", "A", "B"), ("e1", "B", "C"),
                      ("e2", "C", "D"), ("e3", "D", "A")])


@pytest.fixture(scope="session")
def two_triangles_bridge():
    edges = [("t00", "a0", "a1"), ("t01", "a0", "a2"), ("t02", "a1", "a2"),
             ("t10", "b0", "b1"), ("t11", "b0", "b2"), ("t12", "b1", "b2"),
             ("xbridge", "a0", "b0")]
    return build_net(edges)


@pytest.fixture(scope="session")
def two_cliques_bridge():
    a = [f"a{i}" for i in range(5)]
    b = [f"b{i}" for i in range(5)]
    edges = clique_edges("ca", a) + clique_edges("cb", b) + [("xbridge", "a0", "b0")]
    return build_net(edges)


@pytest.fixture(scope="session")
def k4():
    return build_net(clique_edges("k", ["A", "B", "C", "D"]))


@pytest.fixture(scope="session")
def k5():
    return build_net(clique_edges("k", [f"n{i}" for i in range(5)]))


@pytest.fixture(scope="session")
def k6():
    return build_net(clique_edges("k", [f"n{i}" for i in range(6)]))


@pytest.fixture(scope="session")
def c6():
    names = [f"n{i}" for i in range(6)]
    return build_net([(f"e{i}", names[i], names[(i + 1) % 6]) for i in range(6)])


@pytest.fixture(scope="session")
def star5():
    return build_net([(f"s{i}", "hub", f"leaf{i}") for i in range(5)])


@pytest.fixture(scope="session")
def planted32():
    """Two 4x4 grid blocks joined by exactly two bridges."""
    return generate_city("two_cluster", size_a=16, size_b=16, bridges=2, edge_time_s=60)


@pytest.fixture(scope="session")
def planted64():
    """Two 32-node grid blocks joined by exactly two bridges."""
    return generate_city("two_cluster", size_a=32, size_b=32, bridges=2, edge_time_s=20.0)


@pytest.fixture(scope="session")
def bypass_city():
    """Two-cluster city with slow bypass crossings outside the bridge rows."""
    return generate_city("two_cluster", size_a=64, size_b=64, bridges=2,
                         edge_time_s=20, bypass_count=6, bypass_time_s=300)
