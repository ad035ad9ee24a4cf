import copy
import functools
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_net, clique_edges, connected_graphs
from oracles import (brute_best_bipartition, brute_betweenness, brute_modularity,
                     dense_eigenvector_scores, dense_mixing_kernel, dense_modularity_matrix,
                     edge_loop_mixing_kernel, eigh_eigenvector_scores, exact_modularity,
                     float_flow_partition, float_map_equation_codelength, fraction_betweenness,
                     heap_betweenness_sums, incident_edges, path_counts,
                     rescan_greedy_merge, scalar_best_deltas, scalar_pass, scalar_sweep,
                     sigma_tot_hierarchical_merge, tensor_kmeans)
import roadgame.analysis as analysis
import roadgame.network as network
from roadgame.analysis import (Partition, _betweenness_scores, _betweenness_sums,
                               _codelength_cost, _eigenvector_scores, _exact_betweenness,
                               _CommunitySearch, _greedy_merge, _hierarchical_merge,
                               _kmeans, _link_counts, _merge_betweenness,
                               _modularity_cost, _round_betweenness,
                               agglomerative_modularity, centrality,
                               default_short_walk_len, flow_partition,
                               map_equation_codelength, mixing_partition,
                               mixing_transition_matrix, modularity,
                               partition_cutset, spectral_bisect)
from roadgame.attacks import _partition_for
from roadgame.errors import ConvergenceError, DomainError
from roadgame.network import Edge, Node, RoadNetwork, _dijkstra
from roadgame.rng import substream
from roadgame.synth import generate_city


def tied_grid(rows, cols, data, choices=(1.0, 2.0)):
    """Grid whose edge times are drawn from ``choices``: many equal-cost paths."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((f"h{r}{c}", f"n{r}{c}", f"n{r}{c + 1}"))
            if r + 1 < rows:
                edges.append((f"v{r}{c}", f"n{r}{c}", f"n{r + 1}{c}"))
    times = {eid: data.draw(st.sampled_from(choices), label=eid) for eid, _, _ in edges}
    return build_net(edges, times=times)


def chunked_betweenness(net, chunks):
    """Betweenness from the fixed-point sums of each source chunk, merged."""
    return _round_betweenness(net, _merge_betweenness([_betweenness_sums(net, c) for c in chunks]))


def fraction_scores(net):
    """The fraction oracle's node and edge betweenness in index order."""
    nodes, edges = fraction_betweenness(net)
    return [nodes[v] for v in net.node_ids], [edges[e] for e in net.edge_ids]


@functools.lru_cache(maxsize=None)  # per network object: the fixtures are session-wide
def cached_fraction_scores(net):
    return fraction_scores(net)


class FixedRows:
    """A k-means seed stream whose initial centroids are the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def choice(self, n, size, replace):
        assert size == len(self.rows) and not replace
        return np.array(self.rows)


def spy_distances(monkeypatch):
    """The points of each k-means norm pass, in call order."""
    calls = []
    original = analysis._distances

    def spy(points, centroids):
        calls.append(points.copy())
        return original(points, centroids)
    monkeypatch.setattr(analysis, "_distances", spy)
    return calls


def random_connected_net(seed, n=10, p=0.35, max_weight=5):
    """Random connected graph with small integer travel times (exact floats)."""
    rng = substream(seed, "test-graph")
    names = [f"n{i}" for i in range(n)]
    while True:
        edges = []
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    weight = float(int(rng.integers(1, max_weight + 1)))
                    edges.append((f"e{count:02d}", names[i], names[j], weight))
                    count += 1
        try:
            return build_net([(e, u, v) for e, u, v, _ in edges],
                             times={e: w for e, u, v, w in edges})
        except Exception:
            continue


# the networks the fast community searches are checked on against their references
SEARCH_GRAPHS = ["two_cliques_bridge", "k5", "planted32", "planted64", "bypass_city",
                 "grid8", "grid16", "geo0", "geo1", "geo2"]


def search_graph(request, graph):
    if graph.startswith("grid"):
        size = int(graph[4:])
        return generate_city("grid", rows=size, cols=size, edge_time_s=60.0)
    if graph.startswith("geo"):
        return generate_city("geometric", seed=int(graph[3:]), n=60, radius_m=250.0)
    return request.getfixturevalue(graph)


def stationary_rates(net):
    """The uniform walk's stationary visit rate deg/2m of every node."""
    return {v: net.degree(v) / (2 * net.num_edges) for v in net.node_ids}


def community_counts(net, labels):
    """Per label: edge ends leaving it, degree sum, and edge count to each other label."""
    cut, vol, between = defaultdict(int), defaultdict(int), defaultdict(int)
    for v in net.node_ids:
        vol[labels[v]] += net.degree(v)
    for e in net.edges.values():
        a, b = labels[e.u], labels[e.v]
        if a != b:
            cut[a] += 1
            cut[b] += 1
            between[a, b] += 1
            between[b, a] += 1
    return cut, vol, between


class TestCentrality:
    def test_star_degree(self, star5):
        scores = centrality(star5, "degree")
        assert scores.node_scores["hub"] == 5.0
        assert all(scores.node_scores[f"leaf{i}"] == 1.0 for i in range(5))
        assert all(v == 1.0 for v in scores.edge_scores.values())

    def test_cycle_eigenvector_uniform(self, c6):
        scores = centrality(c6, "eigenvector")
        values = list(scores.node_scores.values())
        assert max(values) == pytest.approx(1.0)
        assert max(values) - min(values) < 1e-9

    def test_eigenvector_residual_invariant(self, planted32, star5, c6):
        for net in (planted32, star5, c6):
            scores = centrality(net, "eigenvector")
            order = net.node_ids
            v = np.array([scores.node_scores[x] for x in order])
            a = np.zeros((len(order), len(order)))
            idx = {x: i for i, x in enumerate(order)}
            for e in net.edges.values():
                a[idx[e.u], idx[e.v]] = a[idx[e.v], idx[e.u]] = 1.0
            lam = float(v @ (a @ v)) / float(v @ v)
            assert np.max(np.abs(a @ v - lam * v)) < 1e-8

    def test_betweenness_matches_brute_force_random_graphs(self):
        for seed in range(4):
            net = random_connected_net(seed)
            scores = centrality(net, "betweenness")
            nodes, edges = brute_betweenness(net)
            assert scores.node_scores == nodes
            assert scores.edge_scores == edges

    @pytest.mark.parametrize("graph", ["grid16", "planted64", "bypass_city"])
    def test_betweenness_equals_fraction_reference(self, request, graph):
        # many equal-cost paths: per-source denominators differ and grow large
        if graph == "grid16":
            net = generate_city("grid", rows=16, cols=16, edge_time_s=60.0)
        else:
            net = request.getfixturevalue(graph)
        assert _betweenness_scores(net) == fraction_scores(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_betweenness_equals_fraction_reference_on_tied_grids(self, rows, cols, data):
        net = tied_grid(rows, cols, data)
        assert _betweenness_scores(net) == _exact_betweenness(net) == fraction_scores(net)

    @pytest.mark.parametrize("chunking", ["one", "per-source", "uneven"])
    @pytest.mark.parametrize("graph", ["planted64", "bypass_city"])
    def test_chunked_betweenness_is_exact(self, request, graph, chunking):
        # chunks' fixed-point sums merge by plain addition, so every
        # chunking, down to one source per chunk, must round to the exact values
        net = request.getfixturevalue(graph)
        ids = range(net.num_nodes)
        chunks = {"one": [ids],
                  "per-source": [[s] for s in ids],
                  "uneven": [ids[-1:], ids[:3], ids[3:40:2], ids[4:40:2], ids[40:-1]]}[chunking]
        merged = chunked_betweenness(net, chunks)
        assert merged == _betweenness_scores(net)
        assert merged == cached_fraction_scores(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_chunked_betweenness_is_exact_on_tied_grids(self, rows, cols, data):
        net = tied_grid(rows, cols, data)
        labels = data.draw(st.lists(st.integers(0, 3), min_size=net.num_nodes,
                                    max_size=net.num_nodes), label="chunk of each source")
        chunks = [[s for s, label in enumerate(labels) if label == chunk]
                  for chunk in sorted(set(labels))]
        merged = chunked_betweenness(net, chunks)
        assert merged == _betweenness_scores(net) == fraction_scores(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_betweenness_is_exact_on_tied_grids_with_rounded_times(self, rows, cols, data):
        # with times of 0.1, 0.2 and 0.3 s, whether two path lengths tie
        # depends on how each float sum rounds (0.1 + 0.2 != 0.3)
        net = tied_grid(rows, cols, data, choices=(0.1, 0.2, 0.3))
        labels = data.draw(st.lists(st.integers(0, 3), min_size=net.num_nodes,
                                    max_size=net.num_nodes), label="chunk of each source")
        chunks = [[s for s, label in enumerate(labels) if label == chunk]
                  for chunk in sorted(set(labels))]
        assert _betweenness_scores(net) == _exact_betweenness(net) == fraction_scores(net)
        assert chunked_betweenness(net, chunks) == _betweenness_scores(net)

    @pytest.mark.parametrize("graph", ["grid16", "planted64", "bypass_city"])
    def test_fixed_point_sums_certify_without_fallback(self, request, monkeypatch, graph):
        net = (generate_city("grid", rows=16, cols=16, edge_time_s=60.0) if graph == "grid16"
               else request.getfixturevalue(graph))

        def refuse(net):
            raise AssertionError("a fixed-point betweenness entry failed its certificate")
        monkeypatch.setattr(analysis, "_exact_betweenness", refuse)
        sums = _betweenness_sums(net, range(net.num_nodes))
        assert _round_betweenness(net, sums) == cached_fraction_scores(net)

    @pytest.mark.parametrize("bits", [3, 12])
    def test_uncertified_sums_fall_back_to_exact_sums(self, monkeypatch, bits):
        # 3 bits leave no room below sigma_max = C(10, 5) = 252; at 12 bits
        # the floors' error bound, up to 252/4096 of a value, fails entries
        net = generate_city("grid", rows=6, cols=6, edge_time_s=60.0)
        calls = []

        def exact(net):
            calls.append(net)
            return exact_betweenness(net)
        exact_betweenness = analysis._exact_betweenness
        monkeypatch.setattr(analysis, "_FIXED_BITS", bits)
        monkeypatch.setattr(analysis, "_exact_betweenness", exact)
        ids = range(net.num_nodes)
        merged = chunked_betweenness(net, [ids[::2], ids[1::2]])
        assert calls == [net]
        assert merged == fraction_scores(net)

    def test_betweenness_leaf_of_tree_is_zero(self):
        net = build_net([("e0", "r", "a"), ("e1", "r", "b"), ("e2", "a", "c")])
        scores = centrality(net, "betweenness")
        assert scores.node_scores["b"] == 0.0
        assert scores.node_scores["c"] == 0.0

    def test_pendant_node_on_tied_grid_is_exactly_zero(self):
        # from the far corner 6 shortest paths reach n22 and the pendant p,
        # so 1/6 is floored; p is never interior, so its sum must stay 0
        edges = [(f"h{r}{c}", f"n{r}{c}", f"n{r}{c + 1}") for r in range(3) for c in range(2)]
        edges += [(f"v{r}{c}", f"n{r}{c}", f"n{r + 1}{c}") for r in range(2) for c in range(3)]
        net = build_net(edges + [("pend", "n22", "p")])
        scores = _betweenness_scores(net)
        assert scores[0][net.node_index["p"]] == 0.0
        assert scores == fraction_scores(net)

    def test_unknown_kind(self, star5):
        with pytest.raises(DomainError):
            centrality(star5, "pagerank")

    def test_power_iteration_budget_exhaustion_names_residual(self, monkeypatch):
        import roadgame.analysis as analysis
        from conftest import build_net
        from roadgame.errors import ConvergenceError
        monkeypatch.setattr(analysis, "_EIGEN_MAX_ITER", 2)
        net = build_net([("e0", "A", "B"), ("e1", "B", "C"), ("e2", "C", "D")])
        with pytest.raises(ConvergenceError, match="residual") as exc:
            centrality(net, "eigenvector")
        assert exc.value.residual is not None and exc.value.residual > 0


def block_dags(net, sources):
    """Per source of one array search: (distance row, each node's set of
    (tail, edge) DAG edges, sigma summed over the edges in their order)."""
    searched = network._block_search(net, sources)
    assert searched is not None, "the block search refused a certifiable block"
    rows, dirs, bounds = searched
    out = []
    for s, row, lo, hi in zip(sources, rows, bounds, bounds[1:]):
        tight = defaultdict(set)
        sigma = [0] * net.num_nodes
        sigma[s] = 1
        for d in dirs[lo:hi].tolist():
            e, side = divmod(d, 2)
            v, w = net.ends[e][side], net.ends[e][1 - side]
            tight[w].add((v, e))
            sigma[w] += sigma[v]  # a wrong order undercounts
        out.append((row, dict(tight), sigma))
    return out


def heap_dag(net, s):
    """The same triple from one heap search and ``path_counts``."""
    _, dist, _ = _dijkstra(net, s, net.travel)
    order, preds, sigma = path_counts(net, s)
    return np.array(dist), {w: set(preds[w]) for w in order if preds[w]}, sigma


def forced_fallbacks():
    """Networks whose every block of all sources the certificate refuses,
    with the reason."""
    tiny = build_net([("e0", "a", "b"), ("e1", "b", "c"), ("e2", "c", "d")],
                     times={"e0": 1e300, "e1": 1e-300, "e2": 1e300})
    chain = build_net([(f"e{i:02d}", f"n{i:02d}", f"n{i + 1:02d}") for i in range(20)],
                      times={f"e{i:02d}": 1e307 for i in range(20)})
    zero = generate_city("grid", rows=3, cols=4, edge_time_s=60.0)
    zero.travel = (0.0,) + zero.travel[1:]
    # across the components sigma is 0, which the exact sums' lcm must skip
    apart = build_net([("e0", "a", "b"), ("e1", "b", "c"), ("e2", "x", "y"), ("e3", "y", "z"),
                       ("e4", "x", "z")], require_connected=False)
    return {"a 1e-300 s edge beside 1e300 s ones": tiny,
            "distances past the float range": chain, "a zero time": zero,
            "a node no path reaches": apart}


class TestBlockSearch:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["geometric", "tied", "rounded"]), st.integers(2, 6),
           st.integers(2, 6), st.data())
    def test_dag_equals_the_heap_search(self, kind, rows, cols, data):
        # continuous times, ties on a lattice, and ties that hang on how
        # each float sum rounds (0.1 + 0.2 != 0.3)
        if kind == "geometric":
            net = generate_city("geometric", seed=data.draw(st.integers(0, 2**32 - 1)),
                                n=rows * cols + 6, radius_m=400.0)
        else:
            net = tied_grid(rows, cols, data,
                            (1.0, 2.0) if kind == "tied" else (0.1, 0.2, 0.3))
        sources = data.draw(st.lists(st.integers(0, net.num_nodes - 1), min_size=1,
                                     unique=True), label="block of sources")
        for s, (row, tight, sigma) in zip(sources, block_dags(net, sources)):
            dist, preds, heap_sigma = heap_dag(net, s)
            assert row.tobytes() == dist.tobytes()
            assert tight == preds
            assert sigma == heap_sigma

    @pytest.mark.parametrize("graph", ["grid16", "planted64", "bypass_city"])
    def test_sums_equal_the_heap_search(self, request, graph):
        net = (generate_city("grid", rows=16, cols=16, edge_time_s=60.0) if graph == "grid16"
               else request.getfixturevalue(graph))
        ids = range(net.num_nodes)
        assert network._block_search(net, list(ids)) is not None
        for chunk in (ids, ids[1::3]):
            assert _betweenness_sums(net, chunk) == heap_betweenness_sums(net, chunk)

    @pytest.mark.parametrize("reason", list(forced_fallbacks()))
    def test_uncertified_blocks_fall_back_to_the_heap_search(self, reason):
        net = forced_fallbacks()[reason]
        assert network._block_search(net, list(range(net.num_nodes))) is None
        assert (_betweenness_sums(net, range(net.num_nodes))
                == heap_betweenness_sums(net, range(net.num_nodes)))
        assert _exact_betweenness(net) == fraction_scores(net)

    def test_certificate_refuses_a_tight_link_that_adds_nothing(self):
        # from a, c ties b at fl(1e300 + 1e-300) == 1e300 and no window can
        # settle either; from c every window settles a node, but 1e-300 is
        # below the spacing of the largest distance
        net = forced_fallbacks()["a 1e-300 s edge beside 1e300 s ones"]
        assert network._block_search(net, [net.node_index["a"]]) is None
        assert network._block_search(net, [net.node_index["c"]]) is None

    @pytest.mark.parametrize("graph", ["grid16", "planted64", *forced_fallbacks()])
    def test_search_and_fallback_yield_one_dag_form(self, request, monkeypatch, graph):
        # per source, (dist, dirs) as float64 and int32 arrays: the heap
        # search's distances bit for bit and its DAG edges, every edge into
        # a node before every edge out; only the edges' order may differ
        net = (generate_city("grid", rows=16, cols=16, edge_time_s=60.0) if graph == "grid16"
               else request.getfixturevalue(graph) if graph == "planted64"
               else forced_fallbacks()[graph])
        *_, tail_of, head_of = network._link_arrays(net)
        sources = list(range(net.num_nodes))

        def dags():
            out = []
            for dist, dirs in network._shortest_dags(net, sources):
                assert (dist.dtype, dirs.dtype) == (np.float64, np.int32)
                last_in = {w: i for i, w in enumerate(head_of[dirs].tolist())}
                assert all(last_in.get(v, -1) < i for i, v in enumerate(tail_of[dirs].tolist()))
                out.append((dist.tobytes(), np.sort(dirs).tobytes()))
            return out

        heap = []
        for s in sources:
            _, dist, preds = _dijkstra(net, s, net.travel)
            dirs = [2 * e + (v != net.ends[e][0]) for row in preds for v, e in row]
            heap.append((np.array(dist).tobytes(), np.sort(np.array(dirs, np.int32)).tobytes()))
        assert dags() == heap
        monkeypatch.setattr(network, "_block_search", lambda net, block: None)
        assert dags() == heap

    @pytest.mark.parametrize("graph", ["planted64", "grid16"])
    def test_block_size_does_not_change_the_sums(self, request, monkeypatch, graph):
        net = (generate_city("grid", rows=16, cols=16, edge_time_s=60.0) if graph == "grid16"
               else request.getfixturevalue(graph))
        expected = heap_betweenness_sums(net, range(net.num_nodes))
        for block in (1, net.num_nodes):
            monkeypatch.setattr(network, "_BLOCK", block)
            assert _betweenness_sums(net, range(net.num_nodes)) == expected


class TestModularity:
    def test_two_disconnected_triangles(self):
        edges = [("t00", "a0", "a1"), ("t01", "a0", "a2"), ("t02", "a1", "a2"),
                 ("t10", "b0", "b1"), ("t11", "b0", "b2"), ("t12", "b1", "b2")]
        net = build_net(edges, require_connected=False)
        part = Partition.from_assignment(
            {v: (0 if v.startswith("a") else 1) for v in net.node_ids})
        assert modularity(net, part) == pytest.approx(0.5)

    def test_k3_singletons_negative_third(self):
        net = build_net(clique_edges("k", ["A", "B", "C"]))
        part = Partition.from_assignment({"A": 0, "B": 1, "C": 2})
        assert modularity(net, part) == pytest.approx(-1 / 3)
        assert modularity(net, part) == brute_modularity(net, part.assignment)

    def test_matches_brute_force_on_random_partitions(self):
        for seed in range(3):
            net = random_connected_net(seed, n=8, p=0.4)
            rng = substream(seed, "parts")
            for _ in range(5):
                labels = {v: int(rng.integers(0, 3)) for v in net.node_ids}
                part = Partition.from_assignment(labels)
                assert modularity(net, part) == brute_modularity(net, labels)

    def test_planted_best_beats_random(self, two_cliques_bridge):
        best_labels, best_q = brute_best_bipartition(two_cliques_bridge)
        rng = substream(0, "rand-part")
        labels = {v: int(rng.integers(0, 2)) for v in two_cliques_bridge.node_ids}
        labels[two_cliques_bridge.node_ids[0]] = 0
        labels[two_cliques_bridge.node_ids[-1]] = 1
        assert best_q >= brute_modularity(two_cliques_bridge, labels)


class TestSpectralBisect:
    def test_two_triangles_bridge_split(self, two_triangles_bridge):
        part = spectral_bisect(two_triangles_bridge)
        assert part.num_communities == 2
        assert part.label("a0") == part.label("a1") == part.label("a2")
        assert part.label("b0") == part.label("b1") == part.label("b2")
        assert part.label("a0") != part.label("b0")

    def test_k5_null_cutset(self, k5):
        part = spectral_bisect(k5)
        assert part.num_communities == 1
        assert len(partition_cutset(k5, part)) == 0

    def test_c4_never_beats_exhaustive_bisection(self, square):
        part = spectral_bisect(square)
        q = modularity(square, part)
        _, best_q = brute_best_bipartition(square)
        assert q >= 0.0
        assert q <= best_q + 1e-12

    def test_agrees_with_exhaustive_on_planted(self, two_cliques_bridge):
        part = spectral_bisect(two_cliques_bridge)
        best_labels, best_q = brute_best_bipartition(two_cliques_bridge)
        assert modularity(two_cliques_bridge, part) == pytest.approx(best_q)


class TestAgglomerative:
    def test_two_cliques_recovered_by_both_variants(self, two_cliques_bridge):
        best_labels, best_q = brute_best_bipartition(two_cliques_bridge)
        for variant in ("greedy", "hierarchical"):
            part = agglomerative_modularity(two_cliques_bridge, variant)
            assert part.num_communities == 2
            assert modularity(two_cliques_bridge, part) == pytest.approx(best_q)
            cut = partition_cutset(two_cliques_bridge, part)
            assert sorted(cut) == ["xbridge"]

    def test_single_edge_merges_to_one_community(self):
        net = build_net([("e0", "A", "B")])
        for variant in ("greedy", "hierarchical"):
            part = agglomerative_modularity(net, variant)
            assert part.num_communities == 1
            assert modularity(net, part) == 0.0

    def test_ring_of_cliques_hierarchical_at_least_greedy(self):
        cliques = [[f"c{k}n{i}" for i in range(5)] for k in range(4)]
        edges = []
        for k, names in enumerate(cliques):
            edges.extend(clique_edges(f"q{k}", names))
        for k in range(4):
            edges.append((f"ring{k}", cliques[k][0], cliques[(k + 1) % 4][1]))
        net = build_net(edges)
        q_greedy = modularity(net, agglomerative_modularity(net, "greedy"))
        q_hier = modularity(net, agglomerative_modularity(net, "hierarchical"))
        assert q_hier >= q_greedy - 1e-9

    def test_unknown_variant(self, k4):
        with pytest.raises(DomainError):
            agglomerative_modularity(k4, "simulated-annealing")

    @pytest.mark.parametrize("graph", ["two_cliques_bridge", "planted64", "bypass_city", "grid16"])
    def test_greedy_equals_rescan_reference(self, request, graph):
        net = search_graph(request, graph)
        assert _greedy_merge(net) == rescan_greedy_merge(net)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 40))
    def test_greedy_equals_rescan_reference_on_random_graphs(self, net):
        assert _greedy_merge(net) == rescan_greedy_merge(net)

    @pytest.mark.parametrize("graph", SEARCH_GRAPHS)
    def test_hierarchical_equals_sigma_tot_reference(self, request, graph):
        net = search_graph(request, graph)
        assert _hierarchical_merge(net) == sigma_tot_hierarchical_merge(net)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 40))
    def test_hierarchical_equals_sigma_tot_reference_on_random_graphs(self, net):
        assert _hierarchical_merge(net) == sigma_tot_hierarchical_merge(net)


class TestCommunitySearch:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 30), st.data())
    def test_modularity_total_is_4m2_times_one_minus_q(self, net, data):
        labels = {v: data.draw(st.integers(0, 4)) for v in net.node_ids}
        cut, vol, _ = community_counts(net, labels)
        m = net.num_edges
        total = _modularity_cost(2 * m).start([cut[c] for c in vol], list(vol.values()))
        assert total == 4 * m * m * (1 - exact_modularity(net, labels))

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 40), st.sampled_from(["modularity", "codelength"]))
    def test_counts_follow_moves_and_merges(self, net, kind):
        cost = (_modularity_cost if kind == "modularity" else _codelength_cost)(2 * net.num_edges)
        search = _CommunitySearch(_link_counts(net), cost)
        search.sweep()
        while search.merge_best():
            search.sweep()
        labels = dict(zip(net.node_ids, search.comm))
        cut, vol, between = community_counts(net, labels)
        for c in range(net.num_nodes):
            assert (search.cut[c], search.vol[c]) == (cut[c], vol[c])
            assert search.between[c] == {b: n for (a, b), n in between.items() if a == c}
        expected = cost.start(search.cut, search.vol)
        if kind == "modularity":
            m = net.num_edges
            assert search.total == expected == 4 * m * m * (1 - exact_modularity(net, labels))
        else:  # the running float sums drift from a fresh sum by rounding only
            assert search.total[0] == expected[0]
            assert search.total[1:] == pytest.approx(expected[1:], rel=1e-9, abs=1e-9)


# the community searches whose sweeps screen each pass on arrays
SWEEPING_SEARCHES = {"infomap": flow_partition,
                     "hierarchical_mod": functools.partial(agglomerative_modularity,
                                                           variant="hierarchical")}


def checked_screens(search_fn, net):
    """Run a community search with every pass's screen checked against
    the scalar pricing of the same state; per state checked, its largest
    link count and largest loop count."""
    first_mover = _CommunitySearch.first_mover
    states = []

    def checked(search):
        node, delta = search.priced_moves()
        best = {}
        for i, d in zip(node.tolist(), delta.tolist()):
            best[i] = min(best.get(i, d), d)
        # repr tells floats apart bit for bit, 0.0 from -0.0 too
        assert {i: repr(d) for i, d in best.items()} == {
            i: repr(d) for i, d in enumerate(scalar_best_deltas(search)) if d is not None}
        moved = scalar_pass(copy.deepcopy(search))
        first = first_mover(search)
        assert first == (moved[0] if moved else None)
        states.append((int(search.link_count.max(initial=0)),
                       max(d - e for d, e in zip(search.deg, search.ext))))
        return first

    with mock.patch.object(_CommunitySearch, "first_mover", checked):
        search_fn(net)
    return states


def grids():
    return st.builds(lambda rows, cols: generate_city("grid", rows=rows, cols=cols,
                                                      edge_time_s=60.0),
                     st.integers(2, 9), st.integers(2, 9))


class TestScreenedSweep:
    @pytest.mark.parametrize("method", SWEEPING_SEARCHES)
    @pytest.mark.parametrize("graph", ["planted64", "bypass_city", "grid8", "grid16",
                                       "geo0"])
    def test_screen_prices_every_pass_as_the_scalar_loop(self, request, graph, method):
        states = checked_screens(SWEEPING_SEARCHES[method], search_graph(request, graph))
        if method == "hierarchical_mod":  # a coarse level: counts above 1, inner edge ends
            assert any(count > 1 and loops > 0 for count, loops in states)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(connected_graphs(5, 40), grids()), st.sampled_from(list(SWEEPING_SEARCHES)))
    def test_screen_prices_every_pass_as_the_scalar_loop_on_random_graphs(self, net, method):
        checked_screens(SWEEPING_SEARCHES[method], net)

    @pytest.mark.parametrize("method", SWEEPING_SEARCHES)
    @pytest.mark.parametrize("graph", SEARCH_GRAPHS)
    def test_partition_equals_full_scalar_passes(self, request, graph, method):
        net = search_graph(request, graph)
        with mock.patch.object(_CommunitySearch, "sweep", scalar_sweep):
            expected = SWEEPING_SEARCHES[method](net)
        assert SWEEPING_SEARCHES[method](net) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(connected_graphs(5, 40), grids()), st.sampled_from(list(SWEEPING_SEARCHES)))
    def test_partition_equals_full_scalar_passes_on_random_graphs(self, net, method):
        with mock.patch.object(_CommunitySearch, "sweep", scalar_sweep):
            expected = SWEEPING_SEARCHES[method](net)
        assert SWEEPING_SEARCHES[method](net) == expected

    def test_modularity_totals_past_int64_are_refused(self):
        largest = 2 ** 30 - 1  # the most edges m with 8m^2 below 2^63
        _modularity_cost(2 * largest)
        with pytest.raises(DomainError, match="too large for exact int64"):
            _modularity_cost(2 * (largest + 1))


class TestMixingPartition:
    def test_kernel_rows_sum_to_one(self, planted32, star5, k6):
        for net in (planted32, star5, k6):
            kernel = mixing_transition_matrix(net)
            assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
            assert (kernel >= 0).all()

    def test_kernel_equals_edge_loop_reference(self, planted32, star5, k6):
        nets = [planted32, star5, k6, build_net([], require_connected=False),
                RoadNetwork([Node("solo", 0.0, 0.0)], []),
                generate_city("grid", rows=8, cols=8),
                generate_city("two_cluster", size_a=256, size_b=256, bridges=2,
                              edge_time_s=20, bypass_count=6, bypass_time_s=300)]
        nets += [generate_city("geometric", seed=seed, n=120, radius_m=160.0)
                 for seed in range(3)]
        for net in nets:
            kernel = mixing_transition_matrix(net)
            reference = edge_loop_mixing_kernel(net)
            assert kernel.shape == reference.shape
            assert (kernel == reference).all()

    def test_separates_grid_blocks(self, planted32):
        part = mixing_partition(planted32, seed=5)
        cut = partition_cutset(planted32, part)
        assert sorted(cut) == ["xbridge0", "xbridge1"]

    def test_complete_graph_has_no_good_cut(self, k6):
        from roadgame.network import conductance
        part = mixing_partition(k6, seed=5)
        if part.num_communities > 1:
            worst = max(conductance(k6, group) for group in part.communities())
            assert worst >= 0.5

    def test_deterministic_given_seed(self, planted32):
        p1 = mixing_partition(planted32, seed=9)
        p2 = mixing_partition(planted32, seed=9)
        assert p1.assignment == p2.assignment

    @pytest.mark.parametrize("graph", ["two_triangles_bridge", "planted64"])
    def test_cuts_exactly_the_bridges_for_every_seed(self, request, graph):
        # exact P^t features leave only the k-means start to the seed
        net = request.getfixturevalue(graph)
        bridges = sorted(eid for eid in net.edge_ids if eid.startswith("xbridge"))
        for seed in range(20):
            cut = partition_cutset(net, mixing_partition(net, seed=seed))
            assert sorted(cut) == bridges, f"seed {seed}"


    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["uniform", "offset", "repeated"])
    def test_kmeans_equals_tensor_reference_on_random_features(self, seed, kind):
        rng = np.random.default_rng(seed)
        if kind == "uniform":
            features = rng.random((60, 10))
        elif kind == "offset":
            # a large common offset punishes any reordering of the arithmetic
            features = 1e6 + rng.random((60, 10))
        else:
            # small integer features repeat rows, which empties clusters
            features = rng.integers(0, 3, size=(40, 4)).astype(float)
        for k in range(2, 7):
            labels = _kmeans(features, k, substream(seed, "kmeans-test", k))
            expected = tensor_kmeans(features, k, substream(seed, "kmeans-test", k))
            assert np.array_equal(labels, expected), k

    def test_kmeans_labels_equidistant_duplicates_by_norm(self, monkeypatch):
        # rows 2-7 are equidistant from the first two centroids, (0, 0) and
        # (2, 0): no estimate can label them, so their norms must
        features = np.array([[0.0, 0.0], [2.0, 0.0]] + [[1.0, 0.0]] * 3 + [[1.0, 1.0]] * 3
                            + [[5.0, 5.0], [6.0, 5.0]])
        normed = spy_distances(monkeypatch)
        labels = _kmeans(features, 3, FixedRows([0, 1, 8]))
        assert np.array_equal(labels, tensor_kmeans(features, 3, FixedRows([0, 1, 8])))
        assert np.array_equal(normed[0], features[2:8])

    def test_kmeans_reseeds_from_starting_centroids(self, monkeypatch):
        # both centroids start on the point 0, so every point ties and goes
        # to cluster 0, which empties cluster 1; cluster 0 then moves to the
        # mean, about 0.56, from where -9.9 is the farthest point, while 10 is
        # the farthest from where the iteration started
        points = [0.0] * 20 + [3.0] * 5 + [10.0, -9.9]
        features = np.array(points)[:, None]
        mean = features.mean()
        assert np.argmax(np.abs(features[:, 0])) == 25
        assert np.argmax(np.abs(features[:, 0] - mean)) == 26
        normed = spy_distances(monkeypatch)
        labels = _kmeans(features, 2, FixedRows([0, 1]))
        assert np.array_equal(labels, tensor_kmeans(features, 2, FixedRows([0, 1])))
        # the tied rows' pass, then the reseed's pass over every row
        assert [len(rows) for rows in normed[:2]] == [27, 27]
        assert labels[25] == 1

    @pytest.mark.parametrize("graph", ["grid8", "bypass_city", "random"])
    def test_walk_power_equals_matrix_power(self, request, graph):
        # P^t is built in three n x n arrays, P among them, with
        # matrix_power's products in its order; it must be its bits
        if graph == "random":
            p = np.random.default_rng(3).random((150, 150))
            p /= p.sum(axis=1, keepdims=True)
        else:
            net = (generate_city("grid", rows=8, cols=8) if graph == "grid8"
                   else request.getfixturevalue(graph))
            p = mixing_transition_matrix(net)
        for t in range(1, 17):
            expected = np.linalg.matrix_power(p, t)
            with mock.patch.object(np, "empty_like", wraps=np.empty_like) as empty_like:
                power = analysis._matrix_power(p.copy(), t)
            assert power.tobytes() == expected.tobytes(), t
            assert empty_like.call_count <= 2, t

    def test_kmeans_equals_tensor_reference_on_walk_features(self, bypass_city):
        features = np.linalg.matrix_power(mixing_transition_matrix(bypass_city),
                                          default_short_walk_len(bypass_city))
        for k in range(2, 9):
            labels = _kmeans(features, k, substream(2718, "mixing-kmeans", k))
            expected = tensor_kmeans(features, k, substream(2718, "mixing-kmeans", k))
            assert np.array_equal(labels, expected), k


def check_dense_kernels(net):
    """The walk kernel, the modularity matrix eigh reads and the
    eigenvector scores, built from the link arrays, against the dense-A
    forms they replaced, bit for bit."""
    assert mixing_transition_matrix(net).tobytes() == dense_mixing_kernel(net).tobytes()
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        part = spectral_bisect(net)
    if net.num_edges:
        assert eigh.call_args.args[0].tobytes() == dense_modularity_matrix(net).tobytes()
    else:
        assert not eigh.called and part.num_communities == 1
    try:
        scores = _eigenvector_scores(net)
    except ConvergenceError:
        scores = None
    assert scores == dense_eigenvector_scores(net)


@pytest.mark.parametrize("city", [
    dict(kind="grid", rows=8, cols=8), dict(kind="grid", rows=6, cols=9),
    dict(kind="two_cluster", size_a=16, size_b=16, bridges=2, edge_time_s=60),
    dict(kind="two_cluster", size_a=64, size_b=60, bridges=2, edge_time_s=20),
    dict(kind="geometric", seed=3, n=80, radius_m=250.0)], ids=lambda city: city["kind"])
def test_eigenvector_scores_match_an_eigh_reference(city):
    # dense_eigenvector_scores runs the same power iteration, so only an
    # independent solver can see how far its scores are from the eigenvector
    net = generate_city(**city)
    assert _eigenvector_scores(net) == pytest.approx(eigh_eigenvector_scores(net), rel=1e-6)


class TestDenseKernels:
    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(2, 30))
    def test_kernels_equal_the_dense_forms(self, net):
        check_dense_kernels(net)

    def test_kernels_equal_the_dense_forms_on_grids_and_edge_cases(self):
        ends = [("e0", "a", "b"), ("e1", "b", "c")]
        isolated = RoadNetwork([Node(v, float(i), 0.0) for i, v in enumerate("abcz")],
                               [Edge(e, u, v, 10.0, 10.0) for e, u, v in ends],
                               require_connected=False)
        nets = [generate_city("grid", rows=rows, cols=cols)
                for rows, cols in ((2, 2), (3, 5), (8, 8))]
        for net in nets + [RoadNetwork([Node("solo", 0.0, 0.0)], []), isolated]:
            check_dense_kernels(net)

    def test_the_memo_holds_no_n_by_n_array(self):
        net = generate_city("grid", rows=6, cols=6)
        for method in ("botgrep", "eigen_mod"):
            _partition_for(net, method)
        centrality(net, "eigenvector")

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, (tuple, list, dict)):
                for item in value.values() if isinstance(value, dict) else value:
                    yield from arrays(item)
        sizes = [a.size for value in net._cache.values() for a in arrays(value)]
        assert sizes and net.num_nodes ** 2 not in sizes


class TestFlowPartition:
    def test_recovers_cliques(self, two_cliques_bridge):
        part = flow_partition(two_cliques_bridge)
        assert part.num_communities == 2
        assert sorted(partition_cutset(two_cliques_bridge, part)) == ["xbridge"]

    def test_k5_single_community_and_codelength(self, k5):
        part = flow_partition(k5)
        assert part.num_communities == 1
        # the merged description is genuinely shorter than any bisection
        single = map_equation_codelength(k5, part)
        for cut in (1, 2):
            split = {v: (0 if i < cut else 1) for i, v in enumerate(k5.node_ids)}
            assert single < map_equation_codelength(k5, Partition.from_assignment(split))

    def test_deterministic(self, two_cliques_bridge):
        p1 = flow_partition(two_cliques_bridge)
        p2 = flow_partition(two_cliques_bridge)
        assert p1.assignment == p2.assignment

    def test_single_node_is_one_community(self):
        net = RoadNetwork([Node("a", 0.0, 0.0)], [])
        assert flow_partition(net).assignment == {"a": 0}

    @pytest.mark.parametrize("graph", SEARCH_GRAPHS)
    def test_equals_float_reference(self, request, graph):
        # integer cut/volume counts must pick the float search's partition
        net = search_graph(request, graph)
        assert flow_partition(net) == float_flow_partition(net)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 40))
    def test_no_node_move_or_merge_shortens_the_code(self, net):
        part = flow_partition(net)
        base = map_equation_codelength(net, part)
        candidates = []
        incident = incident_edges(net)
        for v in net.node_ids:
            for _, w in incident[v]:
                if part.label(w) != part.label(v):
                    candidates.append({**part.assignment, v: part.label(w)})
        for e in net.edges.values():
            a, b = part.label(e.u), part.label(e.v)
            if a != b:
                candidates.append({u: (a if c == b else c) for u, c in part.assignment.items()})
        for assignment in candidates:
            assert map_equation_codelength(net, Partition.from_assignment(assignment)) >= base - 1e-9

    @pytest.mark.parametrize("graph", SEARCH_GRAPHS)
    def test_codelength_equals_float_reference(self, request, graph):
        net = search_graph(request, graph)
        rng = substream(0, "codelength-parts", graph)
        partitions = [flow_partition(net), agglomerative_modularity(net, "greedy"),
                      spectral_bisect(net),
                      Partition.from_assignment({v: 0 for v in net.node_ids}),
                      Partition.from_assignment({v: i for i, v in enumerate(net.node_ids)})]
        partitions += [Partition.from_assignment({v: int(rng.integers(0, k))
                                                  for v in net.node_ids}) for k in (2, 5, 20)]
        for part in partitions:
            assert map_equation_codelength(net, part) == pytest.approx(
                float_map_equation_codelength(net, stationary_rates(net), part.assignment),
                rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(2, 30), st.data())
    def test_codelength_equals_float_reference_on_random_partitions(self, net, data):
        labels = {v: data.draw(st.integers(0, 4)) for v in net.node_ids}
        assert map_equation_codelength(net, Partition.from_assignment(labels)) == pytest.approx(
            float_map_equation_codelength(net, stationary_rates(net), labels), rel=1e-12)

    def test_codelength_of_a_network_without_edges_is_a_domain_error(self):
        net = RoadNetwork([Node("a", 0.0, 0.0)], [])
        with pytest.raises(DomainError, match="at least one edge"):
            map_equation_codelength(net, Partition.from_assignment({"a": 0}))


class TestPartitionCutset:
    def test_single_community_empty(self, k4):
        part = Partition.from_assignment({v: 0 for v in k4.node_ids})
        assert len(partition_cutset(k4, part)) == 0

    def test_bridge_only(self, two_triangles_bridge):
        part = Partition.from_assignment(
            {v: (0 if v.startswith("a") else 1) for v in two_triangles_bridge.node_ids})
        assert sorted(partition_cutset(two_triangles_bridge, part)) == ["xbridge"]

    def test_k4_even_split(self, k4):
        part = Partition.from_assignment({"A": 0, "B": 0, "C": 1, "D": 1})
        assert len(partition_cutset(k4, part)) == 4

    def test_size_complements_intra_edges(self, planted32):
        part = agglomerative_modularity(planted32, "hierarchical")
        cut = partition_cutset(planted32, part)
        intra = sum(1 for e in planted32.edges.values()
                    if part.label(e.u) == part.label(e.v))
        assert len(cut) == planted32.num_edges - intra


class TestCrossDetectorAgreement:
    def test_all_detectors_find_the_bridge(self, two_cliques_bridge):
        net = two_cliques_bridge
        partitions = [
            spectral_bisect(net),
            agglomerative_modularity(net, "greedy"),
            agglomerative_modularity(net, "hierarchical"),
            mixing_partition(net, seed=1),
            flow_partition(net),
        ]
        for part in partitions:
            assert sorted(partition_cutset(net, part)) == ["xbridge"]


class TestPartitionType:
    def test_labels_canonical_and_contiguous(self):
        part = Partition.from_assignment({"b": 7, "a": 3, "c": 7})
        assert part.label("a") == 0 and part.label("b") == 1 and part.label("c") == 1
        assert part.num_communities == 2
        assert part.communities() == [("a",), ("b", "c")]

    def test_partition_must_cover_network(self, k4):
        part = Partition.from_assignment({"A": 0, "B": 0})
        with pytest.raises(DomainError):
            modularity(k4, part)
