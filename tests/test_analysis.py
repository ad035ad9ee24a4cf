from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_net, clique_edges, connected_graphs
from oracles import (brute_best_bipartition, brute_betweenness, brute_modularity,
                     exact_modularity, float_flow_partition, fraction_betweenness,
                     rescan_greedy_merge, sigma_tot_hierarchical_merge, tensor_kmeans)
from roadgame.analysis import (Partition, _betweenness_scores, _codelength_cost,
                               _CommunitySearch, _greedy_merge, _hierarchical_merge,
                               _kmeans, _link_counts, _modularity_cost,
                               agglomerative_modularity, centrality,
                               default_short_walk_len, flow_partition,
                               map_equation_codelength, mixing_partition,
                               mixing_transition_matrix, modularity,
                               partition_cutset, spectral_bisect)
from roadgame.errors import DomainError
from roadgame.network import Node, RoadNetwork
from roadgame.rng import substream
from roadgame.synth import generate_city


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
        assert _betweenness_scores(net) == fraction_betweenness(net)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.data())
    def test_betweenness_equals_fraction_reference_on_tied_grids(self, rows, cols, data):
        edges = []
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((f"h{r}{c}", f"n{r}{c}", f"n{r}{c + 1}"))
                if r + 1 < rows:
                    edges.append((f"v{r}{c}", f"n{r}{c}", f"n{r + 1}{c}"))
        times = {eid: float(data.draw(st.integers(1, 2), label=eid)) for eid, _, _ in edges}
        net = build_net(edges, times=times)
        assert _betweenness_scores(net) == fraction_betweenness(net)

    def test_betweenness_leaf_of_tree_is_zero(self):
        net = build_net([("e0", "r", "a"), ("e1", "r", "b"), ("e2", "a", "c")])
        scores = centrality(net, "betweenness")
        assert scores.node_scores["b"] == 0.0
        assert scores.node_scores["c"] == 0.0

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
            assert sorted(cut.ids) == ["xbridge"]

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


class TestMixingPartition:
    def test_kernel_rows_sum_to_one(self, planted32, star5, k6):
        for net in (planted32, star5, k6):
            kernel = mixing_transition_matrix(net)
            assert np.allclose(kernel.sum(axis=1), 1.0, atol=1e-12)
            assert (kernel >= 0).all()

    def test_separates_grid_blocks(self, planted32):
        part = mixing_partition(planted32, seed=5)
        cut = partition_cutset(planted32, part)
        assert sorted(cut.ids) == ["xbridge0", "xbridge1"]

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
            assert sorted(cut.ids) == bridges, f"seed {seed}"


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

    def test_kmeans_equals_tensor_reference_on_walk_features(self, bypass_city):
        features = np.linalg.matrix_power(mixing_transition_matrix(bypass_city),
                                          default_short_walk_len(bypass_city))
        for k in range(2, 9):
            labels = _kmeans(features, k, substream(2718, "mixing-kmeans", k))
            expected = tensor_kmeans(features, k, substream(2718, "mixing-kmeans", k))
            assert np.array_equal(labels, expected), k


class TestFlowPartition:
    def test_recovers_cliques(self, two_cliques_bridge):
        part = flow_partition(two_cliques_bridge)
        assert part.num_communities == 2
        assert sorted(partition_cutset(two_cliques_bridge, part).ids) == ["xbridge"]

    def test_k5_single_community_and_codelength(self, k5):
        part = flow_partition(k5)
        assert part.num_communities == 1
        # the merged description is genuinely shorter than any bisection
        freq = {v: k5.degree(v) / (2 * k5.num_edges) for v in k5.node_ids}
        single = map_equation_codelength(k5, freq, {v: 0 for v in k5.node_ids})
        for cut in (1, 2):
            split = {v: (0 if i < cut else 1) for i, v in enumerate(k5.node_ids)}
            assert single < map_equation_codelength(k5, freq, split)

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
        freq = {v: net.degree(v) / (2 * net.num_edges) for v in net.node_ids}
        base = map_equation_codelength(net, freq, part.assignment)
        candidates = []
        for v in net.node_ids:
            for _, w in net.adjacency[v]:
                if part.label(w) != part.label(v):
                    candidates.append({**part.assignment, v: part.label(w)})
        for e in net.edges.values():
            a, b = part.label(e.u), part.label(e.v)
            if a != b:
                candidates.append({u: (a if c == b else c) for u, c in part.assignment.items()})
        for assignment in candidates:
            assert map_equation_codelength(net, freq, assignment) >= base - 1e-9


class TestPartitionCutset:
    def test_single_community_empty(self, k4):
        part = Partition.from_assignment({v: 0 for v in k4.node_ids})
        assert len(partition_cutset(k4, part)) == 0

    def test_bridge_only(self, two_triangles_bridge):
        part = Partition.from_assignment(
            {v: (0 if v.startswith("a") else 1) for v in two_triangles_bridge.node_ids})
        assert sorted(partition_cutset(two_triangles_bridge, part).ids) == ["xbridge"]

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
            assert sorted(partition_cutset(net, part).ids) == ["xbridge"]


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
