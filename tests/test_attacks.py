import math

import pytest
from hypothesis import given, settings

from conftest import connected_graphs
from oracles import node_walk_degree_ranking, plan_ids, reference_ranking
from roadgame.attacks import (ATTACK_STRATEGIES, empty_attack_plan,
                              select_attack_edges, strategy_edge_ranking,
                              write_attack_plan)
from roadgame.errors import DomainError
from roadgame.network import Node, RoadNetwork
from roadgame.synth import generate_city

PARTITION_STRATEGIES = ("infomap", "botgrep", "greedy_mod", "hierarchical_mod", "eigen_mod")
GRAPH_STRATEGIES = tuple(s for s in ATTACK_STRATEGIES if s != "random")


class TestSelection:
    def test_p3_betweenness_tie_breaks_lexicographically(self, p3):
        plan = select_attack_edges(p3, "betweenness", 1, seed=0)
        assert sorted(plan_ids(p3, plan)) == ["e0"]

    def test_star_degree_attack_takes_hub_edges(self, star5):
        plan = select_attack_edges(star5, "degree", 3, seed=0)
        assert plan_ids(star5, plan) <= {f"s{i}" for i in range(5)}
        assert len(plan.edges) == 3

    def test_partition_attacks_find_planted_bridges(self, planted32):
        for strategy in PARTITION_STRATEGIES:
            plan = select_attack_edges(planted32, strategy, 2, seed=0)
            assert sorted(plan_ids(planted32, plan)) == ["xbridge0", "xbridge1"], strategy

    def test_random_pairs_hit_bridges_at_binomial_rate(self, planted32):
        trials = 10_000
        hits = 0
        for seed in range(trials):
            plan = select_attack_edges(planted32, "random", 2, seed=seed)
            if {"xbridge0", "xbridge1"} <= plan_ids(planted32, plan):
                hits += 1
        p = 1 / math.comb(planted32.num_edges, 2)
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) <= 3 * sigma

    def test_exact_size_and_membership(self, planted32):
        for strategy in ATTACK_STRATEGIES:
            for k in (1, 2, 7, planted32.num_edges):
                plan = select_attack_edges(planted32, strategy, k, seed=5)
                assert len(plan.edges) == k
                assert plan_ids(planted32, plan) <= set(planted32.edge_ids)

    def test_deterministic_per_seed(self, planted32):
        for strategy in ATTACK_STRATEGIES:
            a = select_attack_edges(planted32, strategy, 5, seed=9)
            b = select_attack_edges(planted32, strategy, 5, seed=9)
            assert a.edges == b.edges

    def test_plans_nest_with_growing_budget(self, planted32):
        for strategy in ATTACK_STRATEGIES:
            previous: set[str] = set()
            for k in (1, 3, 8, 20):
                plan = select_attack_edges(planted32, strategy, k, seed=4)
                assert previous <= plan_ids(planted32, plan)
                previous = plan_ids(planted32, plan)

    def test_null_cutset_degenerates_to_betweenness_padding(self, k5, caplog):
        # a complete graph has no modularity structure: the whole budget
        # is betweenness-ranked padding
        with caplog.at_level("WARNING"):
            plan = select_attack_edges(k5, "eigen_mod", 3, seed=0)
        betw = strategy_edge_ranking(k5, "betweenness")
        assert sorted(plan_ids(k5, plan)) == sorted(betw[:3])
        assert any("cutset" in record.message for record in caplog.records)

    def test_budget_bounds(self, p3):
        with pytest.raises(DomainError):
            select_attack_edges(p3, "random", 0, seed=0)
        with pytest.raises(DomainError):
            select_attack_edges(p3, "random", 3, seed=0)
        with pytest.raises(DomainError):
            select_attack_edges(p3, "tarpit", 1, seed=0)

    def test_edgeless_network_has_no_edges_to_attack(self):
        net = RoadNetwork([Node("solo", 0.0, 0.0)], [])
        with pytest.raises(DomainError, match="^the network has no edges to attack$"):
            select_attack_edges(net, "degree", 1, seed=0)

    def test_cutset_first_then_padding(self, two_cliques_bridge):
        # budget above the natural cutset: bridge first, then the
        # highest-betweenness remaining edges
        plan = select_attack_edges(two_cliques_bridge, "greedy_mod", 3, seed=0)
        assert "xbridge" in plan_ids(two_cliques_bridge, plan)
        betw = strategy_edge_ranking(two_cliques_bridge, "betweenness")
        pad = [eid for eid in betw if eid != "xbridge"][:2]
        assert plan_ids(two_cliques_bridge, plan) == {"xbridge", *pad}

    def test_eigen_c_ranks_by_weaker_endpoint(self, star5):
        ranking = strategy_edge_ranking(star5, "eigen_c")
        assert set(ranking) == set(star5.edge_ids)
        plan = select_attack_edges(star5, "eigen_c", 2, seed=0)
        assert sorted(plan_ids(star5, plan)) == ["s0", "s1"]

    @pytest.mark.parametrize("graph", ["two_cliques_bridge", "planted64", "bypass_city", "grid16"])
    def test_degree_ranking_equals_node_walk_reference(self, request, graph):
        if graph == "grid16":
            net = generate_city("grid", rows=16, cols=16, edge_time_s=60.0)
        else:
            net = request.getfixturevalue(graph)
        assert strategy_edge_ranking(net, "degree") == node_walk_degree_ranking(net)

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(5, 40))
    def test_degree_ranking_equals_node_walk_reference_on_random_graphs(self, net):
        assert strategy_edge_ranking(net, "degree") == node_walk_degree_ranking(net)


class TestRankingsMatchTheIdKeyedReference:
    # rankings sort edge indices on index-order analyses; the reference
    # sorts edge ids on the public id-keyed centralities and cutsets
    @pytest.mark.parametrize("graph", ["planted32", "bypass_city", "star5",
                                       "two_cliques_bridge", "k5"])
    def test_fixtures(self, request, graph):
        net = request.getfixturevalue(graph)
        for strategy in GRAPH_STRATEGIES:
            assert strategy_edge_ranking(net, strategy) == list(
                reference_ranking(net, strategy)), strategy

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(5, 40))
    def test_random_graphs(self, net):
        for strategy in GRAPH_STRATEGIES:
            assert strategy_edge_ranking(net, strategy) == list(
                reference_ranking(net, strategy)), strategy


class TestPlanFormat:
    # a plan holds edge indices, the first k of its strategy's ranking in rank order
    @pytest.mark.parametrize("graph", ["grid8", "bypass_city"])
    def test_plans_are_ranking_prefixes_as_indices(self, request, graph):
        net = (generate_city("grid", rows=8, cols=8, edge_time_s=60.0) if graph == "grid8"
               else request.getfixturevalue(graph))
        for strategy in ATTACK_STRATEGIES:
            for k in (1, 30, net.num_edges):
                plan = select_attack_edges(net, strategy, k, seed=11)
                assert all(isinstance(e, int) for e in plan.edges), strategy
                assert ([net.edge_ids[e] for e in plan.edges]
                        == strategy_edge_ranking(net, strategy, seed=11)[:k]), strategy

    def test_nested_plans_are_literal_prefixes(self, planted32):
        for strategy in ATTACK_STRATEGIES:
            large = select_attack_edges(planted32, strategy, 20, seed=4)
            for k in (1, 3, 8, 20):
                small = select_attack_edges(planted32, strategy, k, seed=4)
                assert large.edges[:k] == small.edges, strategy


class TestPlanPlumbing:
    def test_empty_plan(self, p3):
        plan = empty_attack_plan(p3)
        assert plan.k == 0 and len(plan.edges) == 0
        assert plan.strategy == "none"

    def test_export_format(self, planted32, tmp_path):
        plan = select_attack_edges(planted32, "betweenness", 3, seed=0)
        path = tmp_path / "plan.csv"
        write_attack_plan(planted32, plan, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "edge_id"
        assert lines[1:] == sorted(plan_ids(planted32, plan))

    def test_topology_plans_are_round_invariant(self, planted32):
        for strategy in ATTACK_STRATEGIES:
            if strategy == "random":
                continue
            plans = {frozenset(select_attack_edges(planted32, strategy, 6, seed=s).edges)
                     for s in range(5)}
            assert len(plans) == 1, strategy
        random_plans = {frozenset(select_attack_edges(planted32, "random", 6, seed=s).edges)
                        for s in range(5)}
        assert len(random_plans) > 1

    def test_betweenness_plan_intercepts_every_cross_route(self, planted32):
        from roadgame.network import shortest_path
        plan = select_attack_edges(planted32, "betweenness", 2, seed=0)
        for src in ("a00x00", "a03x03", "a01x02"):
            for dst in ("b00x00", "b03x03", "b02x01"):
                path, _ = shortest_path(planted32, src, dst)
                assert plan_ids(planted32, plan) & set(path), (src, dst)

    def test_random_uniform_without_replacement(self, planted32):
        counts = {eid: 0 for eid in planted32.edge_ids}
        trials = 4000
        for seed in range(trials):
            plan = select_attack_edges(planted32, "random", 5, seed=seed)
            assert len(plan.edges) == 5
            for eid in plan_ids(planted32, plan):
                counts[eid] += 1
        expected = trials * 5 / planted32.num_edges
        sigma = math.sqrt(trials * (5 / planted32.num_edges)
                          * (1 - 5 / planted32.num_edges))
        for eid, count in counts.items():
            assert abs(count - expected) <= 5 * sigma, eid
