import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import roadgame.network as network
import roadgame.routing as routing
from conftest import build_net, connected_graphs
from oracles import reference_inverse_scores, reference_random_walk
from roadgame.analysis import centrality
from roadgame.errors import DomainError
from roadgame.network import Node, RoadNetwork, edge_disjoint_paths, shortest_path
from roadgame.rng import substream
from roadgame.routing import DEFENSE_STRATEGIES, inverse_centrality_scores, plan_route
from roadgame.simulate import JobCard, Stop, _compile_route
from roadgame.synth import make_fleet


def card(warehouse, stops, courier="c0"):
    return JobCard(courier, warehouse,
                   tuple(Stop(s, 0.0, 10_000.0) for s in stops), 0.0)


def ids(net, leg):
    """A planned leg's edge indices as edge ids."""
    return tuple(net.edge_ids[e] for e in leg)


@st.composite
def walk_cases(draw):
    """A connected network and a card whose stops may repeat (empty legs)."""
    net = draw(connected_graphs())
    nodes = st.sampled_from(net.node_ids)
    return net, card(draw(nodes), draw(st.lists(nodes, min_size=1, max_size=4)))


@pytest.fixture(scope="module")
def parallel_routes():
    # two equal-cost 2-edge routes A-X-B and A-Y-B
    return build_net([("e0", "A", "X"), ("e1", "X", "B"),
                      ("e2", "A", "Y"), ("e3", "Y", "B")])


class TestInverseScores:
    def test_cycle_symmetry_and_formula(self, c6):
        scores = inverse_centrality_scores(c6)
        values = set(round(v, 12) for v in scores.values())
        assert len(values) == 1
        # every node identical: deg 2/6, betweenness 2 (C6 interior pairs),
        # eigen 1.0 -> score = product / sum
        c_deg, c_bet, c_eig = 2 / 6, centrality(c6, "betweenness").node_scores["n0"], 1.0
        expected = (c_deg * c_bet * c_eig) / (c_deg + c_bet + c_eig)
        assert scores["e0"] == pytest.approx(expected)

    def test_zero_centrality_zeroes_the_edge(self, star5):
        # leaves have betweenness 0 -> the product vanishes on every edge
        scores = inverse_centrality_scores(star5)
        assert all(v == 0.0 for v in scores.values())

    def test_pure_function_of_topology(self, planted32):
        first = inverse_centrality_scores(planted32)
        second = inverse_centrality_scores(planted32)
        assert first == second

    @pytest.mark.parametrize("graph", ["planted32", "bypass_city", "star5",
                                       "two_cliques_bridge", "k5"])
    def test_equal_the_id_keyed_reference(self, request, graph):
        net = request.getfixturevalue(graph)
        assert list(inverse_centrality_scores(net).items()) == list(
            reference_inverse_scores(net).items())

    @settings(max_examples=40, deadline=None)
    @given(connected_graphs(5, 40))
    def test_equal_the_id_keyed_reference_on_random_graphs(self, net):
        assert list(inverse_centrality_scores(net).items()) == list(
            reference_inverse_scores(net).items())

    def test_edgeless_network_has_no_scores(self):
        # the degree centrality deg/|E| used to divide by zero here
        assert inverse_centrality_scores(RoadNetwork([Node("solo", 0.0, 0.0)], [])) == {}


class TestPlanRoute:
    def test_single_edge_every_strategy(self):
        net = build_net([("e0", "A", "B")])
        jc = card("A", ["B"])
        for strategy in DEFENSE_STRATEGIES:
            plan = plan_route(net, jc, strategy, seed=3)
            assert plan.failed_leg is None
            assert all(ids(net, leg) == ("e0",) for leg in plan.legs)

    def test_legs_chain_through_stops(self, planted32):
        jc = card("a00x00", ["b03x03", "a02x02"])
        plan = plan_route(net=planted32, card=jc, strategy="shortest", seed=0)
        assert len(plan.legs) == 3
        # raises unless each leg continues from the last and ends at its stop
        assert len(_compile_route(planted32, plan, jc)) == 3

    def test_mixnet_parallel_routes_split_evenly(self, parallel_routes):
        jc = card("A", ["B"])
        upper = 0
        trials = 10_000
        for seed in range(trials):
            plan = plan_route(parallel_routes, jc, "mixnet", seed=seed)
            if ids(parallel_routes, plan.legs[0])[0] == "e0":
                upper += 1
        sigma = math.sqrt(trials * 0.25)
        assert abs(upper - trials / 2) <= 3 * sigma

    def test_mixnet_scores_independent_across_couriers(self, parallel_routes):
        from roadgame.rng import derive_seed
        agree = 0
        trials = 1000
        jc1, jc2 = card("A", ["B"], "c1"), card("A", ["B"], "c2")
        for round_seed in range(trials):
            p1 = plan_route(parallel_routes, jc1, "mixnet",
                            seed=derive_seed(round_seed, "route", "c1"))
            p2 = plan_route(parallel_routes, jc2, "mixnet",
                            seed=derive_seed(round_seed, "route", "c2"))
            if p1.legs[0] == p2.legs[0]:
                agree += 1
        sigma = math.sqrt(trials * 0.25)
        assert abs(agree - trials / 2) <= 3 * sigma

    def test_barbell_inverse_must_cross_bridge(self, two_cliques_bridge):
        jc = card("a1", ["b2"])
        plan = plan_route(two_cliques_bridge, jc, "inverse", seed=0)
        assert "xbridge" in ids(two_cliques_bridge, plan.legs[0])

    def test_shortest_leg_never_slower_than_mixnet(self, planted32):
        jc = card("a00x00", ["b03x03"])
        times = {eid: e.travel_time_s for eid, e in planted32.edges.items()}

        def leg_time(strategy, seed):
            leg = plan_route(planted32, jc, strategy, seed).legs[0]
            return sum(times[eid] for eid in ids(planted32, leg))
        best = leg_time("shortest", 0)
        for seed in range(10):
            drawn = leg_time("mixnet", seed)
            assert best <= drawn + 1e-9

    def test_disjoint_picks_one_of_the_disjoint_paths(self, square):
        from roadgame.network import edge_disjoint_paths
        jc = card("A", ["C"])
        options = [tuple(p) for p in edge_disjoint_paths(square, "A", "C")]
        seen = set()
        for seed in range(40):
            plan = plan_route(square, jc, "disjoint", seed=seed)
            assert ids(square, plan.legs[0]) in options
            seen.add(plan.legs[0])
        assert len(seen) == 2

    def test_random_walk_reaches_target_and_is_seeded(self, planted32):
        jc = card("a00x00", ["a03x03"])
        p1 = plan_route(planted32, jc, "random_walk", seed=6)
        p2 = plan_route(planted32, jc, "random_walk", seed=6)
        assert p1.legs == p2.legs
        assert p1.failed_leg is None
        _compile_route(planted32, p1, jc)  # both legs chain and end at their stops

    def test_random_walk_cap_marks_failed(self, planted32, monkeypatch):
        monkeypatch.setattr(routing, "WALK_STEP_CAP_FACTOR", 0)
        jc = card("a00x00", ["b03x03"])
        plan = plan_route(planted32, jc, "random_walk", seed=1)
        assert plan.failed_leg == 0
        assert plan.legs == ()

    @settings(max_examples=40, deadline=None)
    @given(walk_cases(), st.sampled_from([1, routing.WALK_STEP_CAP_FACTOR]))
    def test_random_walk_equals_reference(self, case, factor):
        # a cap of one step per node makes some walks fail part-way
        net, jc = case
        with mock.patch.object(routing, "WALK_STEP_CAP_FACTOR", factor):
            for seed in range(4):
                expected = reference_random_walk(net, jc, seed)
                assert plan_route(net, jc, "random_walk", seed) == expected

    def test_unknown_stop_and_strategy(self, p3):
        with pytest.raises(DomainError):
            plan_route(p3, card("A", ["Z"]), "shortest", 0)
        with pytest.raises(DomainError):
            plan_route(p3, card("A", ["C"]), "teleport", 0)

    def test_same_seed_same_route(self, planted32):
        jc = card("a00x00", ["b02x01", "a03x00"])
        for strategy in DEFENSE_STRATEGIES:
            assert (plan_route(planted32, jc, strategy, seed=11).legs
                    == plan_route(planted32, jc, strategy, seed=11).legs)


class TestFastPathMatchesSlowPath:
    @pytest.mark.parametrize("fixture", ["planted32", "bypass_city"])
    def test_legs_equal_the_public_queries(self, request, fixture):
        net = request.getfixturevalue(fixture)
        fleet = make_fleet(net, 3, 3, 500.0, seed=4, warehouse="a00x00",
                           stop_prefixes=("b", "a"))
        fleet.append(card("a00x00", ["a00x00", "b01x01", "b01x01"], "repeats"))
        scores = inverse_centrality_scores(net)
        for jc in fleet:
            points = [jc.warehouse] + [stop.node_id for stop in jc.stops] + [jc.warehouse]
            pairs = list(zip(points, points[1:]))
            for seed in (0, 7, 1234):
                draws = substream(seed, "mixnet-scores").random(net.num_edges).tolist()
                weights = {"shortest": None, "inverse": scores,
                           "mixnet": dict(zip(net.edge_ids, draws))}
                for strategy in DEFENSE_STRATEGIES:
                    plan = plan_route(net, jc, strategy, seed)
                    legs = [ids(net, leg) for leg in plan.legs]
                    _compile_route(net, plan, jc)  # rounds score these legs unchecked
                    if strategy == "random_walk":
                        assert plan == reference_random_walk(net, jc, seed)
                    elif strategy == "disjoint":
                        assert len(legs) == len(pairs)
                        for leg, (a, b) in zip(legs, pairs):
                            options = edge_disjoint_paths(net, a, b) if a != b else [[]]
                            assert list(leg) in options
                    else:
                        assert legs == [tuple(shortest_path(net, a, b, weights[strategy])[0])
                                        for a, b in pairs]

    @pytest.mark.parametrize("fixture", ["planted32", "bypass_city"])
    def test_seed_free_legs_are_searched_once(self, request, fixture, monkeypatch):
        net = request.getfixturevalue(fixture)
        jc = card("a00x00", ["b03x03", "a02x01", "a02x01"], "once")
        calls = []

        def counted(fn):
            def count(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return count
        monkeypatch.setattr(network, "_dijkstra", counted(network._dijkstra))
        for module in (network, routing):
            monkeypatch.setattr(module, "_disjoint_paths", counted(network._disjoint_paths))
        for strategy in ("shortest", "inverse", "disjoint", "mixnet"):
            plan_route(net, jc, strategy, seed=1)
            calls.clear()
            plan_route(net, jc, strategy, seed=2)
            if strategy == "mixnet":  # fresh scores: one search per leg
                assert calls == ["_dijkstra"] * 4
            else:
                assert calls == []

    def test_shortest_legs_reuse_the_fleets_searches(self, monkeypatch):
        # make_fleet's shortest_path calls memoise the legs that shortest
        # routes walk; only the legs back to the warehouse are new searches
        from roadgame.synth import generate_city
        net = generate_city("two_cluster", size_a=16, size_b=16, bridges=2, edge_time_s=60)
        fleet = make_fleet(net, 6, 3, 500.0, seed=6)
        searches = mock.Mock(wraps=network._dijkstra)
        monkeypatch.setattr(network, "_dijkstra", searches)
        plans = [plan_route(net, jc, "shortest") for jc in fleet]
        assert searches.call_count == len({jc.stops[-1].node_id for jc in fleet})
        times = {eid: e.travel_time_s for eid, e in net.edges.items()}  # bypasses the memo
        for jc, plan in zip(fleet, plans):
            stops = [jc.warehouse] + [stop.node_id for stop in jc.stops]
            assert [ids(net, leg) for leg in plan.legs[:-1]] == [
                tuple(shortest_path(net, a, b, times)[0]) for a, b in zip(stops, stops[1:])]
