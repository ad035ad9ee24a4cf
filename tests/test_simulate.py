import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import roadgame.routing as routing
import roadgame.simulate as simulate
from conftest import build_net
from oracles import classify_arrival, plan_ids, reference_metrics, reference_tour
from roadgame.attacks import AttackPlan, empty_attack_plan, select_attack_edges
from roadgame.errors import DomainError, ValidationError
from roadgame.routing import DEFENSE_STRATEGIES, RoutePlan, plan_route
from roadgame.rng import derive_seed
from roadgame.simulate import (CRITICALLY_LATE, LATE, ON_TIME, JobCard, RoundMetrics,
                               Stop, TourResult, apply_window_multiplier,
                               metrics_from_tours, reclassify_with_windows,
                               run_round_details, run_rounds, run_tour)


def manual_attack(net, edge_ids):
    return AttackPlan("random", tuple(net.edge_index[eid] for eid in edge_ids), seed=0)


class TestRunTour:
    def test_no_attack_generous_windows_all_on_time(self, planted32):
        card = JobCard("c0", "a00x00",
                       (Stop("b03x03", 0.0, 10_000.0), Stop("a01x01", 0.0, 20_000.0)))
        plan = plan_route(planted32, card, "shortest", 0)
        tour = run_tour(planted32, plan, card, empty_attack_plan(planted32))
        assert tour.statuses == (ON_TIME, ON_TIME)
        assert tour.ambush_count == 0

    def test_single_ambush_pushes_past_half_window(self):
        # 300 s leg over one attacked edge, 600 s delay; window closes
        # 400 s after departure with an 800 s window
        net = build_net([("e0", "W", "S")], times={"e0": 300.0})
        card = JobCard("c0", "W", (Stop("S", 600.0, 1400.0),), day_start_s=1000.0)
        plan = plan_route(net, card, "shortest", 0)
        tour = run_tour(net, plan, card, manual_attack(net, ["e0"]), 600.0)
        assert tour.arrivals == (1900.0,)
        assert tour.statuses == (CRITICALLY_LATE,)

    def test_lateness_at_most_half_window_is_plain_late(self):
        net = build_net([("e0", "W", "S")], times={"e0": 300.0})
        card = JobCard("c0", "W", (Stop("S", 0.0, 700.0),), day_start_s=0.0)
        plan = plan_route(net, card, "shortest", 0)
        tour = run_tour(net, plan, card, manual_attack(net, ["e0"]), 600.0)
        # arrival 900, window end 700: 200 late on a 700 window
        assert tour.statuses == (LATE,)

    def test_double_crossing_counts_two_ambushes(self):
        # figure-eight: the W-M edge is crossed out and back
        net = build_net([("e0", "W", "M"), ("e1", "M", "S")],
                        times={"e0": 100.0, "e1": 50.0})
        card = JobCard("c0", "W", (Stop("S", 0.0, 5000.0),))
        plan = plan_route(net, card, "shortest", 0)
        tour = run_tour(net, plan, card, manual_attack(net, ["e0"]), 600.0)
        assert tour.ambush_count == 2
        assert tour.tour_time_s == 300.0 + 2 * 600.0

    def test_early_arrival_waits_without_penalty(self):
        net = build_net([("e0", "W", "S")], times={"e0": 100.0})
        card = JobCard("c0", "W", (Stop("S", 500.0, 900.0),))
        plan = plan_route(net, card, "shortest", 0)
        tour = run_tour(net, plan, card, empty_attack_plan(net))
        assert tour.arrivals == (500.0,)
        assert tour.statuses == (ON_TIME,)
        assert tour.tour_time_s == 600.0  # waited, then 100 s home

    def test_route_card_mismatch_raises(self, p3):
        card_ab = JobCard("c0", "A", (Stop("B", 0.0, 100.0),))
        card_ac = JobCard("c0", "A", (Stop("C", 0.0, 100.0),))
        plan = plan_route(p3, card_ab, "shortest", 0)
        with pytest.raises(DomainError):
            run_tour(p3, plan, card_ac, empty_attack_plan(p3))

    def test_failed_walk_marks_remaining_critically_late(self, planted32, monkeypatch):
        monkeypatch.setattr(routing, "WALK_STEP_CAP_FACTOR", 0)
        card = JobCard("c0", "a00x00", (Stop("b03x03", 0.0, 1000.0),))
        plan = plan_route(planted32, card, "random_walk", seed=1)
        tour = run_tour(planted32, plan, card, empty_attack_plan(planted32))
        assert tour.statuses == (CRITICALLY_LATE,)
        assert tour.arrivals == (math.inf,)
        assert tour.tour_time_s == math.inf

    def test_accounting_identity_exact(self, planted32):
        card = JobCard("c0", "a00x00",
                       (Stop("b03x03", 0.0, 50_000.0), Stop("a03x00", 0.0, 50_000.0)))
        plan = plan_route(planted32, card, "shortest", 0)
        clean = run_tour(planted32, plan, card, empty_attack_plan(planted32))
        attack = select_attack_edges(planted32, "betweenness", 5, seed=0)
        hit = run_tour(planted32, plan, card, attack)
        assert hit.ambush_count > 0
        assert hit.tour_time_s - clean.tour_time_s == 600.0 * hit.ambush_count

    def test_plans_disjoint_from_routes_change_nothing(self, planted32):
        card = JobCard("c0", "a00x00", (Stop("a03x03", 0.0, 5000.0),))
        plan = plan_route(planted32, card, "shortest", 0)
        used = {planted32.edge_ids[e] for leg in plan.legs for e in leg}
        far = [eid for eid in planted32.edge_ids if eid not in used][:6]
        baseline = run_tour(planted32, plan, card, empty_attack_plan(planted32))
        disjoint = run_tour(planted32, plan, card, manual_attack(planted32, far))
        assert baseline == disjoint

    def test_superset_attack_never_reduces_tour_time(self, planted32):
        card = JobCard("c0", "a00x00", (Stop("b03x03", 0.0, 5000.0),))
        plan = plan_route(planted32, card, "shortest", 0)
        small = select_attack_edges(planted32, "betweenness", 3, seed=0)
        large = select_attack_edges(planted32, "betweenness", 12, seed=0)
        assert plan_ids(planted32, small) <= plan_ids(planted32, large)
        t_small = run_tour(planted32, plan, card, small)
        t_large = run_tour(planted32, plan, card, large)
        assert t_large.tour_time_s >= t_small.tour_time_s
        assert t_large.ambush_count >= t_small.ambush_count

    def test_arrivals_nondecreasing(self, planted32):
        card = JobCard("c0", "a00x00",
                       (Stop("b00x00", 0.0, 9000.0), Stop("a01x02", 0.0, 9000.0),
                        Stop("b03x03", 0.0, 9000.0)))
        plan = plan_route(planted32, card, "mixnet", 3)
        tour = run_tour(planted32, plan, card,
                        select_attack_edges(planted32, "random", 4, seed=2))
        assert list(tour.arrivals) == sorted(tour.arrivals)


class TestWindows:
    def test_multiplier_one_is_identity(self, planted32):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 3, 2, 500.0, seed=0)
        assert apply_window_multiplier(fleet, 1.0) == fleet

    def test_multiplier_arithmetic(self):
        card = JobCard("c0", "W", (Stop("S", 100.0, 200.0),))
        out = apply_window_multiplier([card], 2.5)[0]
        assert out.stops[0].window_start_s == 100.0
        assert out.stops[0].window_end_s == 350.0

    def test_window_anchor_2p2_hours_times_3p5(self):
        # a 7920 s window grown 250 percent reaches 27720 s
        card = JobCard("c0", "W", (Stop("S", 0.0, 7920.0),))
        out = apply_window_multiplier([card], 3.5)[0]
        assert out.stops[0].window_size_s == pytest.approx(27_720.0)

    def test_multiplier_below_one_rejected(self):
        card = JobCard("c0", "W", (Stop("S", 0.0, 1.0),))
        with pytest.raises(DomainError):
            apply_window_multiplier([card], 0.99)

    def test_stop_validation(self):
        with pytest.raises(ValidationError):
            Stop("S", 10.0, 10.0)
        with pytest.raises(ValidationError):
            JobCard("c0", "W", ())


class TestRunRound:
    def test_bridge_coverage_with_tight_slack_makes_everything_late(self, planted32):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 6, 2, 400.0, seed=3, warehouse="a01x00",
                           stop_prefixes=("b",))
        metrics = run_round_details(planted32, fleet, "betweenness", "shortest",
                                    2, 600.0, 0).metrics
        assert metrics.late_fraction == 1.0

    def test_mixnet_no_worse_than_shortest_with_bypass(self, bypass_city):
        from roadgame.synth import make_fleet
        fleet = make_fleet(bypass_city, 10, 2, 1400.0, seed=5, warehouse="a00x00",
                           stop_prefixes=("b", "a"))
        late_shortest = [run_round_details(bypass_city, fleet, "betweenness", "shortest",
                                           30, 600.0, s).metrics.late_fraction
                         for s in range(4)]
        late_mixnet = [run_round_details(bypass_city, fleet, "betweenness", "mixnet",
                                         30, 600.0, s).metrics.late_fraction
                       for s in range(4)]
        assert sum(late_mixnet) <= sum(late_shortest)

    def test_random_single_edge_interception_probability(self):
        net = build_net([(f"e{i:02d}", f"n{i}", f"n{i+1}") for i in range(30)])
        card = JobCard("c0", "n0", (Stop("n4", 0.0, 4.5),))  # slack < one delay
        plan = plan_route(net, card, "shortest", 0)
        leg_edges = set(plan.legs[0])
        p_hit = len(leg_edges) / net.num_edges
        trials = 1500
        late = sum(run_round_details(net, [card], "random", "shortest", 1, 600.0,
                                     seed).metrics.late_fraction
                   for seed in range(trials))
        sigma = math.sqrt(trials * p_hit * (1 - p_hit))
        assert abs(late - trials * p_hit) <= 3 * sigma

    def test_bit_reproducible(self, planted32):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 5, 3, 700.0, seed=2)
        a = run_round_details(planted32, fleet, "botgrep", "mixnet", 4, 600.0, 9)
        b = run_round_details(planted32, fleet, "botgrep", "mixnet", 4, 600.0, 9)
        assert a.metrics == b.metrics
        assert a.routes == b.routes
        assert a.attack.edges == b.attack.edges

    def test_empty_fleet_rejected(self, planted32):
        with pytest.raises(DomainError):
            run_round_details(planted32, [], "random", "shortest", 1, 600.0, 0)

    def test_reclassify_matches_full_rerun(self, planted32):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 5, 3, 300.0, seed=4)
        args = (("betweenness", "degree", "random"), "shortest", (2, 6), 600.0, 1)
        rounds = run_rounds(planted32, fleet, *args)
        for mult in (1.0, 1.75, 3.5):
            scaled = apply_window_multiplier(fleet, mult)
            direct = run_rounds(planted32, scaled, *args)
            assert reclassify_with_windows(scaled, rounds) == {
                key: details.metrics for key, details in direct.items()}
        assert reclassify_with_windows(fleet, {}) == {}


class TestMetrics:
    def test_aggregation(self):
        from roadgame.simulate import TourResult
        tours = [
            TourResult("c0", (10.0, 20.0), (ON_TIME, LATE), 1, 100.0),
            TourResult("c1", (15.0,), (CRITICALLY_LATE,), 2, 300.0),
        ]
        metrics = metrics_from_tours(tours)
        assert metrics.total_deliveries == 3
        assert metrics.late_fraction == pytest.approx(2 / 3)
        assert metrics.critical_fraction_of_late == pytest.approx(1 / 2)
        assert metrics.mean_tour_time_s == pytest.approx(200.0)
        assert metrics.total_ambushes == 3

    def test_no_late_deliveries_zero_critical_fraction(self):
        from roadgame.simulate import TourResult
        metrics = metrics_from_tours([TourResult("c0", (5.0,), (ON_TIME,), 0, 50.0)])
        assert metrics.critical_fraction_of_late == 0.0

    def test_p95_of_failed_tour_is_inf_not_nan(self, planted32, monkeypatch):
        # nine 1.0 s tours and one failed walk: np.percentile alone gives NaN
        monkeypatch.setattr(routing, "WALK_STEP_CAP_FACTOR", 0)
        card = JobCard("c9", "a00x00", (Stop("b03x03", 0.0, 1000.0),))
        plan = plan_route(planted32, card, "random_walk", seed=1)
        assert plan.failed_leg == 0
        failed = run_tour(planted32, plan, card, empty_attack_plan(planted32))
        tours = [TourResult(f"c{i}", (1.0,), (ON_TIME,), 0, 1.0) for i in range(9)]
        metrics = metrics_from_tours(tours + [failed])
        assert metrics.p95_tour_time_s == math.inf
        assert metrics.mean_tour_time_s == math.inf

    def test_mean_of_finite_times_whose_sum_overflows_is_finite(self):
        tours = [TourResult("c0", (), (), 0, 1e308), TourResult("c1", (), (), 0, 1.5e308)]
        metrics = metrics_from_tours(tours)
        assert metrics.mean_tour_time_s == 1.25e308
        assert metrics.p95_tour_time_s == pytest.approx(1.475e308)

    def test_p95_without_inf_neighbours_is_numpy_percentile(self):
        # 40 tours put the 95th percentile between the 38th and 39th values,
        # so one failed tour above them leaves it finite
        times = [float(t) for t in range(39)] + [math.inf]
        tours = [TourResult(f"c{i:02d}", (), (), 0, t) for i, t in enumerate(times)]
        p95 = metrics_from_tours(tours).p95_tour_time_s
        assert p95 == float(np.percentile(times, 95))
        assert p95 == pytest.approx(37.05)

    def test_p95_at_a_whole_index_is_that_order_statistic(self):
        # 21 couriers put the 95th percentile at index 19 exactly, where
        # np.percentile weighs the inf at index 20 by 0 and gives NaN
        for couriers, expected in ((21, 19.0), (20, math.inf)):
            times = [float(t) for t in range(couriers - 1)] + [math.inf]
            tours = [TourResult(f"c{i:02d}", (), (), 0, t) for i, t in enumerate(times)]
            assert metrics_from_tours(tours).p95_tour_time_s == expected

    def test_p95_is_numpy_percentile_wherever_that_is_a_number(self):
        # ties, 1e300 and inf among 1..40 couriers' times; where numpy gives
        # NaN the scorer gives the order statistic at a whole index, else inf
        rng = np.random.default_rng(29)
        for couriers in range(1, 41):
            times = np.array([rng.choice([0.0, 1.0, 2.5, 7.0, 1e300, math.inf], couriers)
                              for _ in range(30)]
                             + [rng.uniform(0.0, 100.0, couriers), rng.exponential(1e300, couriers)])
            scored = simulate._score(np.zeros((len(times), 0), bool),
                                     np.zeros((len(times), 0), bool), [0] * len(times), times)
            with np.errstate(invalid="ignore"):
                expected = np.percentile(times, 95, axis=1).tolist()
            position = (couriers - 1) * 0.95
            for metrics, want, row in zip(scored, expected, times.tolist()):
                if math.isnan(want):
                    want = sorted(row)[int(position)] if position.is_integer() else math.inf
                assert metrics.p95_tour_time_s.hex() == want.hex()

    def test_no_tours_score_zero(self):
        assert metrics_from_tours([]) == RoundMetrics(0.0, 0.0, 0.0, 0.0, 0, 0)

    def test_lateness_masks_follow_classify_arrival(self):
        # arrivals on each boundary: the window end, half a window past it,
        # just beyond both, and inf, also against a window that never closes
        stops = [Stop("S", 0.0, 100.0), Stop("S", 50.0, 60.0), Stop("S", 0.0, math.inf)]
        arrivals = np.array([[100.0, 60.0, 5.0], [150.0, 65.0, math.inf],
                             [150.5, 65.5, 1e308], [math.inf, math.inf, 0.0]])
        late, critical = simulate._lateness(arrivals, stops)
        statuses = [[classify_arrival(a, stop) for a, stop in zip(row, stops)]
                    for row in arrivals.tolist()]
        assert {s for row in statuses for s in row} == {ON_TIME, LATE, CRITICALLY_LATE}
        assert late.tolist() == [[s != ON_TIME for s in row] for row in statuses]
        assert critical.tolist() == [[s == CRITICALLY_LATE for s in row] for row in statuses]

    def test_scorer_rows_equal_the_1d_reference(self):
        # 40 couriers: numpy's pairwise sum takes its unrolled eight-way
        # branch, and the 95th percentile falls between order statistics
        # 37 and 38, so an inf at 38 sits beside it and one at 39 beyond it
        rng = np.random.default_rng(21)
        couriers = 40

        def spread(low, high):
            return 10.0 ** rng.uniform(low, high, couriers)

        overflows, fits = spread(306, 307.6), spread(300, 306)
        inf_beside, inf_beyond = spread(-3, 300), spread(-3, 300)
        inf_beside[rng.choice(couriers, 2, replace=False)] = math.inf
        inf_beyond[rng.integers(couriers)] = math.inf
        times = np.array([spread(-3, 300), overflows, fits, inf_beside, inf_beyond,
                          spread(-3, 3), spread(290, 300)])
        rounds = [[TourResult(f"c{i:02d}", (),
                              tuple(rng.choice([ON_TIME, LATE, CRITICALLY_LATE], 2).tolist()),
                              int(rng.integers(0, 5)), t)
                   for i, t in enumerate(row.tolist())] for row in times]
        expected = [reference_metrics(tours) for tours in rounds]
        with np.errstate(over="ignore"):
            assert np.sum(overflows) == math.inf and np.sum(fits) < math.inf
        assert math.isfinite(expected[1].mean_tour_time_s)
        assert expected[3].p95_tour_time_s == math.inf
        assert math.isfinite(expected[4].p95_tour_time_s)

        statuses = np.array([[s for tour in tours for s in tour.statuses] for tours in rounds])
        ambushes = [sum(tour.ambush_count for tour in tours) for tours in rounds]
        scored = simulate._score(statuses != ON_TIME, statuses == CRITICALLY_LATE,
                                 ambushes, times)
        assert scored == expected
        assert [metrics_from_tours(tours) for tours in rounds] == expected


# -- the tour engine against the edge-by-edge reference ------------------------


@st.composite
def tour_cases(draw):
    """A small grid with random travel times, a card, a route from one
    defense (possibly cut short or given an out-and-back detour) and a
    handful of attack plans."""
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    triples = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                triples.append((f"h{r}{c}", f"n{r}{c}", f"n{r}{c + 1}"))
            if r + 1 < rows:
                triples.append((f"v{r}{c}", f"n{r}{c}", f"n{r + 1}{c}"))
    seconds = st.floats(0.1, 1000.0, allow_nan=False, allow_infinity=False)
    net = build_net(triples, times={eid: draw(seconds) for eid, _, _ in triples})
    nodes = st.sampled_from(net.node_ids)

    day_start = draw(st.floats(-1e4, 1e5, allow_nan=False, allow_infinity=False))
    stops = []
    for _ in range(draw(st.integers(1, 4))):
        start = day_start + draw(st.floats(0.0, 5000.0))
        stops.append(Stop(draw(nodes), start, start + draw(st.floats(1.0, 5000.0))))
    # stops may repeat the warehouse or the previous stop: empty legs
    card = JobCard("c0", draw(nodes), tuple(stops), day_start)

    plan = plan_route(net, card, draw(st.sampled_from(DEFENSE_STRATEGIES)),
                      seed=draw(st.integers(0, 1000)))
    legs = list(plan.legs)
    detour = None
    if draw(st.booleans()):
        # go out and back over one edge at the start of a leg
        i = draw(st.integers(0, len(legs) - 1))
        start_node = card.warehouse if i == 0 else card.stops[i - 1].node_id
        detour = draw(st.sampled_from(sorted(eid for eid, e in net.edges.items()
                                             if start_node in (e.u, e.v))))
        legs[i] = (net.edge_index[detour],) * 2 + legs[i]
    failed_leg = draw(st.none() | st.integers(0, len(legs) - 1))
    if failed_leg is not None:
        legs = legs[:failed_leg]
    plan = RoutePlan(plan.strategy, tuple(legs), plan.seed, failed_leg)

    edge_sets = st.sets(st.sampled_from(net.edge_ids), max_size=net.num_edges)
    attacks = []
    for edges in draw(st.lists(edge_sets, min_size=1, max_size=4)):
        if detour is not None and draw(st.booleans()):
            edges = edges | {detour}
        attacks.append(manual_attack(net, sorted(edges)))
    delay = draw(st.floats(0.5, 5000.0, allow_nan=False, allow_infinity=False))
    return net, card, plan, attacks, delay


class TestRoundEngine:
    @settings(max_examples=150, deadline=None)
    @given(tour_cases())
    def test_batched_tours_equal_run_tour(self, case):
        net, card, plan, attacks, delay = case
        legs = simulate._compile_route(net, plan, card)
        arrivals, ambushes, tour_times = simulate._evaluate_tours(
            card, legs, simulate._travel_time_vector(net),
            simulate._delay_matrix(net, attacks, delay))
        reference = [reference_tour(net, plan, card, attack, delay) for attack in attacks]
        assert arrivals.tolist() == [list(tour.arrivals) for tour in reference]
        assert ambushes.tolist() == [tour.ambush_count for tour in reference]
        assert tour_times.tolist() == [tour.tour_time_s for tour in reference]
        assert [run_tour(net, plan, card, attack, delay) for attack in attacks] == reference

    @pytest.mark.parametrize("nested", [False, True])
    def test_rounds_match_reference_per_attack_and_k(self, planted32, nested):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 4, 3, 500.0, seed=6)
        attacks, ks = ("random", "betweenness", "degree"), (1, 4, 9)
        rounds = run_rounds(planted32, fleet, attacks, "mixnet", ks, 450.0, 3, nested)
        assert list(rounds) == [(a, k) for a in attacks for k in ks]
        for (attack, k), details in rounds.items():
            attack_seed = (derive_seed(3, "attack") if nested
                           else derive_seed(3, "attack", k))
            plan = select_attack_edges(planted32, attack, k, seed=attack_seed)
            assert details.attack == plan
            tours = [reference_tour(planted32, details.routes[c.courier_id], c, plan, 450.0)
                     for c in sorted(fleet, key=lambda c: c.courier_id)]
            assert details.arrivals.tolist() == [a for tour in tours for a in tour.arrivals]
            assert details.metrics == metrics_from_tours(tours)

    def test_structural_mismatch_raises_like_run_tour(self, p3):
        card_ab = JobCard("c0", "A", (Stop("B", 0.0, 100.0),))
        card_ac = JobCard("c0", "A", (Stop("C", 0.0, 100.0),))
        plan = plan_route(p3, card_ab, "shortest", 0)
        with pytest.raises(DomainError, match="leg 0 ends at 'B'"):
            simulate._compile_route(p3, plan, card_ac)
        with pytest.raises(DomainError, match="leg 0 ends at 'B'"):
            run_tour(p3, plan, card_ac, empty_attack_plan(p3))

    @pytest.mark.parametrize("bad", ["e0", "1", 2, 99, -1, -2])
    def test_legs_of_anything_but_edge_indices_fail_cleanly(self, p3, bad):
        # legs hold indices into p3.edge_ids (A-B is 0, B-C is 1); an id, an
        # index past the end or a negative one (a valid Python index) names its leg
        card = JobCard("c0", "A", (Stop("B", 0.0, 100.0),))
        plan = RoutePlan("shortest", ((0,), (bad,)), 0)
        with pytest.raises(DomainError, match="leg 1 does not continue from 'B'"):
            simulate._compile_route(p3, plan, card)
        with pytest.raises(DomainError, match="leg 1 does not continue from 'B'"):
            run_tour(p3, plan, card, empty_attack_plan(p3))

    def test_unknown_warehouse_fails_cleanly(self, p3):
        card = JobCard("c0", "Z", (Stop("Z", 0.0, 100.0),))
        plan = RoutePlan("shortest", ((), ()), 0)
        with pytest.raises(DomainError, match="warehouse 'Z' is not in the network"):
            run_tour(p3, plan, card, empty_attack_plan(p3))

    def test_attack_edge_missing_from_network_raises_domain_error(self, p3):
        # p3 has edges 0 and 1: index 2 names no edge
        card = JobCard("c0", "A", (Stop("B", 0.0, 100.0),))
        plan = plan_route(p3, card, "shortest", 0)
        attack = AttackPlan("random", (0, 2), 0)
        with pytest.raises(DomainError, match=r"indices in \[0, 2\), got \[2\]$"):
            run_tour(p3, plan, card, attack)
        with pytest.raises(DomainError, match=r"indices in \[0, 2\)"):
            simulate._delay_matrix(p3, [empty_attack_plan(p3), attack], 600.0)

    @pytest.mark.parametrize("edges, bad", [((2,), "[2]"), ((-1,), "[-1]"), ((0, 0), "[0]"),
                                            ((1, -1, 1, 5), "[1, -1, 5]"),
                                            (("e0",), "['e0']")])
    def test_attack_edges_outside_the_network_or_repeated_are_named(self, p3, edges, bad):
        # a negative index would wrap and a repeat would hide in the delay
        # row, so both are refused with the outside ones; so is an edge id
        card = JobCard("c0", "A", (Stop("B", 0.0, 100.0),))
        plan = plan_route(p3, card, "shortest", 0)
        with pytest.raises(DomainError) as refused:
            run_tour(p3, plan, card, AttackPlan("random", edges, 0))
        assert str(refused.value).endswith(f"got {bad}")

    def test_failed_walks_score_and_reclassify_like_the_reference(self, planted32, monkeypatch):
        # with no steps allowed every walk between distinct nodes fails:
        # c0 reaches its first stop (at the warehouse) and never its second,
        # c1 never leaves the warehouse, c2 fails on its first leg
        monkeypatch.setattr(routing, "WALK_STEP_CAP_FACTOR", 0)
        fleet = [
            JobCard("c2", "a00x00", (Stop("b03x03", 0.0, 5000.0),)),
            JobCard("c1", "a00x00", (Stop("a00x00", 0.0, 900.0),
                                     Stop("a00x00", 0.0, 500.0)), day_start_s=1000.0),
            JobCard("c0", "a00x00", (Stop("a00x00", 0.0, 900.0),
                                     Stop("b03x03", 0.0, 5000.0)), day_start_s=1000.0),
        ]
        cards = sorted(fleet, key=lambda c: c.courier_id)
        attacks, ks = ("random", "betweenness"), (1, 4)
        rounds = run_rounds(planted32, fleet, attacks, "random_walk", ks, 600.0, 2)
        for details in rounds.values():
            assert [details.routes[c.courier_id].failed_leg for c in cards] == [1, None, 0]
            tours = [reference_tour(planted32, details.routes[c.courier_id], c,
                                    details.attack, 600.0) for c in cards]
            assert details.metrics == metrics_from_tours(tours) == reference_metrics(tours)
            assert details.metrics.mean_tour_time_s == math.inf
        for mult in (1.0, 1.75, 3.5):
            scaled = apply_window_multiplier(fleet, mult)
            direct = run_rounds(planted32, scaled, attacks, "random_walk", ks, 600.0, 2)
            assert reclassify_with_windows(scaled, rounds) == {
                key: details.metrics for key, details in direct.items()}
        # at 3.5 only the unreached stops (c0's second, c2's) stay late
        assert {d.metrics.late_fraction for d in direct.values()} == {0.4}

    def test_rounds_score_without_per_tour_objects(self, planted32, monkeypatch):
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 4, 3, 500.0, seed=6)
        args = (planted32, fleet, ("random", "degree"), "shortest", (1, 4), 450.0, 3)
        expected = {key: details.metrics for key, details in run_rounds(*args).items()}

        def refuse(*_):
            raise AssertionError("a round was scored through per-tour objects")

        monkeypatch.setattr(simulate, "TourResult", refuse)
        rounds = run_rounds(*args)
        assert {key: details.metrics for key, details in rounds.items()} == expected
        scaled = apply_window_multiplier(fleet, 2.0)
        reclassified = reclassify_with_windows(scaled, rounds)
        assert [metrics.total_deliveries for metrics in reclassified.values()] == [12] * 4

    @pytest.mark.parametrize("defense", DEFENSE_STRATEGIES)
    def test_rounds_do_not_recheck_the_routes_they_plan(self, planted32, monkeypatch, defense):
        # plan_route's legs chain by construction; only run_tour checks a caller's plan
        from roadgame.synth import make_fleet
        fleet = make_fleet(planted32, 4, 3, 500.0, seed=6)
        args = (planted32, fleet, ("random", "degree"), defense, (1, 4), 450.0, 3)
        expected = {key: details.metrics for key, details in run_rounds(*args).items()}

        def refuse(*_):
            raise AssertionError("a round re-walked the routes it planned")

        monkeypatch.setattr(simulate, "_compile_route", refuse)
        rounds = run_rounds(*args)
        assert {key: details.metrics for key, details in rounds.items()} == expected
