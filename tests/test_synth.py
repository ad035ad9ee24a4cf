import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import IDS
from roadgame.errors import DomainError, ParseError, ValidationError
from roadgame.network import _block_search, _dijkstra, edge_disjoint_paths, shortest_path
from roadgame.simulate import JobCard, Stop
from roadgame.synth import (TraceTolerance, central_node, generate_city,
                            make_fleet, parse_jobcards, synthesize_traces,
                            write_jobcards, write_leg_audit)


class TestJobcardFiles:
    def test_roundtrip(self, tmp_path):
        fleet = [
            JobCard("c1", "W", (Stop("A", 100.0, 400.0), Stop("B", 200.0, 900.0)), 50.0),
            JobCard("c0", "W", (Stop("B", 0.0, 7920.0),)),
        ]
        path = tmp_path / "cards.csv"
        write_jobcards(fleet, path)
        cards = parse_jobcards(path)
        assert [c.courier_id for c in cards] == ["c0", "c1"]
        assert cards[1].stops == fleet[0].stops
        assert cards[1].day_start_s == 50.0

    def test_epoch_windows_read_back_exactly(self, tmp_path):
        # nine digits wrote the first window as [1546301000, 1546301000],
        # which the reader refused as empty, and moved both ends of the second
        fleet = [JobCard("a,1", 'w"0', (Stop("s 1", 1546301000.25, 1546301000.75),
                                        Stop("s 2", 1546301000.25, 1546304600.5)),
                         1546300000.125)]
        write_jobcards(fleet, tmp_path / "cards.csv")
        assert parse_jobcards(tmp_path / "cards.csv") == fleet

    @settings(max_examples=50, deadline=None)
    @given(couriers=st.lists(IDS, min_size=1, max_size=4, unique=True), data=st.data())
    def test_write_then_parse_gives_back_every_card(self, couriers, data):
        epoch = st.floats(1.5e9, 1.7e9)
        fleet = []
        for courier in couriers:
            stops = []
            for node in data.draw(st.lists(IDS, min_size=1, max_size=3)):
                start = data.draw(epoch)
                stops.append(Stop(node, start, start + data.draw(st.floats(1e-3, 5e3))))
            fleet.append(JobCard(courier, data.draw(IDS), tuple(stops),
                                 data.draw(st.just(0.0) | epoch)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cards.csv"
            write_jobcards(fleet, path)
            assert b"\r" not in path.read_bytes()
            cards = parse_jobcards(path)
        assert cards == sorted(fleet, key=lambda card: card.courier_id)

    def test_out_of_order_rows_sorted_by_seq(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text(
            "courier_id,seq,node_id,window_start_s,window_end_s\n"
            "c0,2,B,50,60\n"
            "c0,0,W,,\n"
            "c0,1,A,10,20\n")
        card = parse_jobcards(path)[0]
        assert [s.node_id for s in card.stops] == ["A", "B"]

    def test_window_order_enforced(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text(
            "courier_id,seq,node_id,window_start_s,window_end_s\n"
            "c0,0,W,,\n"
            "c0,1,A,30,20\n")
        with pytest.raises(ValidationError, match="window"):
            parse_jobcards(path)

    def test_missing_stops_rejected(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text(
            "courier_id,seq,node_id,window_start_s,window_end_s\n"
            "c0,0,W,,\n")
        with pytest.raises(ValidationError, match="stops"):
            parse_jobcards(path)

    @pytest.mark.parametrize("rows, message", [
        ("c0,0,W,,\nc0,1,A,30,20\n", "cards.csv:3: courier 'c0' seq 1: window start 30 >= end 20"),
        ("c0,1,A,0,10\n", "cards.csv:2: courier 'c0': missing warehouse row (seq 0)"),
        ("c0,0,W,,\nc0,1,A,0,10\nc0,1,B,0,10\n", "cards.csv:4: courier 'c0': duplicate seq 1"),
        ("c1,1,A,0,10\nc0,0,W,,\n", "cards.csv:3: courier 'c0': no delivery stops"),
        ('"c\r0",0,W,,\n', "cards.csv:2: courier id 'c\\r0' holds a line break"),
    ], ids=["window", "no-warehouse", "duplicate-seq", "no-stops", "line-break"])
    def test_errors_name_the_file_and_line(self, tmp_path, rows, message):
        path = tmp_path / "cards.csv"
        path.write_text("courier_id,seq,node_id,window_start_s,window_end_s\n" + rows)
        with pytest.raises(ValidationError) as caught:
            parse_jobcards(path)
        assert str(caught.value) == f"{tmp_path / message}"

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_bytes(b"courier_id,seq,node_id,window_start_s,window_end_s\n"
                         b"c0,0,W,,\nc0,1,caf\xe9,0,100\n")
        with pytest.raises(ParseError, match=r"cards\.csv:3: not UTF-8 text \(byte 0xe9\)"):
            parse_jobcards(path)

    def test_bad_day_start_is_parse_error(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text(
            "courier_id,seq,node_id,window_start_s,window_end_s\n"
            "c0,1,A,0,100\n"
            "c0,0,W,soon,\n")
        with pytest.raises(ParseError, match=r"cards\.csv:3: invalid day start 'soon'"):
            parse_jobcards(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "cards.csv"
        path.write_text("courier,stop\n")
        with pytest.raises(ParseError):
            parse_jobcards(path)


class TestSynthesizeTraces:
    def test_same_network_within_tolerance(self):
        net = generate_city("grid", rows=5, cols=5, edge_time_s=60)
        base = make_fleet(net, 4, 3, 600.0, seed=1)
        cards, audits = synthesize_traces(base, net, net, TraceTolerance(0.10), seed=2)
        assert len(cards) == 4
        for audit in audits:
            assert abs(audit.synth_leg_s - audit.base_leg_s) <= \
                audit.tolerance_used * audit.base_leg_s + 1e-9
            assert audit.tolerance_used == 0.10

    def test_leg_time_bounds_explicit(self):
        # a 480 s base leg at 10 percent tolerance lands in [432, 528]
        net = generate_city("grid", rows=6, cols=6, edge_time_s=60)
        base = [JobCard("c0", "n00x00", (Stop("n04x03", 0.0, 1000.0),))]
        _, base_time = shortest_path(net, "n00x00", "n04x03")
        assert base_time == 420.0  # 7 hops
        cards, audits = synthesize_traces(base, net, net, TraceTolerance(0.10), seed=5)
        for audit in audits:
            assert 0.9 * audit.base_leg_s <= audit.synth_leg_s <= 1.1 * audit.base_leg_s

    def test_window_sizes_copied_exactly(self):
        net = generate_city("grid", rows=5, cols=5, edge_time_s=60)
        base = [JobCard("c0", "n00x00",
                        (Stop("n02x02", 1000.0, 8920.0), Stop("n04x04", 2000.0, 5000.0)))]
        cards, _ = synthesize_traces(base, net, net, seed=3)
        assert cards[0].stops[0].window_size_s == pytest.approx(7920.0)
        assert cards[0].stops[0].window_start_s == 1000.0
        assert cards[0].stops[1].window_size_s == pytest.approx(3000.0)

    def test_deterministic_given_seed(self):
        net = generate_city("grid", rows=5, cols=5, edge_time_s=60)
        base = make_fleet(net, 3, 2, 600.0, seed=4)
        first, _ = synthesize_traces(base, net, net, seed=9)
        second, _ = synthesize_traces(base, net, net, seed=9)
        assert first == second

    def test_tolerance_widens_then_errors(self):
        # the target's diameter is 120 s; a 1200 s base leg stays out of
        # reach even after four doublings (0.05 -> 0.8 relative)
        base_net = generate_city("grid", rows=21, cols=2, edge_time_s=60)
        target = generate_city("grid", rows=2, cols=2, edge_time_s=60)
        base = [JobCard("c0", "n00x00", (Stop("n20x00", 0.0, 10_000.0),))]
        _, base_time = shortest_path(base_net, "n00x00", "n20x00")
        assert base_time == 1200.0
        with pytest.raises(DomainError, match="leg 1"):
            synthesize_traces(base, base_net, target, TraceTolerance(0.05), seed=0)

    def test_audit_file_format(self, tmp_path):
        net = generate_city("grid", rows=4, cols=4, edge_time_s=60)
        base = make_fleet(net, 2, 2, 600.0, seed=6)
        _, audits = synthesize_traces(base, net, net, seed=7)
        path = tmp_path / "legs.csv"
        write_leg_audit(audits, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "courier_id,seq,base_leg_s,synth_leg_s,tolerance_used"
        assert len(lines) == 1 + len(audits)


class TestGenerateCity:
    def test_grid_counts(self):
        net = generate_city("grid", rows=3, cols=3)
        assert net.num_nodes == 9 and net.num_edges == 12

    def test_grid_2x2_is_cycle(self):
        net = generate_city("grid", rows=2, cols=2)
        assert net.num_nodes == 4 and net.num_edges == 4
        assert all(net.degree(v) == 2 for v in net.node_ids)

    def test_two_cluster_bridge_count_is_min_cut(self):
        net = generate_city("two_cluster", size_a=16, size_b=16, bridges=2)
        cross = [e for e in net.edge_ids if e.startswith("x")]
        assert len(cross) == 2
        paths = edge_disjoint_paths(net, "a00x00", "b03x03")
        assert len(paths) == 2

    def test_two_cluster_bypasses_slow(self):
        net = generate_city("two_cluster", size_a=16, size_b=16, bridges=2,
                            edge_time_s=30, bypass_count=2, bypass_time_s=300)
        bypass = [e for e in net.edge_ids if e.startswith("xbypass")]
        assert len(bypass) == 2
        assert all(net.edges[e].travel_time_s == 300.0 for e in bypass)
        # no time-shortest route uses a bypass
        for src in ("a00x00", "a03x03"):
            for dst in ("b00x00", "b03x03"):
                path, _ = shortest_path(net, src, dst)
                assert not any(e.startswith("xbypass") for e in path)

    def test_negative_bypass_count_is_rejected(self):
        # slicing [:bypass_count] used to build 2 bypasses for bypass_count = -1
        with pytest.raises(DomainError, match="bypass_count must be >= 0, got -1"):
            generate_city("two_cluster", size_a=16, size_b=16, bridges=1, bypass_count=-1)

    def test_geometric_connected_and_deterministic(self):
        net1 = generate_city("geometric", seed=3, n=40, radius_m=260.0)
        net2 = generate_city("geometric", seed=3, n=40, radius_m=260.0)
        assert net1.nodes == net2.nodes and net1.edges == net2.edges
        assert net1._is_connected()

    def test_geometric_radius_too_small(self):
        with pytest.raises(DomainError, match="radius"):
            generate_city("geometric", seed=0, n=40, radius_m=5.0, max_retries=5)

    @pytest.mark.parametrize("side_m", [0.0, -5.0])
    def test_geometric_non_positive_side_is_refused(self, side_m):
        # every point used to lie within the radius, giving a complete graph
        with pytest.raises(DomainError, match="side > 0"):
            generate_city("geometric", seed=0, n=64, radius_m=200.0, side_m=side_m)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["radius_m", "side_m"])
    def test_geometric_non_finite_size_is_refused_by_name(self, name, value):
        # a NaN used to pass the > 0 checks and make 100 edgeless draws
        # that blamed the radius
        params = dict(n=64, radius_m=200.0, side_m=1000.0)
        params[name] = value
        with pytest.raises(DomainError, match=f"finite {name}, got {value!r}"):
            generate_city("geometric", seed=0, **params)

    def test_unknown_kind_and_bad_params(self):
        with pytest.raises(DomainError):
            generate_city("donut")
        with pytest.raises(DomainError):
            generate_city("grid", rows=1, cols=5)
        with pytest.raises(DomainError):
            generate_city("two_cluster", size_a=16, size_b=16, bridges=0)

    def test_loader_invariants_via_roundtrip(self, tmp_path):
        from roadgame.network import load_network, save_network
        for kind, params in [("grid", dict(rows=4, cols=5)),
                             ("geometric", dict(n=30, radius_m=300.0)),
                             ("two_cluster", dict(size_a=16, size_b=12, bridges=3))]:
            net = generate_city(kind, seed=1, **params)
            save_network(net, tmp_path / "n.csv", tmp_path / "e.csv")
            again = load_network(tmp_path / "n.csv", tmp_path / "e.csv")
            assert again.edges == net.edges


class TestMakeFleet:
    def test_clean_shortest_round_is_on_time(self, planted32):
        from roadgame.attacks import empty_attack_plan
        from roadgame.routing import plan_route
        from roadgame.simulate import ON_TIME, run_tour
        fleet = make_fleet(planted32, 5, 3, 450.0, seed=8)
        for card in fleet:
            plan = plan_route(planted32, card, "shortest", 0)
            tour = run_tour(planted32, plan, card, empty_attack_plan(planted32))
            assert all(s == ON_TIME for s in tour.statuses)

    def test_stop_prefix_pools(self, planted32):
        fleet = make_fleet(planted32, 4, 4, 300.0, seed=9, stop_prefixes=("b", "a"))
        for card in fleet:
            prefixes = [s.node_id[0] for s in card.stops]
            assert prefixes == ["b", "a", "b", "a"]

    def test_central_warehouse_default(self, planted32):
        fleet = make_fleet(planted32, 1, 1, 100.0, seed=10)
        assert fleet[0].warehouse == central_node(planted32)

    @pytest.mark.parametrize("city", [
        dict(kind="geometric", seed=5, n=90, radius_m=220.0),
        dict(kind="geometric", seed=11, n=40, radius_m=400.0),
        dict(kind="two_cluster", size_a=36, size_b=30, bridges=2, edge_time_s=20.0,
             bypass_count=3, bypass_time_s=300.0),
        dict(kind="grid", rows=8, cols=8),
    ])
    def test_central_node_equals_the_heap_search_sums(self, city):
        # the grid and the two-cluster city tie many totals: the smallest id wins
        net = generate_city(**city)
        assert _block_search(net, list(range(net.num_nodes))) is not None
        assert central_node(net) == net.node_ids[min(
            range(net.num_nodes), key=lambda i: sum(_dijkstra(net, i, net.travel)[1]))]

    def test_validation(self, planted32):
        with pytest.raises(DomainError):
            make_fleet(planted32, 0, 1, 100.0)
        with pytest.raises(DomainError):
            make_fleet(planted32, 1, 1, 0.0)
        with pytest.raises(DomainError):
            make_fleet(planted32, 1, 1, 100.0, warehouse="nope")

    def test_empty_stop_pool_is_named(self, planted32):
        with pytest.raises(DomainError, match="^no node other than the warehouse '.*' "
                                              "has an id starting with 'z'$"):
            make_fleet(planted32, 1, 2, 100.0, stop_prefixes=("a", "z"))

    @pytest.mark.parametrize("slack_s, day_start_s", [(1e-300, 0.0), (900.0, 1e308)])
    def test_slack_lost_in_rounding_is_named(self, planted32, slack_s, day_start_s):
        # clock + slack == clock used to surface as "window start must precede window end"
        with pytest.raises(DomainError, match=rf"fleet slack {slack_s!r} s .* arrival time"):
            make_fleet(planted32, 1, 1, slack_s, day_start_s=day_start_s)


class TestTraceTolerance:
    def test_bounds(self):
        with pytest.raises(ValidationError):
            TraceTolerance(relative_tolerance=0.0)
        with pytest.raises(ValidationError):
            TraceTolerance(relative_tolerance=1.0)
