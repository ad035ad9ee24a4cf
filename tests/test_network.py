import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_net, connected_graphs
from oracles import brute_min_edge_cut, enumerate_simple_paths, incident_edges
from roadgame.errors import DomainError, ParseError, ValidationError
from roadgame.network import (Edge, Node, RoadNetwork, _dijkstra, conductance,
                              edge_disjoint_paths, load_network, save_network, shortest_path)
from roadgame.synth import generate_city


# graphs on 6 nodes: the edge subset of K6 given by a 15-bit mask
K6_PAIRS = [(f"n{i}", f"n{j}") for i in range(6) for j in range(i + 1, 6)]
k6_edge_sets = st.integers(min_value=0, max_value=2**15 - 1).map(
    lambda mask: [(f"e{idx:02d}", u, v) for idx, (u, v) in enumerate(K6_PAIRS)
                  if mask >> idx & 1])


def write_files(tmp_path, nodes_text, edges_text):
    nodes = tmp_path / "nodes.csv"
    edges = tmp_path / "edges.csv"
    nodes.write_text(nodes_text)
    edges.write_text(edges_text)
    return nodes, edges


class TestLoadNetwork:
    def test_single_edge_travel_time(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,100,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,B,100,10\n")
        net = load_network(nodes, edges)
        assert net.num_nodes == 2 and net.num_edges == 1
        assert net.edges["e0"].travel_time_s == 10.0

    def test_unknown_endpoint_names_offender(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,Z,10,1\n")
        with pytest.raises(ValidationError, match="Z"):
            load_network(nodes, edges)

    def test_square_cycle_file(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\nC,1,1\nD,0,1\n",
            "edge_id,u,v,length_m,speed_mps\n"
            "e0,A,B,10,1\ne1,B,C,10,1\ne2,C,D,10,1\ne3,D,A,10,1\n")
        net = load_network(nodes, edges)
        assert net.num_edges == 4
        assert net._is_connected()

    def test_parse_error_reports_line(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,oops,0\n",
            "edge_id,u,v,length_m,speed_mps\n")
        with pytest.raises(ParseError, match=":3"):
            load_network(nodes, edges)

    def test_rejects_disconnected(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\nC,2,0\nD,3,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,B,10,1\ne1,C,D,10,1\n")
        with pytest.raises(ValidationError, match="connected"):
            load_network(nodes, edges)

    def test_rejects_duplicate_pair_and_nonpositive(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate pair"):
            build_net([("e0", "A", "B"), ("e1", "B", "A"), ("e2", "B", "C")])
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,B,-5,1\n")
        with pytest.raises(ValidationError, match="length"):
            load_network(nodes, edges)

    @pytest.mark.parametrize("field, raw, shown", [
        ("length_m", "nan", "nan"), ("length_m", "inf", "inf"), ("length_m", "1e400", "inf"),
        ("length_m", "0", "0.0"), ("speed_mps", "-2", "-2.0"), ("speed_mps", "nan", "nan")])
    def test_bad_length_or_speed_names_the_value(self, tmp_path, field, raw, shown):
        length, speed = (raw, "1") if field == "length_m" else ("10", raw)
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\n",
            f"edge_id,u,v,length_m,speed_mps\ne0,A,B,{length},{speed}\n")
        if math.isfinite(float(raw)):
            with pytest.raises(ValidationError) as exc:
                load_network(nodes, edges)
            assert str(exc.value) == (f"{edges}:2: edge 'e0' {field} must be finite and > 0, "
                                      f"got {shown}")
        else:  # refused while parsing, at its file and line
            with pytest.raises(ParseError) as exc:
                load_network(nodes, edges)
            assert str(exc.value) == f"{edges}:2: {field} must be finite, got {raw!r}"

    @pytest.mark.parametrize("nodes_text, edges_text, place, message", [
        ("A,0,0\nB,1,0\nA,2,0\n", "e0,A,B,10,1\n",
         "nodes.csv:4", "duplicate node id 'A'"),
        ("A,0,0\nB,1,0\nC,2,0\n", "e0,A,B,10,1\ne1,B,C,10,1\ne0,A,C,10,1\n",
         "edges.csv:4", "duplicate edge id 'e0'"),
        ("A,0,0\nB,1,0\n", "e0,A,B,10,1\ne1,B,B,10,1\n",
         "edges.csv:3", "edge 'e1' is a self-loop on 'B'"),
        ("A,0,0\nB,1,0\n", "e0,A,B,10,1\ne1,B,A,10,1\n",
         "edges.csv:3", "edges 'e0' and 'e1' duplicate pair ('A', 'B')"),
        ("A,0,0\nB,1,0\n", "e0,A,Z,10,1\n",
         "edges.csv:2", "edge 'e0' references unknown node 'Z'"),
        ("A,0,0\nB,1,0\nC,2,0\nD,3,0\n", "e0,A,B,10,1\ne1,C,D,10,1\n",
         "edges.csv", "graph is not connected"),
    ], ids=["node-id", "edge-id", "self-loop", "pair", "endpoint", "disconnected"])
    def test_structural_error_names_file_and_line(self, tmp_path, nodes_text, edges_text,
                                                  place, message):
        nodes, edges = write_files(tmp_path, "node_id,x,y\n" + nodes_text,
                                   "edge_id,u,v,length_m,speed_mps\n" + edges_text)
        with pytest.raises(ValidationError) as exc:
            load_network(nodes, edges)
        assert str(exc.value) == f"{tmp_path / place}: {message}"

    @pytest.mark.parametrize("length, speed, shown", [
        ("1e308", "0.1", "inf"), ("1e-320", "1e10", "0.0")], ids=["overflow", "underflow"])
    def test_travel_time_out_of_range_is_refused(self, tmp_path, length, speed, shown):
        # both inputs are finite and positive; only their ratio is not
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\nC,2,0\n",
            f"edge_id,u,v,length_m,speed_mps\ne1,B,C,10,1\ne0,A,B,{length},{speed}\n")
        with pytest.raises(ValidationError) as exc:
            load_network(nodes, edges)
        assert str(exc.value) == (f"{edges}:3: edge 'e0' travel time length_m / speed_mps "
                                  f"must be finite and > 0, got {shown}")
        with pytest.raises(ValidationError, match=f"^edge 'e0' travel time .* got {shown}$"):
            RoadNetwork([Node("A", 0.0, 0.0), Node("B", 1.0, 0.0)],
                        [Edge("e0", "A", "B", float(length), float(speed))])

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        nodes, edges = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,B,10,1\n")
        nodes.write_bytes(b"node_id,x,y\nA,0,0\n\xe9,1,0\n")
        with pytest.raises(ParseError, match=r"nodes\.csv:3: not UTF-8 text \(byte 0xe9\)"):
            load_network(nodes, edges)

    def test_load_is_pure_function_of_bytes(self, tmp_path):
        args = write_files(
            tmp_path,
            "node_id,x,y\nA,0,0\nB,1,0\n",
            "edge_id,u,v,length_m,speed_mps\ne0,A,B,10,2\n")
        n1, n2 = load_network(*args), load_network(*args)
        assert n1.nodes == n2.nodes and n1.edges == n2.edges
        assert n1.links == n2.links and n1.travel == n2.travel

    def test_save_load_roundtrip(self, tmp_path, planted32):
        nodes, edges = tmp_path / "n.csv", tmp_path / "e.csv"
        save_network(planted32, nodes, edges)
        again = load_network(nodes, edges)
        assert again.nodes == planted32.nodes
        assert again.edges == planted32.edges


class TestShortestPath:
    def test_src_equals_dst(self, p3):
        assert shortest_path(p3, "A", "A") == ([], 0.0)

    def test_p3_only_path(self, p3):
        path, weight = shortest_path(p3, "A", "C")
        assert path == ["e0", "e1"]
        assert weight == 2.0

    def test_square_prefers_cheap_side(self):
        net = build_net(
            [("e0", "A", "B"), ("e1", "B", "C"), ("e2", "C", "D"), ("e3", "D", "A")],
            times={"e0": 1.0, "e1": 1.0, "e2": 10.0, "e3": 10.0})
        path, weight = shortest_path(net, "A", "C")
        assert path == ["e0", "e1"]
        assert weight == 2.0

    def test_lexicographic_tie_break(self, square):
        # both ways around the square cost 2; e0,e1 beats e3,e2
        path, weight = shortest_path(square, "A", "C")
        assert path == ["e0", "e1"]
        assert weight == 2.0

    def test_undirected_symmetry(self, planted32):
        nodes = planted32.node_ids
        for src, dst in [(nodes[0], nodes[-1]), (nodes[3], nodes[20])]:
            _, w1 = shortest_path(planted32, src, dst)
            _, w2 = shortest_path(planted32, dst, src)
            assert w1 == pytest.approx(w2, abs=1e-12)

    def test_explicit_weights_and_errors(self, p3):
        weights = {"e0": 5.0, "e1": 0.0}
        path, weight = shortest_path(p3, "A", "C", weights)
        assert path == ["e0", "e1"] and weight == 5.0
        with pytest.raises(DomainError):
            shortest_path(p3, "A", "C", {"e0": 1.0})
        with pytest.raises(DomainError):
            shortest_path(p3, "A", "C", {"e0": -1.0, "e1": 1.0})

    def test_scaling_invariance(self, planted32):
        times = {eid: e.travel_time_s for eid, e in planted32.edges.items()}
        scaled = {eid: 7.5 * t for eid, t in times.items()}
        for src, dst in [("a00x00", "b03x03"), ("a02x01", "b00x02")]:
            p1, _ = shortest_path(planted32, src, dst)
            p2, _ = shortest_path(planted32, src, dst, scaled)
            assert p1 == p2

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_zero_weights_pick_the_unit_weight_path(self, square, zero):
        # the selection floor keeps zero-cost cycles from trapping the search
        # or the reconstruction; the reported weight stays the caller's 0.0
        grid4 = generate_city("grid", rows=4, cols=4, edge_time_s=60.0)
        for net in (square, grid4):
            zeros = {eid: zero for eid in net.edge_ids}
            ones = {eid: 1.0 for eid in net.edge_ids}
            for src in net.node_ids:
                for dst in net.node_ids:
                    path, weight = shortest_path(net, src, dst, zeros)
                    assert path == shortest_path(net, src, dst, ones)[0]
                    assert weight == 0.0 and math.copysign(1.0, weight) == 1.0

    @pytest.mark.parametrize("dst", ["n00x02", "n02x02"])
    def test_total_past_the_float_range_is_no_path(self, dst):
        # two edges of 1e308 already sum to inf, so no path has a finite total
        grid3 = generate_city("grid", rows=3, cols=3, edge_time_s=60.0)
        huge = {eid: 1e308 for eid in grid3.edge_ids}
        assert shortest_path(grid3, "n00x00", "n00x01", huge)[1] == 1e308
        with pytest.raises(DomainError) as exc:
            shortest_path(grid3, "n00x00", dst, huge)
        assert str(exc.value) == f"no finite-weight path between 'n00x00' and {dst!r}"

    @pytest.mark.parametrize("weights", [{"e0": 0.0, "e1": 2e4}, {"e0": 1e-13, "e1": 3e5}])
    def test_floor_absorbed_by_a_large_distance_still_ends_at_dst(self, weights):
        # from B, the floored e0 back to A costs no more than staying: the
        # walk must still step only towards dst
        net = build_net([("e0", "A", "B"), ("e1", "B", "D")])
        assert shortest_path(net, "A", "D", weights) == (["e0", "e1"], weights["e1"])

    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(2, 12), st.data())
    def test_any_weights_give_a_simple_src_dst_path(self, net, data):
        weights = {eid: data.draw(st.sampled_from([0.0, 1e-13, 1.0, 2e4, 3e5]), label=eid)
                   for eid in net.edge_ids}
        for src in net.node_ids:
            for dst in net.node_ids:
                path, total = shortest_path(net, src, dst, weights)
                nodes = [src]
                for eid in path:
                    edge = net.edges[eid]
                    assert nodes[-1] in (edge.u, edge.v)
                    nodes.append(edge.v if nodes[-1] == edge.u else edge.u)
                assert nodes[-1] == dst and len(set(nodes)) == len(nodes)
                assert total == sum((weights[eid] for eid in path), 0.0)

    def test_total_adds_left_to_right_in_walking_order(self):
        # from A the large weight comes first and absorbs both units; from D
        # the units add up first.  A compensated sum gives 1e16 + 2 both ways.
        net = build_net([("e0", "A", "B"), ("e1", "B", "C"), ("e2", "C", "D")])
        weights = {"e0": 1e16, "e1": 1.0, "e2": 1.0}
        assert shortest_path(net, "A", "D", weights)[1] == ((0.0 + 1e16) + 1.0) + 1.0 == 1e16
        assert shortest_path(net, "D", "A", weights)[1] == ((0.0 + 1.0) + 1.0) + 1e16 == 1e16 + 2

    def test_unreached_node_is_no_path(self):
        net = build_net([("e0", "A", "B"), ("e1", "C", "D")], require_connected=False)
        with pytest.raises(DomainError, match="no finite-weight path between 'A' and 'C'"):
            shortest_path(net, "A", "C")


class TestDijkstra:
    @settings(max_examples=80, deadline=None)
    @given(connected_graphs(2, 8, times=st.sampled_from([1.0, 2.0])), st.data())
    def test_sigma_and_preds_count_every_shortest_path(self, net, data):
        # times of 1 and 2 make equal-cost paths common
        src = data.draw(st.sampled_from(net.node_ids), label="src")
        order, dist, preds = _dijkstra(net, net.node_index[src], net.travel)
        assert sorted(order) == list(range(net.num_nodes))
        assert [dist[v] for v in order] == sorted(dist)
        assert order[0] == net.node_index[src] and preds[order[0]] == []
        # path counts summed over the predecessors in settling order
        sigma = {order[0]: 1}
        for w in order[1:]:
            sigma[w] = sum(sigma[v] for v, _ in preds[w])
        for dst in net.node_ids:
            if dst == src:
                continue
            paths = enumerate_simple_paths(net, src, dst)
            best = min(weight for _, weight in paths)
            shortest = [edges for edges, weight in paths if weight == best]
            v = net.node_index[dst]
            assert dist[v] == best
            assert sigma[v] == len(shortest)
            across = {k: u for u, k in net.links[v]}  # edge index -> dst's neighbour
            last = {(across[net.edge_index[edges[-1]]], net.edge_index[edges[-1]])
                    for edges in shortest}
            assert sorted(preds[v]) == sorted(last)

    def test_a_total_past_the_float_range_leaves_the_node_unreached(self):
        grid3 = generate_city("grid", rows=3, cols=3, edge_time_s=60.0)
        order, dist, preds = _dijkstra(grid3, 0, [1e308] * grid3.num_edges)
        near = [0] + [v for v, _ in grid3.links[0]]
        assert sorted(order) == sorted(near)
        for v in range(grid3.num_nodes):
            if v not in near:
                assert (dist[v], preds[v]) == (math.inf, [])

    @settings(max_examples=60, deadline=None)
    @given(connected_graphs(2, 8, times=st.sampled_from([1.0, 2.0])), st.data())
    def test_stop_keeps_every_settled_nodes_preds(self, net, data):
        src = data.draw(st.sampled_from(net.node_ids), label="src")
        stop = data.draw(st.sampled_from(range(net.num_nodes)), label="stop")
        s = net.node_index[src]
        order, dist, preds = _dijkstra(net, s, net.travel)
        cut, cut_dist, cut_preds = _dijkstra(net, s, net.travel, stop=stop)
        assert cut == order[:order.index(stop) + 1]
        for v in cut:
            assert (cut_dist[v], cut_preds[v]) == (dist[v], preds[v])


class TestIntegerView:
    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        k6_edge_sets.map(lambda edges: build_net(
            edges, times={eid: 1.0 + int(eid[1:]) for eid, _, _ in edges},
            require_connected=False)),
        connected_graphs()))
    def test_links_and_travel_mirror_edges(self, net):
        assert list(net.node_ids) == sorted(net.nodes)
        assert list(net.edge_ids) == sorted(net.edges)
        assert [net.node_index[v] for v in net.node_ids] == list(range(net.num_nodes))
        assert [net.edge_index[e] for e in net.edge_ids] == list(range(net.num_edges))
        incident = incident_edges(net)
        assert len(net.links) == net.num_nodes
        for i, row in enumerate(net.links):
            node = net.node_ids[i]
            assert list(row) == [(net.node_index[v], net.edge_index[e]) for e, v in incident[node]]
            assert net.degree(node) == len(incident[node])
        assert list(net.travel) == [net.edges[e].travel_time_s for e in net.edge_ids]


class TestEdgeDisjointPaths:
    def test_single_edge(self):
        net = build_net([("e0", "A", "B")])
        assert edge_disjoint_paths(net, "A", "B") == [["e0"]]

    def test_four_cycle_opposite_corners(self, square):
        paths = edge_disjoint_paths(square, "A", "C")
        assert len(paths) == 2
        used = [eid for p in paths for eid in p]
        assert len(used) == len(set(used))

    def test_bridge_bottleneck(self, two_cliques_bridge):
        paths = edge_disjoint_paths(two_cliques_bridge, "a2", "b3")
        assert len(paths) == 1

    def test_requires_distinct_endpoints(self, square):
        with pytest.raises(DomainError):
            edge_disjoint_paths(square, "A", "A")

    # the disjoint defense draws an index into this list, so the paths'
    # order is part of every report that routes it
    @pytest.mark.parametrize("graph, src, dst, paths", [
        ("planted32", "a00x00", "b03x03", [
            ["ah00x00", "ah00x01", "ah00x02", "av00x03", "av01x03", "xbridge1",
             "bh02x00", "bh02x01", "bh02x02", "bv02x03"],
            ["av00x00", "ah01x00", "ah01x01", "ah01x02", "xbridge0",
             "bh01x00", "bh01x01", "bv01x02", "bv02x02", "bh03x02"]]),
        ("planted32", "b03x03", "a00x00", [
            ["bh03x02", "bh03x01", "bh03x00", "bv02x00", "bv01x00", "xbridge0",
             "ah01x02", "ah01x01", "ah01x00", "av00x00"],
            ["bv02x03", "bh02x02", "bh02x01", "bh02x00", "xbridge1",
             "ah02x02", "ah02x01", "av01x01", "av00x01", "ah00x00"]]),
        ("planted32", "a01x02", "a02x01", [
            ["ah01x01", "av01x01"],
            ["ah01x02", "av01x03", "ah02x02", "ah02x01"],
            ["av00x02", "ah00x01", "ah00x00", "av00x00", "av01x00", "ah02x00"],
            ["av01x02", "av02x02", "ah03x01", "av02x01"]]),
        ("square", "A", "C", [["e0", "e1"], ["e3", "e2"]]),
        ("square", "B", "D", [["e0", "e3"], ["e1", "e2"]]),
        ("square", "A", "B", [["e0"], ["e3", "e2", "e1"]]),
        ("k4", "A", "C", [["k00", "k03"], ["k01"], ["k02", "k05"]]),
        ("k4", "D", "B", [["k02", "k00"], ["k04"], ["k05", "k03"]]),
    ])
    def test_pinned_paths_and_order(self, request, graph, src, dst, paths):
        assert edge_disjoint_paths(request.getfixturevalue(graph), src, dst) == paths

    def test_deterministic_order(self, planted32):
        first = edge_disjoint_paths(planted32, "a00x00", "b03x03")
        second = edge_disjoint_paths(planted32, "a00x00", "b03x03")
        assert first == second

    def test_matches_min_cut_on_fixtures(self, two_triangles_bridge, k4, square):
        for net, src, dst in [(two_triangles_bridge, "a1", "b2"),
                              (k4, "A", "C"), (square, "A", "C")]:
            assert len(edge_disjoint_paths(net, src, dst)) == brute_min_edge_cut(net, src, dst)

    @settings(max_examples=30, deadline=None)
    @given(k6_edge_sets, st.sampled_from(K6_PAIRS))
    def test_menger_on_random_graphs(self, chosen, pair):
        try:
            net = build_net(chosen)
        except ValidationError:
            return  # disconnected or empty draw
        src, dst = pair
        if src not in net.nodes or dst not in net.nodes:
            return
        assert len(edge_disjoint_paths(net, src, dst)) == brute_min_edge_cut(net, src, dst)

    def test_path_weights_bound_shortest(self, planted32):
        _, best = shortest_path(planted32, "a00x00", "b03x03")
        times = {eid: e.travel_time_s for eid, e in planted32.edges.items()}
        for path in edge_disjoint_paths(planted32, "a00x00", "b03x03"):
            assert sum(times[eid] for eid in path) >= best - 1e-9


class TestConductance:
    def test_two_triangles_bridge(self, two_triangles_bridge):
        value = conductance(two_triangles_bridge, ["a0", "a1", "a2"])
        assert value == pytest.approx(1 / 7)

    def test_k4_single_node(self, k4):
        assert conductance(k4, ["A"]) == pytest.approx(1.0)

    def test_matches_exhaustive_minimum(self, two_triangles_bridge):
        from oracles import brute_min_conductance_bipartition
        best = brute_min_conductance_bipartition(two_triangles_bridge)
        assert conductance(two_triangles_bridge, ["a0", "a1", "a2"]) == pytest.approx(best)

    def test_domain_errors(self, k4):
        with pytest.raises(DomainError):
            conductance(k4, [])
        with pytest.raises(DomainError):
            conductance(k4, ["A", "B", "C", "D"])

    def test_range(self, planted32):
        for part in (["a00x00"], [v for v in planted32.node_ids if v.startswith("a")]):
            value = conductance(planted32, part)
            assert 0.0 <= value <= 1.0

