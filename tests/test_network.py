import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_net
from oracles import brute_min_edge_cut
from roadgame.errors import DomainError, ParseError, ValidationError
from roadgame.network import (EdgeSet, conductance, edge_disjoint_paths,
                              load_network, save_network, shortest_path)
from roadgame.synth import generate_city


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
            assert str(exc.value) == f"edge 'e0' {field} must be finite and > 0, got {shown}"
        else:  # refused while parsing, at its file and line
            with pytest.raises(ParseError) as exc:
                load_network(nodes, edges)
            assert str(exc.value) == f"{edges}:2: {field} must be finite, got {raw!r}"

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
        assert n1.adjacency == n2.adjacency

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
        times = planted32.travel_times()
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

    def test_deterministic_order(self, planted32):
        first = edge_disjoint_paths(planted32, "a00x00", "b03x03")
        second = edge_disjoint_paths(planted32, "a00x00", "b03x03")
        assert first == second

    def test_matches_min_cut_on_fixtures(self, two_triangles_bridge, k4, square):
        for net, src, dst in [(two_triangles_bridge, "a1", "b2"),
                              (k4, "A", "C"), (square, "A", "C")]:
            assert len(edge_disjoint_paths(net, src, dst)) == brute_min_edge_cut(net, src, dst)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**15 - 1), st.data())
    def test_menger_on_random_graphs(self, mask, data):
        # graphs on 6 nodes: edge subset of K6 from the bitmask
        names = [f"n{i}" for i in range(6)]
        pairs = [(names[i], names[j]) for i in range(6) for j in range(i + 1, 6)]
        chosen = [(f"e{idx:02d}", u, v) for idx, (u, v) in enumerate(pairs)
                  if mask >> idx & 1]
        try:
            net = build_net(chosen)
        except ValidationError:
            return  # disconnected or empty draw
        src, dst = data.draw(st.sampled_from(pairs))
        if src not in net.nodes or dst not in net.nodes:
            return
        assert len(edge_disjoint_paths(net, src, dst)) == brute_min_edge_cut(net, src, dst)

    def test_path_weights_bound_shortest(self, planted32):
        _, best = shortest_path(planted32, "a00x00", "b03x03")
        times = planted32.travel_times()
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


class TestEdgeSet:
    def test_validates_membership(self, p3):
        with pytest.raises(ValidationError):
            EdgeSet.for_network(p3, ["nope"])
        es = EdgeSet.for_network(p3, ["e1", "e0", "e1"])
        assert len(es) == 2
        assert list(es) == ["e0", "e1"]
