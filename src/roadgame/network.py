"""Road-network model, file ingestion, and core path/cut queries.

The graph is undirected and simple.  Edge travel time is derived as
length / speed and is the default routing weight; every routing query
also accepts an explicit per-edge weight map so defensive routing can
substitute its own scores.  All queries are pure functions with
deterministic tie-breaking (lexicographic on edge id), which keeps
simulations replayable.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DomainError, ParseError, ValidationError

NODES_HEADER = ("node_id", "x", "y")
EDGES_HEADER = ("edge_id", "u", "v", "length_m", "speed_mps")

# Path *selection* floors weights at this value so zero-score edges cannot
# create zero-cost cycles (which would make "lexicographically smallest
# shortest path" ill-defined).  Reported totals always use caller weights.
_WEIGHT_FLOOR = 1e-12


@dataclass(frozen=True)
class Node:
    node_id: str
    x: float
    y: float


@dataclass(frozen=True)
class Edge:
    edge_id: str
    u: str
    v: str
    length_m: float
    speed_mps: float

    @property
    def travel_time_s(self) -> float:
        return self.length_m / self.speed_mps

    def other(self, node_id: str) -> str:
        return self.v if node_id == self.u else self.u


def memoised(fn):
    """Compute ``fn(net, *args)`` once per network and argument tuple.

    Derived quantities are pure functions of the topology, so the value
    is kept in ``net._cache`` under the function and its arguments, and
    every later call returns that same object.
    """
    name = (fn.__module__, fn.__qualname__)

    @functools.wraps(fn)
    def cached(net: "RoadNetwork", *args):
        key = name + args
        if key not in net._cache:
            net._cache[key] = fn(net, *args)
        return net._cache[key]
    return cached


class RoadNetwork:
    """Validated, immutable undirected road graph.

    Construction checks the structural invariants (simple graph, positive
    lengths and speeds, endpoints present, connectivity); afterwards the
    object is safe for concurrent read access.  Derived quantities are
    memoised per network by :func:`memoised`.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge],
                 require_connected: bool = True):
        node_map: dict[str, Node] = {}
        for node in nodes:
            if node.node_id in node_map:
                raise ValidationError(f"duplicate node id {node.node_id!r}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise ValidationError(f"node {node.node_id!r} has non-finite coordinates")
            node_map[node.node_id] = node

        edge_map: dict[str, Edge] = {}
        seen_pairs: dict[tuple[str, str], str] = {}
        for edge in edges:
            if edge.edge_id in edge_map:
                raise ValidationError(f"duplicate edge id {edge.edge_id!r}")
            if edge.u == edge.v:
                raise ValidationError(f"edge {edge.edge_id!r} is a self-loop on {edge.u!r}")
            for endpoint in (edge.u, edge.v):
                if endpoint not in node_map:
                    raise ValidationError(
                        f"edge {edge.edge_id!r} references unknown node {endpoint!r}")
            pair = (edge.u, edge.v) if edge.u < edge.v else (edge.v, edge.u)
            if pair in seen_pairs:
                raise ValidationError(
                    f"edges {seen_pairs[pair]!r} and {edge.edge_id!r} duplicate pair {pair}")
            seen_pairs[pair] = edge.edge_id
            for name, value in (("length_m", edge.length_m), ("speed_mps", edge.speed_mps)):
                if not (value > 0 and math.isfinite(value)):
                    raise ValidationError(
                        f"edge {edge.edge_id!r} {name} must be finite and > 0, got {value!r}")
            edge_map[edge.edge_id] = edge

        self.nodes: dict[str, Node] = node_map
        self.edges: dict[str, Edge] = edge_map
        self.node_ids: tuple[str, ...] = tuple(sorted(node_map))
        self.edge_ids: tuple[str, ...] = tuple(sorted(edge_map))

        adjacency: dict[str, list[tuple[str, str]]] = {v: [] for v in node_map}
        for eid in self.edge_ids:
            e = edge_map[eid]
            adjacency[e.u].append((eid, e.v))
            adjacency[e.v].append((eid, e.u))
        # incident edges kept in edge-id order: deterministic iteration
        self.adjacency: dict[str, tuple[tuple[str, str], ...]] = {
            v: tuple(inc) for v, inc in adjacency.items()}

        if require_connected and not self._is_connected():
            raise ValidationError("graph is not connected")

        self._cache: dict = {}

    # -- basic queries ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node_id: str) -> int:
        return len(self.adjacency[node_id])

    @memoised
    def travel_times(self) -> dict[str, float]:
        return {eid: self.edges[eid].travel_time_s for eid in self.edge_ids}

    def _is_connected(self) -> bool:
        if not self.nodes:
            return True
        start = self.node_ids[0]
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for _, v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == len(self.nodes)


@dataclass(frozen=True)
class EdgeSet:
    """An unordered, duplicate-free set of edge ids from one network."""

    ids: frozenset[str]

    @classmethod
    def for_network(cls, net: RoadNetwork, ids: Iterable[str]) -> "EdgeSet":
        ids = frozenset(ids)
        unknown = ids - set(net.edges)
        if unknown:
            raise ValidationError(f"edge ids not in network: {sorted(unknown)}")
        return cls(ids)

    def __iter__(self):
        return iter(sorted(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, edge_id: str) -> bool:
        return edge_id in self.ids


# -- file ingestion ------------------------------------------------------


def _read_utf8(path, newline: str | None = None) -> io.StringIO:
    """The file's text, readable like ``open(path, newline=newline)``.

    The bytes are decoded up front, so a file that is not UTF-8 raises a
    ``ParseError`` naming the file and line instead of failing mid-read.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"{path}:{lineno}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None


def _read_rows(path, expected_header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    rows = []
    reader = csv.reader(_read_utf8(path, newline=""))
    header = next(reader, None)
    if header is None or [h.strip() for h in header] != list(expected_header):
        raise ParseError(
            f"{path}:1: expected header {','.join(expected_header)!r}")
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(expected_header):
            raise ParseError(
                f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}")
        rows.append((lineno, [field.strip() for field in row]))
    return rows


def _parse_float(path, lineno: int, name: str, raw: str, invalid: str | None = None) -> float:
    """Field ``name`` as a finite float; a ``ParseError`` at ``path:lineno``
    otherwise, worded ``invalid`` when the text is not a number."""
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {invalid or f'invalid {name} value {raw!r}'}") from None
    if not math.isfinite(value):
        raise ParseError(f"{path}:{lineno}: {name} must be finite, got {raw!r}")
    return value


def load_network(nodes_file, edges_file) -> RoadNetwork:
    """Load and validate a network from node and edge files.

    A pure function of the file bytes: identical files produce identical
    in-memory structures.
    """
    nodes = []
    for lineno, row in _read_rows(nodes_file, NODES_HEADER):
        node_id, x_raw, y_raw = row
        if not node_id:
            raise ParseError(f"{nodes_file}:{lineno}: empty node_id")
        nodes.append(Node(node_id,
                          _parse_float(nodes_file, lineno, "x", x_raw),
                          _parse_float(nodes_file, lineno, "y", y_raw)))
    edges = []
    for lineno, row in _read_rows(edges_file, EDGES_HEADER):
        edge_id, u, v, length_raw, speed_raw = row
        if not edge_id:
            raise ParseError(f"{edges_file}:{lineno}: empty edge_id")
        edges.append(Edge(edge_id, u, v,
                          _parse_float(edges_file, lineno, "length_m", length_raw),
                          _parse_float(edges_file, lineno, "speed_mps", speed_raw)))
    return RoadNetwork(nodes, edges, require_connected=True)


def save_network(net: RoadNetwork, nodes_file, edges_file) -> None:
    """Write a network in the same format accepted by :func:`load_network`.

    Floats use repr (shortest round-trip form) so save/load is lossless.
    """
    with open(nodes_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(NODES_HEADER)
        for nid in net.node_ids:
            node = net.nodes[nid]
            writer.writerow([node.node_id, repr(node.x), repr(node.y)])
    with open(edges_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EDGES_HEADER)
        for eid in net.edge_ids:
            e = net.edges[eid]
            writer.writerow([e.edge_id, e.u, e.v, repr(e.length_m), repr(e.speed_mps)])


# -- shortest paths ------------------------------------------------------


def _check_weights(net: RoadNetwork, weights: Mapping[str, float] | None) -> Mapping[str, float]:
    if weights is None:
        return net.travel_times()
    for eid in net.edge_ids:
        w = weights.get(eid)
        if w is None:
            raise DomainError(f"weight map missing edge {eid!r}")
        if not (w >= 0 and math.isfinite(w)):
            raise DomainError(f"weight for edge {eid!r} must be finite and >= 0")
    return weights


def _dijkstra(net: RoadNetwork, source: str, weights: Mapping[str, float],
              floor: float = 0.0) -> tuple[list[str], dict[str, float]]:
    """Single-source shortest paths as (settled order, distance map).

    Each edge costs its weight raised to at least ``floor``; the order
    lists nodes by nondecreasing distance.
    """
    dist = {source: 0.0}
    order: list[str] = []
    done: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        order.append(u)
        for eid, v in net.adjacency[u]:
            w = weights[eid]
            nd = d + (w if w > floor else floor)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return order, dist


def shortest_path(net: RoadNetwork, src: str, dst: str,
                  weights: Mapping[str, float] | None = None) -> tuple[list[str], float]:
    """Minimum-weight path from src to dst as (edge id list, total weight).

    Among equal-weight paths the lexicographically smallest edge-id
    sequence is returned.  Weights default to travel times.
    """
    for node in (src, dst):
        if node not in net.nodes:
            raise DomainError(f"unknown node {node!r}")
    weights = _check_weights(net, weights)
    if src == dst:
        return [], 0.0

    _, dist_to_dst = _dijkstra(net, dst, weights, _WEIGHT_FLOOR)
    if src not in dist_to_dst:
        raise DomainError(f"no path between {src!r} and {dst!r}")

    path: list[str] = []
    u = src
    guard = net.num_nodes + net.num_edges + 1
    while u != dst:
        best: tuple[float, str, str] | None = None
        for eid, v in net.adjacency[u]:
            w = weights[eid]
            cand = ((w if w > _WEIGHT_FLOOR else _WEIGHT_FLOOR) + dist_to_dst[v], eid, v)
            if best is None or cand < best:
                best = cand
        assert best is not None
        path.append(best[1])
        u = best[2]
        guard -= 1
        if guard <= 0:
            raise DomainError("path reconstruction failed to terminate")
    total = 0.0
    for eid in path:
        total += float(weights[eid])
    return path, total


# -- edge-disjoint paths (max-flow with unit capacities) ------------------


def edge_disjoint_paths(net: RoadNetwork, src: str, dst: str) -> list[list[str]]:
    """Maximum-cardinality set of pairwise edge-disjoint src-dst paths.

    Computed by augmenting BFS paths with unit capacity per edge
    direction; opposite unit flows on one undirected edge cancel.  Output
    order is deterministic given the network.
    """
    for node in (src, dst):
        if node not in net.nodes:
            raise DomainError(f"unknown node {node!r}")
    if src == dst:
        raise DomainError("src and dst must differ")

    # flow[(eid, tail)] = 1 when a unit flows tail -> other endpoint
    flow: dict[tuple[str, str], int] = {}

    def residual(eid: str, u: str, v: str) -> int:
        return (1 - flow.get((eid, u), 0)) + flow.get((eid, v), 0)

    while True:
        pred: dict[str, tuple[str, str]] = {}
        seen = {src}
        queue = deque([src])
        while queue and dst not in seen:
            u = queue.popleft()
            for eid, v in net.adjacency[u]:
                if v not in seen and residual(eid, u, v) > 0:
                    seen.add(v)
                    pred[v] = (u, eid)
                    queue.append(v)
        if dst not in seen:
            break
        node = dst
        while node != src:
            u, eid = pred[node]
            if flow.get((eid, node), 0) == 1:
                flow[(eid, node)] = 0
            else:
                flow[(eid, u)] = 1
            node = u

    # decompose into paths, consuming flow arcs smallest-edge-id first
    paths: list[list[str]] = []
    out_flow = sum(flow.get((eid, src), 0) for eid, _ in net.adjacency[src])
    for _ in range(out_flow):
        path: list[str] = []
        u = src
        guard = net.num_edges + 1
        while u != dst:
            for eid, v in net.adjacency[u]:
                if flow.get((eid, u), 0) == 1:
                    flow[(eid, u)] = 0
                    path.append(eid)
                    u = v
                    break
            else:
                raise DomainError("flow decomposition failed (conservation violated)")
            guard -= 1
            if guard <= 0:
                raise DomainError("flow decomposition failed to terminate")
        paths.append(path)
    return paths


# -- conductance ----------------------------------------------------------


def conductance(net: RoadNetwork, part: Iterable[str]) -> float:
    """Cut size over the smaller side's volume, in [0, 1]."""
    part_set = set(part)
    if not part_set:
        raise DomainError("part must be nonempty")
    unknown = part_set - set(net.nodes)
    if unknown:
        raise DomainError(f"unknown nodes in part: {sorted(unknown)}")
    if len(part_set) == net.num_nodes:
        raise DomainError("part must be a proper subset of the nodes")

    cut = 0
    for eid in net.edge_ids:
        e = net.edges[eid]
        if (e.u in part_set) != (e.v in part_set):
            cut += 1
    vol = sum(net.degree(v) for v in part_set)
    vol_rest = 2 * net.num_edges - vol
    smaller = min(vol, vol_rest)
    if smaller == 0:
        return 0.0
    return cut / smaller
