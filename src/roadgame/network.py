"""Road-network model, file formats, and core path/cut queries.

The graph is undirected and simple.  Edge travel time is derived as
length / speed and is the default routing weight; :func:`shortest_path`
also accepts an explicit per-edge weight map.  The public queries speak
ids; their cores :func:`_path` and :func:`_disjoint_paths` speak the
indices that planned routes hold.  All queries are pure functions with
deterministic tie-breaking (lexicographic on edge id), which keeps
simulations replayable.  One heap search, :func:`_dijkstra`, returns
the settling order, distances and predecessors; paths and trace
synthesis read it.  :func:`_block_search` searches a block of sources at
once on arrays, certified to give :func:`_dijkstra`'s distances and
predecessors bit for bit; exact betweenness and the fleet's central node
read it through :func:`_shortest_dags`, one pair of arrays per source,
which falls back to :func:`_dijkstra` for a block the certificate
refuses.  The memo holds no n x n array; a dense one lives for one call.

Files have one reader, :func:`_read_rows`, and one writer,
:func:`_write_rows`: UTF-8, ``"\n"`` line ends, a field quoted only when
it holds a comma or a quote.  Floats have two text forms, :func:`_fmt`
for report figures and :func:`_exact` for every float a reader reads back.
"""

from __future__ import annotations

import csv
import functools
import heapq
import io
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

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


def preload(net: "RoadNetwork", entries) -> None:
    """Store values of :func:`memoised` functions computed elsewhere.

    ``entries`` holds ``(fn, args, value)`` triples, ``value`` being what
    ``fn(net, *args)`` returns, as another process or a merge of partial
    results computed it; later calls return that value without computing.
    """
    for fn, args, value in entries:
        net._cache[(fn.__module__, fn.__qualname__) + args] = value


class RoadNetwork:
    """Validated, immutable undirected road graph.

    Construction checks the structural invariants (ids without line breaks
    or surrounding whitespace, simple graph, positive lengths, speeds and
    travel times, endpoints present, connectivity); afterwards the object
    is safe for concurrent read access.  Derived quantities are memoised
    per network by :func:`memoised`.
    """

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge],
                 require_connected: bool = True,
                 places: tuple[Sequence[str], Sequence[str], str] | None = None):
        """``places``, for a network read from files, holds each node's and
        each edge's ``file:line`` in the order given, and the edges file;
        an error then begins with the place of the row it refuses."""
        node_places, edge_places, graph_place = places or ((), (), "")

        def refuse(place: str, message: str) -> ValidationError:
            return ValidationError(f"{place}: {message}" if place else message)

        node_map: dict[str, Node] = {}
        for node, place in itertools.zip_longest(nodes, node_places, fillvalue=""):
            if _breaks_line(node.node_id):
                raise refuse(place, f"node id {node.node_id!r} holds a line break")
            if _pads(node.node_id):
                raise refuse(place, f"node id {node.node_id!r} has leading or trailing whitespace")
            if node.node_id in node_map:
                raise refuse(place, f"duplicate node id {node.node_id!r}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise refuse(place, f"node {node.node_id!r} has non-finite coordinates")
            node_map[node.node_id] = node

        edge_map: dict[str, Edge] = {}
        seen_pairs: dict[tuple[str, str], str] = {}
        for edge, place in itertools.zip_longest(edges, edge_places, fillvalue=""):
            if _breaks_line(edge.edge_id):
                raise refuse(place, f"edge id {edge.edge_id!r} holds a line break")
            if _pads(edge.edge_id):
                raise refuse(place, f"edge id {edge.edge_id!r} has leading or trailing whitespace")
            if edge.edge_id in edge_map:
                raise refuse(place, f"duplicate edge id {edge.edge_id!r}")
            if edge.u == edge.v:
                raise refuse(place, f"edge {edge.edge_id!r} is a self-loop on {edge.u!r}")
            for endpoint in (edge.u, edge.v):
                if endpoint not in node_map:
                    raise refuse(place,
                                 f"edge {edge.edge_id!r} references unknown node {endpoint!r}")
            pair = (edge.u, edge.v) if edge.u < edge.v else (edge.v, edge.u)
            if pair in seen_pairs:
                raise refuse(place, f"edges {seen_pairs[pair]!r} and {edge.edge_id!r} "
                                    f"duplicate pair {pair}")
            seen_pairs[pair] = edge.edge_id
            for name, value in (("length_m", edge.length_m), ("speed_mps", edge.speed_mps)):
                if not (value > 0 and math.isfinite(value)):
                    raise refuse(place, f"edge {edge.edge_id!r} {name} must be finite and > 0, "
                                        f"got {value!r}")
            time_s = edge.travel_time_s
            if not (time_s > 0 and math.isfinite(time_s)):
                raise refuse(place, f"edge {edge.edge_id!r} travel time length_m / speed_mps "
                                    f"must be finite and > 0, got {time_s!r}")
            edge_map[edge.edge_id] = edge

        self.nodes: dict[str, Node] = node_map
        self.edges: dict[str, Edge] = edge_map
        self.node_ids: tuple[str, ...] = tuple(sorted(node_map))
        self.edge_ids: tuple[str, ...] = tuple(sorted(edge_map))

        # the integer view every search walks: nodes and edges numbered in
        # id order, so index order breaks ties as id order does
        self.node_index: dict[str, int] = {v: i for i, v in enumerate(self.node_ids)}
        self.edge_index: dict[str, int] = {e: k for k, e in enumerate(self.edge_ids)}
        # edge k's (u, v) endpoint indices, and node i's (neighbour index,
        # edge index) pairs in edge-index order
        self.ends: tuple[tuple[int, int], ...] = tuple(
            (self.node_index[edge_map[e].u], self.node_index[edge_map[e].v])
            for e in self.edge_ids)
        links: list[list[tuple[int, int]]] = [[] for _ in self.node_ids]
        for k, (i, j) in enumerate(self.ends):
            links[i].append((j, k))
            links[j].append((i, k))
        self.links: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, links))
        self.travel: tuple[float, ...] = tuple(
            edge_map[eid].travel_time_s for eid in self.edge_ids)

        if require_connected and not self._is_connected():
            raise refuse(graph_place, "graph is not connected")

        self._cache: dict = {}

    # -- basic queries ---------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, node_id: str) -> int:
        return len(self.links[self.node_index[node_id]])

    def _is_connected(self) -> bool:
        if not self.nodes:
            return True
        seen = {0}
        frontier = [0]
        while frontier:
            for v, _ in self.links[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == self.num_nodes


# -- file formats --------------------------------------------------------


def _breaks_line(text: str) -> bool:
    """Whether ``text`` holds a line break, which no written field may:
    the writer leaves a ``"\r"`` unquoted and the reader splits there."""
    return "\r" in text or "\n" in text


def _pads(text: str) -> bool:
    """Whether ``text`` has leading or trailing whitespace, which the reader strips."""
    return text != text.strip()


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
    # each row's first line, taken before zip (left to right) reads the row
    starts = iter(lambda: reader.line_num + 1, None)
    for lineno, row in zip(starts, reader):
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


def _fmt(x: float) -> str:
    """``x`` in nine significant digits, the form of report figures."""
    return f"{x:.9g}"


def _exact(x: float) -> str:
    """``x`` as text ``float`` reads back exactly: :func:`_fmt`'s digits, else ``repr``."""
    text = _fmt(x)
    return text if float(text) == x else repr(x)


def _write_rows(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as the CSV file :func:`_read_rows` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_network(nodes_file, edges_file) -> RoadNetwork:
    """Load and validate a network from node and edge files.

    A pure function of the file bytes: identical files produce identical
    in-memory structures.
    """
    nodes, node_places = [], []
    for lineno, row in _read_rows(nodes_file, NODES_HEADER):
        node_id, x_raw, y_raw = row
        if not node_id:
            raise ParseError(f"{nodes_file}:{lineno}: empty node_id")
        nodes.append(Node(node_id,
                          _parse_float(nodes_file, lineno, "x", x_raw),
                          _parse_float(nodes_file, lineno, "y", y_raw)))
        node_places.append(f"{nodes_file}:{lineno}")
    if not nodes:
        raise ParseError(f"{nodes_file}: no node rows")
    edges, edge_places = [], []
    for lineno, row in _read_rows(edges_file, EDGES_HEADER):
        edge_id, u, v, length_raw, speed_raw = row
        if not edge_id:
            raise ParseError(f"{edges_file}:{lineno}: empty edge_id")
        edges.append(Edge(edge_id, u, v,
                          _parse_float(edges_file, lineno, "length_m", length_raw),
                          _parse_float(edges_file, lineno, "speed_mps", speed_raw)))
        edge_places.append(f"{edges_file}:{lineno}")
    return RoadNetwork(nodes, edges, require_connected=True,
                       places=(node_places, edge_places, str(edges_file)))


def save_network(net: RoadNetwork, nodes_file, edges_file) -> None:
    """Write a network in the format :func:`load_network` reads, through
    :func:`_write_rows`: ids quoted when they hold a comma or a quote, and
    floats in :func:`_exact`'s form, so save then load is lossless."""
    _write_rows(nodes_file, NODES_HEADER,
                ((node.node_id, _exact(node.x), _exact(node.y))
                 for node in map(net.nodes.get, net.node_ids)))
    _write_rows(edges_file, EDGES_HEADER,
                ((e.edge_id, e.u, e.v, _exact(e.length_m), _exact(e.speed_mps))
                 for e in map(net.edges.get, net.edge_ids)))


# -- shortest paths ------------------------------------------------------


def _check_weights(net: RoadNetwork, weights: Mapping[str, float]) -> list[float]:
    """The weights in edge-index order, each checked finite and >= 0."""
    ordered = []
    for eid in net.edge_ids:
        w = weights.get(eid)
        if w is None:
            raise DomainError(f"weight map missing edge {eid!r}")
        if not (w >= 0 and math.isfinite(w)):
            raise DomainError(f"weight for edge {eid!r} must be finite and >= 0")
        ordered.append(w)
    return ordered


def _dijkstra(net: RoadNetwork, source: int, weights: Sequence[float], floor: float = 0.0,
              stop: int = -1) -> tuple[list[int], list[float], list[list[tuple[int, int]]]]:
    """Single-source shortest paths over node indices as (settled order,
    distance, predecessors) per node index.

    Edge k costs ``weights[k]`` raised to at least ``floor``; the order
    lists nodes by nondecreasing distance, and a node that no finite
    distance reaches stays at ``math.inf`` with no predecessors.  A
    predecessor of ``w`` is a pair ``(v, k)``, in settling order of ``v``,
    with ``v`` settled before ``w`` and ``dist[v] + cost(k) == dist[w]``
    (Brandes 2001).  Those lists are final once ``w`` settles, so the
    search may end as soon as node ``stop`` settles; a node not settled
    by then holds an upper bound.
    """
    links = net.links
    n = net.num_nodes
    dist = [math.inf] * n
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    done = [False] * n
    dist[source] = 0.0
    order: list[int] = []
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        order.append(u)
        if u == stop:
            break
        for v, e in links[u]:
            if done[v]:
                continue
            w = weights[e]
            nd = d + (w if w > floor else floor)
            if nd < dist[v]:
                dist[v], preds[v] = nd, [(u, e)]
                heapq.heappush(heap, (nd, v))
            elif nd == dist[v] < math.inf:
                preds[v].append((u, e))
    return order, dist, preds


# sources per array search: a block's distance rows and DAG edges take
# 0.5 MB on 512 nodes and 2 MB on 2,048, and its search peaks at 1.7 and
# 6.9 MB, while larger blocks save little time
_BLOCK = 64


@memoised
def _link_arrays(net: RoadNetwork) -> tuple[np.ndarray, ...]:
    """The links as arrays, grouped by node in index order: each node's
    offset, each link i -> j's head j, travel time and directed edge
    index d (``2k`` when i is edge k's first end, ``2k + 1`` otherwise),
    each node's smallest link time (inf without links), and the tail and
    head of each directed edge index."""
    degree = [len(row) for row in net.links]
    offsets = np.zeros(net.num_nodes + 1, np.int64)
    np.cumsum(degree, out=offsets[1:])
    tail = np.repeat(np.arange(net.num_nodes), degree)
    head = np.fromiter((j for row in net.links for j, _ in row), np.int64, len(tail))
    edge = np.fromiter((k for row in net.links for _, k in row), np.int64, len(tail))
    time = np.array(net.travel, float)[edge]
    ends = np.array(net.ends, np.int64).reshape(-1, 2)
    direction = (2 * edge + (tail != ends[edge, 0])).astype(np.int32)
    smallest = np.full(net.num_nodes, math.inf)
    np.minimum.at(smallest, tail, time)
    return offsets, head, time, direction, smallest, ends.reshape(-1), ends[:, ::-1].reshape(-1)


def _block_search(net: RoadNetwork, sources: Sequence[int]):
    """Shortest paths from every source of a block at once, on arrays:
    ``(dist, dirs, bounds)``, the (sources x nodes) distance rows and the
    directed edges of every source's shortest-path DAG, source i's in
    ``dirs[bounds[i]:bounds[i + 1]]`` sorted by the window that settled
    their heads; None where the certificate fails.

    Each window settles, in every row, the reached open nodes v whose
    distance is below the row's smallest open one plus v's smallest link
    time, as nothing still open can lower it (the IN-criterion of
    Crauser, Mehlhorn, Meyer & Sanders 1998).  The settled nodes' links
    relax their neighbours, and a settled node's DAG edges are its links
    with ``dist[tail] + time == dist[head]``.  Rounding is monotone, so
    every later candidate ``fl(d + t)`` is at least ``fl(row minimum +
    smallest time)``: each distance is the min over the float sums
    :func:`_dijkstra` forms, and only a tail settled in an earlier window
    meets the equality.  The certificate asks that every link time be
    finite and > 0, that every window settle a node in each unfinished
    row and the search reach every node, and that every smallest link
    time exceed ``np.spacing`` of the largest distance, so that each
    tight link adds to its tail's distance.  Then the distances are
    :func:`_dijkstra`'s bit for bit, the DAG edges are its predecessors,
    and window order is a topological order.
    """
    offsets, head, time, direction, smallest, _, _ = _link_arrays(net)
    if not (np.isfinite(time).all() and (time > 0).all()):
        return None
    b, n = len(sources), net.num_nodes
    dist = np.full((b, n), math.inf)
    flat = dist.reshape(-1)
    frontier = np.arange(b) * n + sources  # reached open nodes, as flat indices
    flat[frontier] = 0.0
    rows, dirs = [], []
    with np.errstate(over="ignore"):  # a sum past the float range is inf, as in _dijkstra
        while len(frontier):
            d = flat[frontier]
            row, node = np.divmod(frontier, n)
            low = np.full(b, math.inf)
            np.minimum.at(low, row, d)
            settle = d < low[row] + smallest[node]
            if not np.array_equal(np.bincount(row[settle], minlength=b) > 0, low < math.inf):
                return None
            frontier, row, node, d = frontier[~settle], row[settle], node[settle], d[settle]
            # every link of every settled node, and the flat index ``at`` of its other end
            count = offsets[node + 1] - offsets[node]
            last = np.cumsum(count)
            link = np.arange(last[-1]) + np.repeat(offsets[node] - last + count, count)
            link_row = np.repeat(row, count)
            at = link_row * n + head[link]
            t, link_d, current = time[link], np.repeat(d, count), flat[at]
            tight = current + t == link_d
            rows.append(link_row[tight].astype(np.int32))
            dirs.append(direction[link[tight]] ^ 1)
            candidate = link_d + t
            better = candidate < current
            at, candidate, current = at[better], candidate[better], current[better]
            np.minimum.at(flat, at, candidate)
            fresh = np.sort(at[current == math.inf])
            first = np.ones(len(fresh), bool)
            np.not_equal(fresh[1:], fresh[:-1], out=first[1:])
            frontier = np.concatenate((frontier, fresh[first]))
    top = dist.max()
    if top == math.inf or not smallest.min() > np.spacing(top):
        return None
    rows = np.concatenate(rows)
    bounds = np.zeros(b + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=b), out=bounds[1:])
    return dist, np.concatenate(dirs)[np.argsort(rows, kind="stable")], bounds


def _shortest_dags(net: RoadNetwork, sources: Sequence[int]):
    """Per source in turn: ``(dist, dirs)``, its distance row (float64)
    and its shortest-path DAG's directed edge indices (int32, see
    :func:`_link_arrays`), in an order where every edge into a node
    precedes every edge out.

    Sources run :data:`_BLOCK` at a time through :func:`_block_search`;
    a block it does not certify runs :func:`_dijkstra` per source.
    """
    for start in range(0, len(sources), _BLOCK):
        yield from _block_dags(net, sources[start:start + _BLOCK])


def _block_dags(net: RoadNetwork, block: Sequence[int]):
    """:func:`_shortest_dags` of one block; its arrays go when it ends."""
    searched = _block_search(net, block)
    if searched is None:
        for s in block:
            order, dist, preds = _dijkstra(net, s, net.travel)
            dirs = [2 * e + (v != net.ends[e][0]) for w in order for v, e in preds[w]]
            yield np.array(dist), np.array(dirs, np.int32)
        return
    dist, dirs, bounds = searched
    yield from zip(dist, np.split(dirs, bounds[1:-1]))


def _path(net: RoadNetwork, src: int, dst: int, weights: Sequence[float]) -> list[int]:
    """:func:`shortest_path` on indices: weights in edge order, edge indices out."""
    _, dist_to_dst, preds = _dijkstra(net, dst, weights, _WEIGHT_FLOOR, stop=src)
    if dist_to_dst[src] == math.inf:
        raise DomainError(f"no finite-weight path between {net.node_ids[src]!r} "
                          f"and {net.node_ids[dst]!r}")
    path: list[int] = []
    # each step moves to a node settled earlier, ending at dst; edge
    # indices run in id order, so the smallest one is the lexicographic pick
    while preds[src]:
        e, src = min((e, v) for v, e in preds[src])
        path.append(e)
    return path


@memoised
def _travel_path(net: RoadNetwork, src: int, dst: int) -> tuple[int, ...]:
    """:func:`_path` over travel times, found once per network and index pair."""
    return tuple(_path(net, src, dst, net.travel))


def shortest_path(net: RoadNetwork, src: str, dst: str,
                  weights: Mapping[str, float] | None = None) -> tuple[list[str], float]:
    """Minimum-weight path from src to dst as (edge id list, total weight).

    Among equal-weight paths the lexicographically smallest edge-id
    sequence is returned.  Weights default to travel times.  Raises
    DomainError when no path's total stays within the float range.
    """
    for node in (src, dst):
        if node not in net.nodes:
            raise DomainError(f"unknown node {node!r}")
    a, b = net.node_index[src], net.node_index[dst]
    if weights is None:
        weights, path = net.travel, _travel_path(net, a, b)
    else:
        weights = _check_weights(net, weights)
        path = _path(net, a, b, weights)
    # added left to right in walking order; the builtin sum() may compensate
    total = functools.reduce(lambda acc, e: acc + float(weights[e]), path, 0.0)
    return [net.edge_ids[e] for e in path], total


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
    return [[net.edge_ids[e] for e in path]
            for path in _disjoint_paths(net, net.node_index[src], net.node_index[dst])]


def _disjoint_paths(net: RoadNetwork, source: int, target: int) -> list[list[int]]:
    """:func:`edge_disjoint_paths` between distinct node indices, in edge indices."""
    links = net.links
    # tail[k] is the node edge k carries a unit of flow away from, or -1;
    # a unit against the flow cancels it, so one edge never carries two
    tail = [-1] * net.num_edges

    while True:
        pred: list[tuple[int, int] | None] = [None] * net.num_nodes
        seen = [False] * net.num_nodes
        seen[source] = True
        queue = deque([source])
        while queue and not seen[target]:
            u = queue.popleft()
            for v, e in links[u]:
                if not seen[v] and tail[e] != u:
                    seen[v] = True
                    pred[v] = (u, e)
                    queue.append(v)
        if not seen[target]:
            break
        node = target
        while node != source:
            u, e = pred[node]
            tail[e] = -1 if tail[e] == node else u
            node = u

    # decompose into paths, consuming flow arcs smallest-edge-index first
    paths: list[list[int]] = []
    out_flow = sum(1 for _, e in links[source] if tail[e] == source)
    for _ in range(out_flow):
        path: list[int] = []
        u = source
        while u != target:  # each step consumes an arc, so the walk ends
            for v, e in links[u]:
                if tail[e] == u:
                    tail[e] = -1
                    path.append(e)
                    u = v
                    break
            else:
                raise DomainError("flow decomposition failed (conservation violated)")
        paths.append(path)
    return paths


# -- conductance ----------------------------------------------------------


def _cut_ratio(cut: int, vol: int, two_m: int) -> float:
    """Conductance from counts: a side's cut over the smaller of its volume
    and the rest's, 0 when that is 0."""
    smaller = min(vol, two_m - vol)
    return cut / smaller if smaller else 0.0


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

    inside = [node in part_set for node in net.node_ids]
    cut = sum(inside[i] != inside[j] for i, j in net.ends)
    vol = sum(inside[i] + inside[j] for i, j in net.ends)
    return _cut_ratio(cut, vol, 2 * net.num_edges)
