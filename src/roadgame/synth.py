"""Job-card ingestion, distance-preserving trace synthesis, city generators.

Synthetic traces re-site a base fleet onto a target city: the warehouse
moves to a uniformly random target node and each subsequent stop is drawn
among nodes whose travel time from the previous synthetic stop matches
the base leg within a relative tolerance (doubled up to four times when
no candidate exists).  Window sizes and start times are copied verbatim.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, ParseError, ValidationError
from .network import (Edge, Node, RoadNetwork, _dijkstra, _parse_float, _read_rows,
                      _shortest_dags, shortest_path)
from .rng import substream
from .simulate import JobCard, Stop

JOBCARDS_HEADER = ("courier_id", "seq", "node_id", "window_start_s", "window_end_s")
AUDIT_HEADER = ("courier_id", "seq", "base_leg_s", "synth_leg_s", "tolerance_used")

_MAX_TOLERANCE_DOUBLINGS = 4
_DEFAULT_SPEED_MPS = 10.0
_MAX_CANDIDATES = 64  # nearest-time target nodes one synthetic leg draws from


@dataclass(frozen=True)
class TraceTolerance:
    relative_tolerance: float = 0.10

    def __post_init__(self):
        if not 0 < self.relative_tolerance < 1:
            raise ValidationError("relative_tolerance must be in (0, 1)")


@dataclass(frozen=True)
class LegAudit:
    courier_id: str
    seq: int
    base_leg_s: float
    synth_leg_s: float
    tolerance_used: float


# -- job-card files ----------------------------------------------------------


def parse_jobcards(path) -> list[JobCard]:
    """Parse a job-card file; cards are returned sorted by courier id.

    Row seq 0 names the warehouse; its window fields are normally empty,
    but a nonempty window_start_s there is taken as the courier's day
    start.  Stops are ordered by their seq number regardless of file
    order.  Node ids are not resolved here -- cards stay plain data until
    they meet a network.
    """
    rows_by_courier: dict[str, list[tuple[int, int, str, str, str]]] = {}
    for lineno, (courier, seq_raw, node_id, ws_raw, we_raw) in _read_rows(path, JOBCARDS_HEADER):
        try:
            seq = int(seq_raw)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: invalid seq {seq_raw!r}") from None
        rows_by_courier.setdefault(courier, []).append(
            (seq, lineno, node_id, ws_raw, we_raw))

    cards = []
    for courier in sorted(rows_by_courier):
        rows = sorted(rows_by_courier[courier])
        seq, warehouse_lineno, warehouse, day_start_raw, _ = rows[0]
        where = f"{path}:{warehouse_lineno}: courier {courier!r}"
        if seq != 0:
            raise ValidationError(f"{where}: missing warehouse row (seq 0)")
        for (seq, lineno, *_), (previous, *_) in zip(rows[1:], rows):
            if seq == previous:
                raise ValidationError(f"{path}:{lineno}: courier {courier!r}: duplicate seq {seq}")
        day_start = _parse_float(path, warehouse_lineno, "window_start_s", day_start_raw,
                                 f"invalid day start {day_start_raw!r}") if day_start_raw else 0.0
        stops = []
        for seq, lineno, node_id, ws_raw, we_raw in rows[1:]:
            ws = _parse_float(path, lineno, "window_start_s", ws_raw, "invalid window bounds")
            we = _parse_float(path, lineno, "window_end_s", we_raw, "invalid window bounds")
            if ws >= we:
                raise ValidationError(f"{path}:{lineno}: courier {courier!r} seq {seq}: "
                                      f"window start {ws:g} >= end {we:g}")
            stops.append(Stop(node_id, ws, we))
        if not stops:
            raise ValidationError(f"{where}: no delivery stops")
        cards.append(JobCard(courier, warehouse, tuple(stops), day_start))
    return cards


def check_cards_on_network(cards: Sequence[JobCard], net: RoadNetwork, path) -> None:
    """Raise ValidationError naming the cards file ``path`` and the courier
    when a card's warehouse or a stop is not a node of ``net``."""
    for card in cards:
        for node in (card.warehouse, *(stop.node_id for stop in card.stops)):
            if node not in net.nodes:
                raise ValidationError(f"{path}: courier {card.courier_id!r}: "
                                      f"job card stop {node!r} is not in the network")


def write_jobcards(fleet: Sequence[JobCard], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(JOBCARDS_HEADER)
        for card in sorted(fleet, key=lambda c: c.courier_id):
            day_start = f"{card.day_start_s:.9g}" if card.day_start_s else ""
            writer.writerow([card.courier_id, 0, card.warehouse, day_start, ""])
            for seq, stop in enumerate(card.stops, start=1):
                writer.writerow([card.courier_id, seq, stop.node_id,
                                 f"{stop.window_start_s:.9g}", f"{stop.window_end_s:.9g}"])


def write_leg_audit(audits: Sequence[LegAudit], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(AUDIT_HEADER)
        for audit in audits:
            writer.writerow([audit.courier_id, audit.seq, f"{audit.base_leg_s:.9g}",
                             f"{audit.synth_leg_s:.9g}", f"{audit.tolerance_used:.9g}"])


# -- distance-preserving trace synthesis --------------------------------------


def synthesize_traces(base_cards: Sequence[JobCard], base_net: RoadNetwork,
                      target_net: RoadNetwork, tol: TraceTolerance = TraceTolerance(),
                      seed: int = 0) -> tuple[list[JobCard], list[LegAudit]]:
    """Re-site base cards onto the target network, preserving leg travel times.

    Returns the synthetic cards plus a per-leg audit recording base and
    synthetic leg times and the tolerance finally used (after widening).
    """
    target_nodes = target_net.node_ids
    cards: list[JobCard] = []
    audits: list[LegAudit] = []

    for card in sorted(base_cards, key=lambda c: c.courier_id):
        rng = substream(seed, "synth", card.courier_id)
        base_points = [card.warehouse] + [s.node_id for s in card.stops]
        base_leg_times = []
        for a, b in zip(base_points, base_points[1:]):
            _, leg_time = shortest_path(base_net, a, b)
            base_leg_times.append(leg_time)

        synth_points = [target_nodes[int(rng.integers(len(target_nodes)))]]
        for seq, base_time in enumerate(base_leg_times, start=1):
            _, dist, _ = _dijkstra(target_net, target_net.node_index[synth_points[-1]],
                                   target_net.travel)
            tol_used = tol.relative_tolerance
            candidates: list[int] = []
            for _ in range(_MAX_TOLERANCE_DOUBLINGS + 1):
                slack = tol_used * base_time
                candidates = [v for v, d in enumerate(dist) if abs(d - base_time) <= slack]
                if candidates:
                    break
                tol_used *= 2
            if not candidates:
                raise DomainError(
                    f"courier {card.courier_id!r} leg {seq}: no target node within "
                    f"{tol_used / 2:.3f} relative tolerance of {base_time:.1f} s")
            candidates.sort(key=lambda v: (abs(dist[v] - base_time), v))
            candidates = candidates[:_MAX_CANDIDATES]
            choice = candidates[int(rng.integers(len(candidates)))]
            synth_points.append(target_nodes[choice])
            audits.append(LegAudit(card.courier_id, seq, base_time, dist[choice], tol_used))

        stops = tuple(Stop(node, s.window_start_s, s.window_end_s)
                      for node, s in zip(synth_points[1:], card.stops))
        cards.append(JobCard(card.courier_id, synth_points[0], stops, card.day_start_s))
    return cards, audits


# -- synthetic city generators -------------------------------------------------


def _near_square(size: int) -> tuple[int, int]:
    rows = int(math.isqrt(size))
    while rows > 1 and size % rows != 0:
        rows -= 1
    return rows, size // rows


def _grid_block(prefix: str, rows: int, cols: int, edge_time_s: float,
                x0: float, speed: float) -> tuple[list[Node], list[Edge]]:
    spacing = edge_time_s * speed
    nodes = [Node(f"{prefix}{r:02d}x{c:02d}", x0 + c * spacing, r * spacing)
             for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append(Edge(f"{prefix}h{r:02d}x{c:02d}",
                                  f"{prefix}{r:02d}x{c:02d}", f"{prefix}{r:02d}x{c + 1:02d}",
                                  edge_time_s * speed, speed))
            if r + 1 < rows:
                edges.append(Edge(f"{prefix}v{r:02d}x{c:02d}",
                                  f"{prefix}{r:02d}x{c:02d}", f"{prefix}{r + 1:02d}x{c:02d}",
                                  edge_time_s * speed, speed))
    return nodes, edges


def _generate_grid(rows: int, cols: int, edge_time_s: float = 60.0) -> RoadNetwork:
    if rows < 2 or cols < 2:
        raise DomainError("grid needs rows >= 2 and cols >= 2")
    nodes, edges = _grid_block("n", rows, cols, edge_time_s, 0.0, _DEFAULT_SPEED_MPS)
    return RoadNetwork(nodes, edges)


def _generate_geometric(n: int, radius_m: float, side_m: float = 1000.0,
                        seed: int = 0, max_retries: int = 100) -> RoadNetwork:
    for name, value in (("radius_m", radius_m), ("side_m", side_m)):
        if not math.isfinite(value):
            raise DomainError(f"geometric city needs a finite {name}, got {value!r}")
    if n < 2 or radius_m <= 0 or side_m <= 0:
        raise DomainError("geometric city needs n >= 2, radius > 0 and side > 0")
    for attempt in range(max_retries):
        rng = substream(seed, "geo", attempt)
        xs = rng.random(n) * side_m
        ys = rng.random(n) * side_m
        nodes = [Node(f"g{i:04d}", float(xs[i]), float(ys[i])) for i in range(n)]
        edges = []
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(xs[i] - xs[j], ys[i] - ys[j])
                if d <= radius_m:
                    edges.append(Edge(f"e{count:05d}", nodes[i].node_id, nodes[j].node_id,
                                      max(d, 1e-6), _DEFAULT_SPEED_MPS))
                    count += 1
        try:
            return RoadNetwork(nodes, edges)
        except ValidationError:
            continue
    raise DomainError(
        f"no connected geometric city after {max_retries} draws; increase radius")


def _generate_two_cluster(size_a: int, size_b: int, bridges: int,
                          edge_time_s: float = 60.0,
                          bridge_time_s: float | None = None,
                          bypass_count: int = 0,
                          bypass_time_s: float | None = None) -> RoadNetwork:
    """Two grid blocks joined by exactly ``bridges`` fast edges.

    Optional bypass edges join outer rows with a much larger travel time;
    they never carry time-shortest routes but give randomised routing
    extra ways across.
    """
    if bridges < 1:
        raise DomainError("at least one bridge is required")
    if bypass_count < 0:
        raise DomainError(f"bypass_count must be >= 0, got {bypass_count}")
    if size_a < 4 or size_b < 4:
        raise DomainError("cluster sizes must be >= 4")
    bridge_time = edge_time_s if bridge_time_s is None else bridge_time_s
    bypass_time = 10 * edge_time_s if bypass_time_s is None else bypass_time_s
    rows_a, cols_a = _near_square(size_a)
    rows_b, cols_b = _near_square(size_b)
    max_rows = min(rows_a, rows_b)
    if bridges + bypass_count > max_rows:
        raise DomainError(
            f"bridges + bypasses must fit the shared interface ({max_rows} rows)")

    speed = _DEFAULT_SPEED_MPS
    nodes_a, edges_a = _grid_block("a", rows_a, cols_a, edge_time_s, 0.0, speed)
    offset = (cols_a + 2) * edge_time_s * speed
    nodes_b, edges_b = _grid_block("b", rows_b, cols_b, edge_time_s, offset, speed)

    # middle-out row order for bridges, outside-in for bypasses
    mid = max_rows // 2
    row_order = sorted(range(max_rows), key=lambda r: (abs(r - mid), r))
    bridge_rows = row_order[:bridges]
    bypass_rows = [r for r in sorted(range(max_rows), key=lambda r: (-abs(r - mid), r))
                   if r not in bridge_rows][:bypass_count]

    extra = []
    for i, r in enumerate(sorted(bridge_rows)):
        extra.append(Edge(f"xbridge{i}", f"a{r:02d}x{cols_a - 1:02d}", f"b{r:02d}x00",
                          bridge_time * speed, speed))
    for i, r in enumerate(sorted(bypass_rows)):
        extra.append(Edge(f"xbypass{i}", f"a{r:02d}x{cols_a - 1:02d}", f"b{r:02d}x00",
                          bypass_time * speed, speed))
    return RoadNetwork(nodes_a + nodes_b, edges_a + edges_b + extra)


def generate_city(kind: str, seed: int = 0, **params) -> RoadNetwork:
    """Desk-scale synthetic city: grid lattice, random geometric, or two-cluster."""
    if kind == "grid":
        return _generate_grid(**params)
    if kind == "geometric":
        return _generate_geometric(seed=seed, **params)
    if kind == "two_cluster":
        return _generate_two_cluster(**params)
    raise DomainError(f"unknown city kind {kind!r}")


# -- convenience fleet generator ----------------------------------------------


def central_node(net: RoadNetwork) -> str:
    """Node minimising total travel time to all others (ties: smallest id).

    Each total is the builtin ``sum`` of the node's distance row, in
    node-index order, as :func:`~roadgame.network._shortest_dags` gives it.
    """
    totals = [sum(dist.tolist()) for dist, _ in _shortest_dags(net, list(range(net.num_nodes)))]
    return net.node_ids[totals.index(min(totals))]


def _stop_pools(net: RoadNetwork, warehouse: str, prefixes: Sequence[str],
                stops_per_card: int) -> list[list[str]]:
    """Per stop i, the nodes other than the warehouse whose id starts with
    prefix i (cycling); DomainError naming a prefix that leaves none."""
    pools = []
    for i in range(stops_per_card):
        prefix = prefixes[i % len(prefixes)]
        pool = [v for v in net.node_ids if v.startswith(prefix) and v != warehouse]
        if not pool:
            raise DomainError(f"no node other than the warehouse {warehouse!r} "
                              f"has an id starting with {prefix!r}")
        pools.append(pool)
    return pools


def make_fleet(net: RoadNetwork, couriers: int, stops_per_card: int,
               slack_s: float, seed: int = 0, day_start_s: float = 0.0,
               warehouse: str | None = None,
               stop_prefixes: Sequence[str] | None = None) -> list[JobCard]:
    """Random fleet whose windows close ``slack_s`` after the clean
    shortest-path arrival, so an unattacked shortest-routing round is
    always on time.

    ``stop_prefixes`` restricts stop i to nodes whose id starts with
    prefix i (cycling), e.g. ("b", "a") alternates districts.
    """
    if couriers < 1 or stops_per_card < 1:
        raise DomainError("need at least one courier and one stop per card")
    if slack_s <= 0:
        raise DomainError("slack must be > 0")
    if warehouse is None:
        warehouse = central_node(net)
    elif warehouse not in net.nodes:
        raise DomainError(f"unknown warehouse node {warehouse!r}")

    # every id starts with ""
    pools = _stop_pools(net, warehouse, stop_prefixes or ("",), stops_per_card)
    cards = []
    for idx in range(couriers):
        courier_id = f"c{idx:03d}"
        rng = substream(seed, "fleet", courier_id)
        stops_nodes = [pools[i][int(rng.integers(len(pools[i])))]
                       for i in range(stops_per_card)]
        clock = day_start_s
        node = warehouse
        stops = []
        for target in stops_nodes:
            _, leg_time = shortest_path(net, node, target)
            clock += leg_time
            if clock + slack_s == clock:
                raise DomainError(f"fleet slack {slack_s!r} s is lost in rounding at "
                                  f"arrival time {clock!r} s; the window would be empty")
            # window opens at the clean arrival: no route ever waits, and
            # scaling the window scales exactly the lateness buffer
            stops.append(Stop(target, clock, clock + slack_s))
            node = target
        cards.append(JobCard(courier_id, warehouse, tuple(stops), day_start_s))
    return cards
