"""Courier routing strategies: job card -> realised route over the network.

A route is a sequence of legs, one per consecutive stop pair
(warehouse -> stops... -> warehouse), each leg an edge-id path.  All
strategies are deterministic given their seed; the caller keys that seed
by (courier, round) so fleet routing is order-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analysis import _min_over_ends, centrality
from .errors import DomainError
from .network import RoadNetwork, edge_disjoint_paths, memoised, shortest_path
from .rng import substream

if TYPE_CHECKING:
    from .simulate import JobCard

DEFENSE_STRATEGIES = ("shortest", "random_walk", "disjoint", "inverse", "mixnet")

# A random walk that has not reached its leg target within this many
# steps per node is abandoned; the tour is then marked failed.
WALK_STEP_CAP_FACTOR = 50


@dataclass(frozen=True)
class RoutePlan:
    """Planned legs for one courier; ``failed_leg`` marks an abandoned walk."""

    strategy: str
    legs: tuple[tuple[str, ...], ...]
    seed: int
    failed_leg: int | None = None


@memoised
def inverse_centrality_scores(net: RoadNetwork) -> dict[str, float]:
    """Per-edge avoidance score blending degree, betweenness and eigenvector.

    For an oriented edge (i, j) the score is the product of node j's
    three centralities over their sum (degree centrality taken as
    deg(j)/|E|); an undirected edge takes the smaller of its two
    orientations, and a zero denominator scores 0.  Pure topology: the
    same network always yields bit-identical scores.
    """
    num_edges = net.num_edges
    betw = centrality(net, "betweenness").node_scores
    eig = centrality(net, "eigenvector").node_scores

    def oriented(j: str) -> float:
        c_deg = net.degree(j) / num_edges
        c_bet = betw[j]
        c_eig = eig[j]
        denom = c_deg + c_bet + c_eig
        if denom == 0:
            return 0.0
        return (c_deg * c_bet * c_eig) / denom

    return _min_over_ends(net, {v: oriented(v) for v in net.node_ids})


def _random_walk_leg(net: RoadNetwork, src: str, dst: str, rng,
                     step_cap: int) -> tuple[str, ...] | None:
    """Uniform walk over incident edges until dst; None when the cap is exceeded."""
    if src == dst:
        return ()
    path: list[int] = []
    node, target = net.node_index[src], net.node_index[dst]
    for _ in range(step_cap):
        incident = net.links[node]
        node, e = incident[int(rng.integers(len(incident)))]
        path.append(e)
        if node == target:
            return tuple(net.edge_ids[e] for e in path)
    return None


def plan_route(net: RoadNetwork, card: "JobCard", strategy: str, seed: int = 0) -> RoutePlan:
    """Route the card's tour with the given defense strategy.

    mixnet draws one fresh uniform(0, 1) score per edge per call, so each
    courier-round gets its own score vector.
    """
    if strategy not in DEFENSE_STRATEGIES:
        raise DomainError(f"unknown defense strategy {strategy!r}")
    points = [card.warehouse] + [stop.node_id for stop in card.stops] + [card.warehouse]
    for node in points:
        if node not in net.nodes:
            raise DomainError(f"job card stop {node!r} is not in the network")

    legs: list[tuple[str, ...]] = []
    failed_leg: int | None = None

    if strategy in ("shortest", "inverse", "mixnet"):
        weights = None
        if strategy == "inverse":
            weights = inverse_centrality_scores(net)
        elif strategy == "mixnet":
            draws = substream(seed, "mixnet-scores").random(net.num_edges)
            weights = dict(zip(net.edge_ids, draws.tolist()))
        for a, b in zip(points, points[1:]):
            path, _ = shortest_path(net, a, b, weights)
            legs.append(tuple(path))
    elif strategy == "disjoint":
        rng = substream(seed, "disjoint-choice")
        for a, b in zip(points, points[1:]):
            if a == b:
                legs.append(())
                continue
            options = edge_disjoint_paths(net, a, b)
            choice = options[int(rng.integers(len(options)))]
            legs.append(tuple(choice))
    else:  # random_walk
        rng = substream(seed, "random-walk")
        step_cap = WALK_STEP_CAP_FACTOR * net.num_nodes
        for i, (a, b) in enumerate(zip(points, points[1:])):
            leg = _random_walk_leg(net, a, b, rng, step_cap)
            if leg is None:
                failed_leg = i
                break
            legs.append(leg)

    return RoutePlan(strategy=strategy, legs=tuple(legs), seed=seed, failed_leg=failed_leg)
