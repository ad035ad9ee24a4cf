"""Courier routing strategies: job card -> realised route over the network.

A route is a sequence of legs, one per consecutive stop pair
(warehouse -> stops... -> warehouse), each leg a tuple of edge indices.
All strategies are deterministic given their seed; the caller keys that
seed by (courier, round) so fleet routing is order-insensitive, and legs
that no seed changes are found once per network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .analysis import _betweenness_scores, _eigenvector_scores, _min_over_ends
from .errors import DomainError
from .network import RoadNetwork, _disjoint_paths, _path, _travel_path, memoised
from .rng import substream

if TYPE_CHECKING:
    from .simulate import JobCard

DEFENSE_STRATEGIES = ("shortest", "random_walk", "disjoint", "inverse", "mixnet")

# A random walk that has not reached its leg target within this many
# steps per node is abandoned; the tour is then marked failed.
WALK_STEP_CAP_FACTOR = 50


@dataclass(frozen=True)
class RoutePlan:
    """Planned legs for one courier, each a tuple of edge indices into
    ``net.edge_ids``; ``failed_leg`` marks an abandoned walk."""

    strategy: str
    legs: tuple[tuple[int, ...], ...]
    seed: int
    failed_leg: int | None = None


def inverse_centrality_scores(net: RoadNetwork) -> dict[str, float]:
    """Per-edge avoidance score blending degree, betweenness and eigenvector.

    For an oriented edge (i, j) the score is the product of node j's
    three centralities over their sum (degree centrality taken as
    deg(j)/|E|); an undirected edge takes the smaller of its two
    orientations, and a zero denominator scores 0.  Pure topology: the
    same network always yields bit-identical scores.
    """
    return dict(zip(net.edge_ids, _inverse_weights(net)))


@memoised
def _inverse_weights(net: RoadNetwork) -> list[float]:
    """:func:`inverse_centrality_scores` in edge-index order."""
    betw = _betweenness_scores(net)[0]
    eig = _eigenvector_scores(net)

    def oriented(j: int) -> float:
        # an edgeless network is one node, of degree 0 and with no edge to score
        c_deg = len(net.links[j]) / max(net.num_edges, 1)
        denom = c_deg + betw[j] + eig[j]
        if denom == 0:
            return 0.0
        return (c_deg * betw[j] * eig[j]) / denom

    return _min_over_ends(net, [oriented(j) for j in range(net.num_nodes)])


@memoised
def _seed_free_leg(net: RoadNetwork, strategy: str, a: int, b: int) -> tuple:
    """What no seed changes, as edge indices: the shortest or inverse leg
    from node index a to b, or for disjoint the tuple of options between them."""
    if strategy == "disjoint":
        return tuple(map(tuple, _disjoint_paths(net, a, b)))
    if strategy == "inverse":
        return tuple(_path(net, a, b, _inverse_weights(net)))
    return _travel_path(net, a, b)


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

    nodes = [net.node_index[node] for node in points]
    pairs = list(zip(nodes, nodes[1:]))
    legs: list[tuple[int, ...]] = []
    failed_leg: int | None = None

    if strategy in ("shortest", "inverse"):
        legs = [_seed_free_leg(net, strategy, a, b) for a, b in pairs]
    elif strategy == "mixnet":
        weights = substream(seed, "mixnet-scores").random(net.num_edges).tolist()
        legs = [tuple(_path(net, a, b, weights)) for a, b in pairs]
    elif strategy == "disjoint":
        rng = substream(seed, "disjoint-choice")
        for a, b in pairs:
            if a == b:
                legs.append(())
                continue
            options = _seed_free_leg(net, strategy, a, b)
            legs.append(options[int(rng.integers(len(options)))])
    else:  # random_walk: uniform steps over incident edges, abandoned at the cap
        rng = substream(seed, "random-walk")
        step_cap = WALK_STEP_CAP_FACTOR * net.num_nodes
        for i, (node, target) in enumerate(pairs):
            path = []
            while node != target and len(path) < step_cap:
                incident = net.links[node]
                node, e = incident[int(rng.integers(len(incident)))]
                path.append(e)
            if node != target:
                failed_leg = i
                break
            legs.append(tuple(path))

    return RoutePlan(strategy=strategy, legs=tuple(legs), seed=seed, failed_leg=failed_leg)
