"""Attack-side edge selection: each named strategy yields a k-edge plan.

Every strategy is realised as a total ranking of the edge set, and a plan
of budget k is the length-k prefix.  This makes plans of growing budget
nested by construction for every graph-derived strategy, which the
nested-sweep mode relies on.  Graph-derived strategies are a pure
function of the topology (round-invariant); only ``random`` consumes the
per-round seed.  Rankings and plans are edge indices into
``net.edge_ids``, built from the analyses' index-order results and read
as indices by the round stage; only :func:`strategy_edge_ranking` and
:func:`write_attack_plan` turn them into edge ids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .analysis import (Partition, _betweenness_scores, _cut_edges, _eigenvector_scores,
                       _min_over_ends, agglomerative_modularity, flow_partition,
                       mixing_partition, spectral_bisect)
from .errors import DomainError
from .network import RoadNetwork, memoised
from .rng import substream

logger = logging.getLogger(__name__)

# strategies that cut the edges between the communities of a partition
PARTITION_STRATEGIES = ("infomap", "botgrep", "greedy_mod", "hierarchical_mod", "eigen_mod")
ATTACK_STRATEGIES = ("random", "degree", "eigen_c", "betweenness") + PARTITION_STRATEGIES

# Graph-derived plans must not change between rounds, so botgrep's k-means
# initialisation runs on a fixed internal seed; the caller's seed drives
# only the `random` baseline.
PARTITION_KMEANS_SEED = 2718


@dataclass(frozen=True)
class AttackPlan:
    """The first k entries of the strategy's ranking, in rank order, as
    edge indices into ``net.edge_ids``; a plan of budget k is therefore a
    literal prefix of any larger budget's plan under the same seed."""

    strategy: str
    edges: tuple[int, ...]
    seed: int

    @property
    def k(self) -> int:
        return len(self.edges)


@memoised
def _partition_for(net: RoadNetwork, strategy: str) -> Partition:
    if strategy == "botgrep":
        return mixing_partition(net, seed=PARTITION_KMEANS_SEED)
    if strategy == "infomap":
        return flow_partition(net)
    if strategy == "greedy_mod":
        return agglomerative_modularity(net, "greedy")
    if strategy == "hierarchical_mod":
        return agglomerative_modularity(net, "hierarchical")
    if strategy == "eigen_mod":
        return spectral_bisect(net)
    raise DomainError(f"{strategy!r} is not a partition-based strategy")


def strategy_edge_ranking(net: RoadNetwork, strategy: str, seed: int = 0) -> list[str]:
    """Full priority order over the network's edges for one strategy, as edge ids."""
    return [net.edge_ids[e] for e in _ranking(net, strategy, seed)]


def _ranking(net: RoadNetwork, strategy: str, seed: int) -> tuple[int, ...]:
    """Full priority order over the network's edges, as edge indices."""
    if strategy not in ATTACK_STRATEGIES:
        raise DomainError(f"unknown attack strategy {strategy!r}")
    if strategy == "random":
        return tuple(substream(seed, "attack-random").permutation(net.num_edges).tolist())
    return _graph_ranking(net, strategy)


@memoised
def _graph_ranking(net: RoadNetwork, strategy: str) -> tuple[int, ...]:
    """Edge indices in a graph-derived strategy's order, a function of the
    topology alone: any cut edges first, then descending score, ties by index."""
    edges = range(net.num_edges)
    if strategy == "degree":
        # nodes in descending degree (index order across equal degrees);
        # each edge sits at its earlier endpoint, edges of one node by index
        first = _min_over_ends(net, [(-len(row), i) for i, row in enumerate(net.links)])
        return tuple(sorted(edges, key=lambda e: (first[e], e)))
    cut: set[int] = set()
    if strategy == "eigen_c":
        score = _min_over_ends(net, _eigenvector_scores(net))
    else:
        score = _betweenness_scores(net)[1]
        if strategy != "betweenness":
            cut = _cut_edges(net, _partition_for(net, strategy))
            if not cut:
                logger.warning("strategy %s found no cutset; plan degenerates to "
                               "betweenness order", strategy)
    return tuple(sorted(edges, key=lambda e: (e not in cut, -score[e], e)))


def select_attack_edges(net: RoadNetwork, strategy: str, k: int, seed: int = 0) -> AttackPlan:
    """Plan of exactly k edges for the strategy, deterministic per seed.

    Partition strategies take their cutset first (highest betweenness
    first) and pad with the highest-betweenness remaining edges when the
    cutset is smaller than k.
    """
    if not net.num_edges:
        raise DomainError("the network has no edges to attack")
    if not 1 <= k <= net.num_edges:
        raise DomainError(f"k must be in [1, {net.num_edges}], got {k}")
    return AttackPlan(strategy=strategy, edges=_ranking(net, strategy, seed)[:k], seed=seed)


def empty_attack_plan(net: RoadNetwork) -> AttackPlan:
    """A no-op plan (zero occupied edges), useful as a clean baseline."""
    return AttackPlan(strategy="none", edges=(), seed=0)


def write_attack_plan(net: RoadNetwork, plan: AttackPlan, path) -> None:
    """The plan's edge ids, sorted, one a line under an ``edge_id`` header."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("edge_id\n")
        for eid in sorted(net.edge_ids[e] for e in plan.edges):
            fh.write(f"{eid}\n")
