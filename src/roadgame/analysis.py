"""Centrality measures and partition/cut detection over road networks.

Betweenness is computed exactly (integer numerators over one common
denominator) over travel-time shortest paths with even splitting among
equal-cost paths.  Partition labels are canonical: communities are
numbered 0..k-1 in order of their smallest node id, so identical
structures compare equal.
"""

from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError
from .network import EdgeSet, RoadNetwork, _dijkstra, conductance, memoised
from .rng import substream

CENTRALITY_KINDS = ("degree", "betweenness", "eigenvector")

_EIGEN_TOL = 1e-10
_EIGEN_MAX_ITER = 10_000
_SPECTRAL_TOL = 1e-9


@dataclass(frozen=True)
class CentralityScores:
    kind: str
    node_scores: dict[str, float]
    edge_scores: dict[str, float]


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to one community, labels contiguous from 0."""

    assignment: dict[str, int]
    num_communities: int

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, int]) -> "Partition":
        if not assignment:
            raise ValidationError("partition must cover at least one node")
        by_label: dict[int, list[str]] = defaultdict(list)
        for node, label in assignment.items():
            by_label[label].append(node)
        # canonical labels: communities ordered by their smallest node id
        ordered = sorted(by_label.values(), key=min)
        canonical = {}
        for new_label, members in enumerate(ordered):
            for node in members:
                canonical[node] = new_label
        return cls(canonical, len(ordered))

    def label(self, node: str) -> int:
        return self.assignment[node]

    def communities(self) -> list[tuple[str, ...]]:
        members: list[list[str]] = [[] for _ in range(self.num_communities)]
        for node, label in self.assignment.items():
            members[label].append(node)
        return [tuple(sorted(group)) for group in members]


def _check_partition(net: RoadNetwork, part: Partition) -> None:
    if set(part.assignment) != set(net.nodes):
        raise DomainError("partition does not cover exactly the network's nodes")


# -- centrality ------------------------------------------------------------


@memoised
def _adjacency_matrix(net: RoadNetwork) -> np.ndarray:
    index = {v: i for i, v in enumerate(net.node_ids)}
    a = np.zeros((net.num_nodes, net.num_nodes))
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        a[i, j] = 1.0
        a[j, i] = 1.0
    return a


def _eigenvector_scores(net: RoadNetwork) -> dict[str, float]:
    """Power iteration on A + I (keeps bipartite graphs convergent)."""
    a = _adjacency_matrix(net)
    n = net.num_nodes
    v = np.ones(n)
    residual = math.inf
    for _ in range(_EIGEN_MAX_ITER):
        av = a @ v
        lam = float(v @ av) / float(v @ v)
        residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
        if residual <= _EIGEN_TOL:
            v = v / v.max()
            return dict(zip(net.node_ids, (float(x) for x in v)))
        v = av + v
        v = v / v.max()
    raise ConvergenceError(
        f"eigenvector power iteration did not converge within {_EIGEN_MAX_ITER} "
        f"iterations (residual {residual:.3e})", residual=residual)


def _betweenness_scores(net: RoadNetwork) -> tuple[dict[str, float], dict[str, float]]:
    """Node and edge betweenness over travel-time shortest paths.

    Equal-cost paths split evenly and the sums are exact, so results
    match brute-force path enumeration.  A predecessor of ``w`` is a
    neighbour ``v`` settled before it with ``dist[v] + tt[e] == dist[w]``.

    Brandes' dependency is ``delta(v) = sigma(v) * c(v) - 1`` with
    ``c(v) = 1/sigma(v) + sum of c(w) over successors w``, and edge
    (v, w) carries ``sigma(v) * c(w)``.  Scaling c by ``L = lcm(sigma)``
    makes every per-source term an integer ``C``; the totals are kept as
    integer numerators over one running denominator ``D``, and each is
    rounded to float once, at the end.
    """
    tt = net.travel_times()
    adjacency = net.adjacency
    node_num: dict[str, int] = {v: 0 for v in net.node_ids}
    edge_num: dict[str, int] = {e: 0 for e in net.edge_ids}
    denom = 1
    for s in net.node_ids:
        order, dist = _dijkstra(net, s, tt)
        sigma: dict[str, int] = {s: 1}
        preds: dict[str, list[tuple[str, str]]] = {s: []}
        for w in order[1:]:
            dw = dist[w]
            preds[w] = [(v, eid) for eid, v in adjacency[w]
                        if v in sigma and dist[v] + tt[eid] == dw]
            sigma[w] = sum(sigma[v] for v, _ in preds[w])
        scale = math.lcm(*sigma.values())
        if denom % scale:
            grow = math.lcm(denom, scale) // denom
            denom *= grow
            for v in node_num:
                node_num[v] *= grow
            for e in edge_num:
                edge_num[e] *= grow
        lift = denom // scale
        c: dict[str, int] = {v: scale // sigma[v] for v in order}
        for w in reversed(order):
            cw = c[w]
            lifted = lift * cw
            for v, eid in preds[w]:
                c[v] += cw
                edge_num[eid] += sigma[v] * lifted
            if w != s:
                node_num[w] += sigma[w] * lifted - denom
    # each unordered pair was counted from both endpoints
    nodes = {v: float(Fraction(x, 2 * denom)) for v, x in node_num.items()}
    edges = {e: float(Fraction(x, 2 * denom)) for e, x in edge_num.items()}
    return nodes, edges


def _min_over_ends(net: RoadNetwork, node_scores: Mapping[str, float]) -> dict[str, float]:
    """Score each edge by the smaller of its two endpoints' scores."""
    return {eid: min(node_scores[net.edges[eid].u], node_scores[net.edges[eid].v])
            for eid in net.edge_ids}


@memoised
def centrality(net: RoadNetwork, kind: str) -> CentralityScores:
    """Deterministic node and edge centrality scores of the given kind.

    Edge scores: betweenness uses true edge betweenness; degree and
    eigenvector use min over the two endpoints (an edge is only as
    central as its less central end).
    """
    if kind not in CENTRALITY_KINDS:
        raise DomainError(f"unknown centrality kind {kind!r}")
    if kind == "betweenness":
        node_scores, edge_scores = _betweenness_scores(net)
    else:
        node_scores = ({v: float(net.degree(v)) for v in net.node_ids} if kind == "degree"
                       else _eigenvector_scores(net))
        edge_scores = _min_over_ends(net, node_scores)
    return CentralityScores(kind, node_scores, edge_scores)


# -- modularity ------------------------------------------------------------


def modularity(net: RoadNetwork, part: Partition) -> float:
    """Newman modularity Q of the partition, in [-1/2, 1]."""
    _check_partition(net, part)
    m = net.num_edges
    if m == 0:
        return 0.0
    intra = [0] * part.num_communities
    degsum = [0] * part.num_communities
    for v in net.node_ids:
        degsum[part.label(v)] += net.degree(v)
    for e in net.edges.values():
        cu, cv = part.label(e.u), part.label(e.v)
        if cu == cv:
            intra[cu] += 1
    q = Fraction(0)
    for c in range(part.num_communities):
        q += Fraction(intra[c], m) - Fraction(degsum[c] * degsum[c], 4 * m * m)
    return float(q)


# -- spectral bisection ------------------------------------------------------


def spectral_bisect(net: RoadNetwork) -> Partition:
    """Two-way split by the sign of the modularity matrix's leading eigenvector.

    When the graph has no community structure to exploit (leading
    eigenvalue <= 0, or a one-signed eigenvector) the whole graph is
    returned as a single community -- the null-cutset case.
    """
    a = _adjacency_matrix(net)
    deg = a.sum(axis=1)
    two_m = float(deg.sum())
    if two_m == 0:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    b = a - np.outer(deg, deg) / two_m
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(b)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"modularity-matrix eigendecomposition failed: {exc}") from exc
    lead = float(eigenvalues[-1])
    vec = eigenvectors[:, -1]
    if lead <= _SPECTRAL_TOL:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    # orient deterministically: largest-magnitude component positive
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    positive = vec > 0.0
    if positive.all() or not positive.any():
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    assignment = {v: (0 if positive[i] else 1) for i, v in enumerate(net.node_ids)}
    return Partition.from_assignment(assignment)


# -- agglomerative community search -------------------------------------------


def _link_counts(net: RoadNetwork) -> list[dict[int, int]]:
    """Edge count between each pair of adjacent nodes, numbered in node-id order."""
    index = {v: i for i, v in enumerate(net.node_ids)}
    links: list[dict[int, int]] = [{} for _ in range(net.num_nodes)]
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        links[i][j] = links[i].get(j, 0) + 1
        links[j][i] = links[j].get(i, 0) + 1
    return links


# A partition cost over community (cut, vol) counts: ``start(cuts, vols)``
# totals the given communities, ``step(total, cut, vol, new_cut, new_vol)``
# is the total once one community's counts change, and a change is taken
# when it changes ``length(total)`` by less than ``tol``.
_Cost = namedtuple("_Cost", "start step length tol")


def _modularity_cost(two_m: int) -> _Cost:
    """4m^2 (1 - Q) as the exact integer 2m*sum(cut) + sum(vol^2).

    A community holds (vol - cut)/2 inner edges, so Q = 1 - sum(cut)/2m
    - sum(vol^2)/4m^2 and every decision compares integers.
    """
    return _Cost(
        start=lambda cuts, vols: two_m * sum(cuts) + sum(v * v for v in vols),
        step=lambda total, cut, vol, new_cut, new_vol: (
            total + two_m * (new_cut - cut) + new_vol * new_vol - vol * vol),
        length=lambda total: total,
        tol=0)


class _CommunitySearch:
    """Communities of a link graph, moved and merged to lower one cost.

    ``links[i]`` counts the edges from node i to each adjacent node and
    ``loops[i]`` the edge ends inside node i (a coarsened community's
    inner edges, counted from both ends).  Every node starts alone, and a
    community, labelled by the index of a node, keeps its count ``cut`` of
    edge ends leaving it, its degree sum ``vol`` and ``between``, its edge
    count to each adjacent community.
    """

    def __init__(self, links: list[dict[int, int]], cost: _Cost,
                 loops: list[int] | None = None):
        self.links = links
        self.ext = [sum(row.values()) for row in links]
        self.deg = [e + own for e, own in zip(self.ext, loops or [0] * len(links))]
        self.comm = list(range(len(links)))
        self.cut = list(self.ext)
        self.vol = list(self.deg)
        self.between = [dict(row) for row in links]
        self.cost = cost
        self.total = cost.start(self.cut, self.vol)

    def _set(self, c: int, new_cut: int, new_vol: int) -> None:
        self.total = self.cost.step(self.total, self.cut[c], self.vol[c], new_cut, new_vol)
        self.cut[c], self.vol[c] = new_cut, new_vol

    def _link(self, a: int, b: int, count: int) -> None:
        """Add ``count`` (possibly negative) edges between communities a and b."""
        count += self.between[a].get(b, 0)
        if count:
            self.between[a][b] = self.between[b][a] = count
        else:
            del self.between[a][b], self.between[b][a]

    def sweep(self) -> bool:
        """Single-node moves until none lowers the cost; True if any node moved.

        Each node goes to the neighbouring community whose move lowers
        the cost most, ties to the smallest label, and stays unless the
        change is below ``tol``.
        """
        step, length, tol = self.cost.step, self.cost.length, self.cost.tol
        comm, cut, vol = self.comm, self.cut, self.vol
        moved = False
        improving = True
        while improving:
            improving = False
            total = self.total
            baseline = length(total)
            for i, (row, ext, deg) in enumerate(zip(self.links, self.ext, self.deg)):
                source = comm[i]
                counts: dict[int, int] = {}
                for j, count in row.items():
                    c = comm[j]
                    counts[c] = counts.get(c, 0) + count
                stay = counts.pop(source, 0)
                if not counts:
                    continue
                leave_cut, leave_vol = cut[source] - ext + 2 * stay, vol[source] - deg
                left = step(total, cut[source], vol[source], leave_cut, leave_vol)
                delta, target = min(
                    (length(step(left, cut[t], vol[t], cut[t] + ext - 2 * count, vol[t] + deg))
                     - baseline, t) for t, count in counts.items())
                if delta >= tol:
                    continue
                self._set(source, leave_cut, leave_vol)
                self._set(target, cut[target] + ext - 2 * counts[target], vol[target] + deg)
                comm[i] = target
                for c, count in counts.items():
                    self._link(source, c, -count)
                    if c != target:
                        self._link(target, c, count)
                if stay:
                    self._link(target, source, stay)
                total = self.total
                baseline = length(total)
                moved = improving = True
        return moved

    def merge_best(self) -> bool:
        """Merge the adjacent pair a < b (b into a) whose merge lowers the
        cost most, ties to the smallest pair; False if no merge lowers it."""
        step, length = self.cost.step, self.cost.length
        cut, vol, total = self.cut, self.vol, self.total
        baseline = length(total)
        delta, a, b = min(
            ((length(step(step(total, cut[a], vol[a], cut[a] + cut[b] - 2 * count,
                                vol[a] + vol[b]), cut[b], vol[b], 0, 0)) - baseline, a, b)
             for a, row in enumerate(self.between) for b, count in row.items() if a < b),
            default=(self.cost.tol, 0, 0))
        if delta >= self.cost.tol:
            return False
        self._set(a, cut[a] + cut[b] - 2 * self.between[a][b], vol[a] + vol[b])
        self._set(b, 0, 0)
        row, self.between[b] = self.between[b], {}
        for c, count in row.items():
            del self.between[c][b]
            if c != a:
                self._link(a, c, count)
        self.comm[:] = [a if c == b else c for c in self.comm]
        return True


def _greedy_merge(net: RoadNetwork) -> Partition:
    """Pairwise community merging, largest modularity gain first
    (Clauset, Newman & Moore 2004), until no merge raises modularity."""
    search = _CommunitySearch(_link_counts(net), _modularity_cost(2 * net.num_edges))
    while search.merge_best():
        pass
    return Partition.from_assignment(dict(zip(net.node_ids, search.comm)))


def _hierarchical_merge(net: RoadNetwork) -> Partition:
    """Multi-level local moves with supernode coarsening (modularity ascent).

    Each level moves nodes while a move raises modularity, then makes
    every community a supernode whose loops are its inner edge ends; the
    level loop ends when a level moves no node.
    """
    cost = _modularity_cost(2 * net.num_edges)
    search = _CommunitySearch(_link_counts(net), cost)
    node_map = list(range(net.num_nodes))  # original node -> current supernode
    while search.sweep():
        relabel = {c: i for i, c in enumerate(sorted(set(search.comm)))}
        node_map = [relabel[search.comm[v]] for v in node_map]
        search = _CommunitySearch(
            [{relabel[d]: count for d, count in search.between[c].items()} for c in relabel],
            cost, [search.vol[c] - search.cut[c] for c in relabel])
    return Partition.from_assignment(dict(zip(net.node_ids, node_map)))


def agglomerative_modularity(net: RoadNetwork, variant: str) -> Partition:
    """Modularity-maximising partition, greedy pair merging or multi-level."""
    if variant == "greedy":
        return _greedy_merge(net)
    if variant == "hierarchical":
        return _hierarchical_merge(net)
    raise DomainError(f"unknown agglomerative variant {variant!r}")


# -- partition cutset --------------------------------------------------------


def partition_cutset(net: RoadNetwork, part: Partition) -> EdgeSet:
    """All edges whose endpoints carry different community labels."""
    _check_partition(net, part)
    cut = [eid for eid in net.edge_ids
           if part.label(net.edges[eid].u) != part.label(net.edges[eid].v)]
    return EdgeSet.for_network(net, cut)


# -- random-walk mixing partition (slow-mixing cut detection) ----------------


@memoised
def mixing_transition_matrix(net: RoadNetwork) -> np.ndarray:
    """Walk kernel with P[i, j] = min(1/d_i, 1/d_j) for adjacent i, j.

    A self-loop absorbs the residual probability so every row sums to 1.
    Rows/columns follow sorted node-id order.
    """
    index = {v: i for i, v in enumerate(net.node_ids)}
    n = net.num_nodes
    p = np.zeros((n, n))
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        prob = min(1.0 / net.degree(e.u), 1.0 / net.degree(e.v))
        p[i, j] = prob
        p[j, i] = prob
    for i in range(n):
        p[i, i] = 1.0 - p[i].sum()
    return p


def _kmeans(features: np.ndarray, num_clusters: int, rng) -> np.ndarray:
    """Plain k-means with seeded init and deterministic tie-breaking."""
    n = features.shape[0]
    centroid_rows = rng.choice(n, size=num_clusters, replace=False)
    centroids = features[np.sort(centroid_rows)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dist = np.stack([np.linalg.norm(features - c, axis=1) for c in centroids], axis=1)
        new_labels = np.argmin(dist, axis=1)
        for c in range(num_clusters):
            mask = new_labels == c
            if mask.any():
                centroids[c] = features[mask].mean(axis=0)
            else:
                # reseed an empty cluster with the point farthest from its centroid
                farthest = int(np.argmax(dist[np.arange(n), new_labels]))
                new_labels[farthest] = c
                centroids[c] = features[farthest]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels


def default_short_walk_len(net: RoadNetwork) -> int:
    return int(math.ceil(math.log2(max(net.num_nodes, 2)))) + 2


def mixing_partition(net: RoadNetwork, seed: int = 0) -> Partition:
    """Partition by clustering short-walk endpoint distributions.

    Short walks under the min-degree kernel stay inside well-mixed
    regions, so endpoint distributions separate across sparse cuts.
    Row i of P^t is the exact endpoint distribution of a t-step walk from
    node i; ``seed`` drives only the k-means initialisation.  Candidate
    clusterings for 2..8 communities are scored by their worst
    per-community conductance and the best candidate wins.
    """
    features = np.linalg.matrix_power(mixing_transition_matrix(net), default_short_walk_len(net))
    n = net.num_nodes

    best: tuple[float, int, Partition] | None = None
    for num_clusters in range(2, min(8, n - 1) + 1):
        labels = _kmeans(features, num_clusters, substream(seed, "mixing-kmeans", num_clusters))
        part = Partition.from_assignment(
            {node: int(labels[i]) for i, node in enumerate(net.node_ids)})
        if part.num_communities < 2:
            continue
        worst = max(conductance(net, group) for group in part.communities())
        key = (worst, part.num_communities)
        if best is None or key < (best[0], best[1]):
            best = (worst, part.num_communities, part)
    if best is None:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    return best[2]


# -- visit-frequency flow partition (map-equation greedy merge) --------------


def _xlogx(value: float) -> float:
    return value * math.log2(value) if value > 0 else 0.0


def map_equation_codelength(net: RoadNetwork, freq: Mapping[str, float],
                            assignment: Mapping[str, int]) -> float:
    """Two-level description length of a partition under visit rates ``freq``.

    A node alpha leaks freq[alpha]/deg(alpha) along each edge whose other
    end lies outside its community; those leaks form the community exit
    probabilities of the two-level code.
    """
    communities: dict[int, list[str]] = defaultdict(list)
    for node, label in assignment.items():
        communities[label].append(node)
    exits: list[float] = []
    modules = 0.0
    for members in communities.values():
        inside = set(members)
        exit_c = 0.0
        for v in members:
            leak = freq[v] / net.degree(v)
            exit_c += leak * sum(1 for _, w in net.adjacency[v] if w not in inside)
        exits.append(exit_c)
        p_circ = exit_c + sum(freq[v] for v in members)
        modules += (_xlogx(p_circ) - _xlogx(exit_c)
                    - sum(_xlogx(freq[v]) for v in members))
    s1 = sum(exits)
    return _xlogx(s1) - 2 * sum(_xlogx(x) for x in exits) + modules


def _codelength_cost(two_m: int) -> _Cost:
    """2m times the map equation's code length, less a partition-independent constant.

    Under the stationary rates deg/2m every node leaks 1/2m along each
    edge, so a community's exit probability is its ``cut`` over 2m and
    its visit total its ``vol`` over 2m.  The total is (Q, S2, M) with
    Q = sum cut, S2 = sum cut*log2(cut) and M = sum of
    (cut+vol)*log2(cut+vol) - cut*log2(cut); the length is
    Q*log2(Q) + Q*log2(2m) - 2*S2 + M.
    """
    xlogx = [_xlogx(x) for x in range(2 * two_m + 1)]
    log_two_m = math.log2(two_m)

    def step(total: tuple[int, float, float], cut: int, vol: int, new_cut: int,
             new_vol: int) -> tuple[int, float, float]:
        q, s2, mod = total
        return (q + new_cut - cut,
                s2 + xlogx[new_cut] - xlogx[cut],
                mod + (xlogx[new_cut + new_vol] - xlogx[new_cut])
                - (xlogx[cut + vol] - xlogx[cut]))

    return _Cost(
        start=lambda cuts, vols: (sum(cuts), sum(xlogx[c] for c in cuts),
                                  sum(xlogx[c + v] - xlogx[c] for c, v in zip(cuts, vols))),
        step=step,
        length=lambda total: xlogx[total[0]] + total[0] * log_two_m - 2 * total[1] + total[2],
        tol=-1e-12 * two_m)


def flow_partition(net: RoadNetwork) -> Partition:
    """Partition minimising the two-level description length of walk flow.

    Visit rates are the exact stationary rates deg/2m of the uniform
    walk; the deterministic greedy search alternates single-node moves
    (until stable) with the best whole-community merge, stopping when
    neither shortens the code.  Node moves are the primary step: unlike
    merges they are reversible, which stops a single dense pair from
    swallowing its neighbourhood early.
    """
    if net.num_edges == 0:  # a connected network without edges is one node
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    search = _CommunitySearch(_link_counts(net), _codelength_cost(2 * net.num_edges))
    search.sweep()
    while search.merge_best():
        search.sweep()
    return Partition.from_assignment(dict(zip(net.node_ids, search.comm)))
