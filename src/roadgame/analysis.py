"""Centrality measures and partition/cut detection over road networks.

Betweenness is computed exactly (integer numerators over one common
denominator) over travel-time shortest paths with even splitting among
equal-cost paths.  Partition labels are canonical: communities are
numbered 0..k-1 in order of their smallest node id, so identical
structures compare equal.
"""

from __future__ import annotations

import math
from collections import defaultdict
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


# -- agglomerative modularity optimisation -----------------------------------


def _link_counts(net: RoadNetwork) -> dict[int, dict[int, int]]:
    """Edge count between each pair of adjacent nodes, numbered in node-id order."""
    index = {v: i for i, v in enumerate(net.node_ids)}
    links: dict[int, dict[int, int]] = {i: {} for i in range(net.num_nodes)}
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        links[i][j] = links[i].get(j, 0) + 1
        links[j][i] = links[j].get(i, 0) + 1
    return links


def _greedy_merge(net: RoadNetwork) -> Partition:
    """Pairwise community merging, largest modularity gain first.

    Gains are compared through the integer numerator 2*m*L_ab - d_a*d_b,
    so the argmax is exact; ties break on the smallest label pair, and
    the smaller label absorbs the larger.  ``links`` is updated in place:
    merging b into a moves only b's links.
    """
    m = net.num_edges
    links = _link_counts(net)
    degsum = {i: net.degree(v) for i, v in enumerate(net.node_ids)}
    members: dict[int, list[str]] = {i: [v] for i, v in enumerate(net.node_ids)}
    while True:
        cost, a, b = min(((degsum[a] * degsum[b] - 2 * m * count, a, b)
                          for a, row in links.items() for b, count in row.items() if a < b),
                         default=(0, 0, 0))
        if cost >= 0:
            break
        members[a].extend(members.pop(b))
        degsum[a] += degsum.pop(b)
        for c, count in links.pop(b).items():
            del links[c][b]
            if c != a:
                links[a][c] = links[c][a] = links[a].get(c, 0) + count

    return Partition.from_assignment(
        {node: label for label, group in members.items() for node in group})


def _local_moves(nodes: list[int], neigh: dict[int, dict[int, int]],
                 k: dict[int, int], m: int, comm: dict[int, int]) -> bool:
    """Greedy single-node moves until stable; returns True if any node moved.

    Gains are compared via the integer numerator 2*m*k_in - sigma_tot*k_i;
    a node moves only on a strict gain, ties between strictly-better
    targets break to the smallest community label.
    """
    sigma_tot: dict[int, int] = defaultdict(int)
    for v in nodes:
        sigma_tot[comm[v]] += k[v]
    moved_any = False
    improving = True
    while improving:
        improving = False
        for v in nodes:
            old = comm[v]
            sigma_tot[old] -= k[v]
            links: dict[int, int] = defaultdict(int)
            for u, w in neigh[v].items():
                links[comm[u]] += w
            stay_gain = 2 * m * links.get(old, 0) - sigma_tot[old] * k[v]
            best_comm, best_gain = old, stay_gain
            for c in sorted(links):
                if c == old:
                    continue
                gain = 2 * m * links[c] - sigma_tot[c] * k[v]
                if gain > best_gain or (gain == best_gain and best_comm != old and c < best_comm):
                    best_comm, best_gain = c, gain
            comm[v] = best_comm
            sigma_tot[best_comm] += k[v]
            if best_comm != old:
                improving = True
                moved_any = True
    return moved_any


def _hierarchical_merge(net: RoadNetwork) -> Partition:
    """Multi-level local moves with supernode coarsening (modularity ascent).

    A node moves only when its integer gain numerator beats staying by at
    least 1, so every level that moves a node raises modularity; the
    level loop ends when a level moves no node.
    """
    m = net.num_edges
    neigh = _link_counts(net)  # current working graph over integer ids
    nodes = list(neigh)
    loops: dict[int, int] = {v: 0 for v in nodes}
    k: dict[int, int] = {v: sum(neigh[v].values()) for v in nodes}
    node_map = {v: i for i, v in enumerate(net.node_ids)}  # original -> current id
    while True:
        comm = {v: v for v in nodes}
        if not _local_moves(nodes, neigh, k, m, comm):
            break
        relabel = {c: i for i, c in enumerate(sorted(set(comm.values())))}
        node_map = {v: relabel[comm[node_map[v]]] for v in node_map}
        # coarsen into supernodes
        new_nodes = sorted(relabel.values())
        new_neigh: dict[int, dict[int, int]] = {v: {} for v in new_nodes}
        new_loops: dict[int, int] = {v: 0 for v in new_nodes}
        for v in nodes:
            cv = relabel[comm[v]]
            new_loops[cv] += loops[v]
            for u, w in neigh[v].items():
                cu = relabel[comm[u]]
                if cu == cv:
                    new_loops[cv] += w  # both endpoints counted: 2w per edge total
                else:
                    new_neigh[cv][cu] = new_neigh[cv].get(cu, 0) + w
        # loops double-counted above (once per endpoint); keep as weight*2 convention
        nodes = new_nodes
        neigh = new_neigh
        loops = new_loops
        k = {v: sum(neigh[v].values()) + loops[v] for v in nodes}
    return Partition.from_assignment(node_map)


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


def _flow_search(links: dict[int, dict[int, int]]) -> list[int]:
    """Community label of each node from the greedy map-equation search.

    Under the stationary rates deg/2m every node leaks 1/2m along each
    edge, so a community's exit probability is its count ``cut`` of edge
    ends leaving it over 2m and its visit total is its degree sum ``vol``
    over 2m.  With Q = sum cut, S2 = sum cut*log2(cut) and M = sum of
    (cut+vol)*log2(cut+vol) - cut*log2(cut), the codelength times 2m is
    Q*log2(Q) + Q*log2(2m) - 2*S2 + M plus a partition-independent
    constant.  Node moves are the primary step: unlike merges they are
    reversible, which stops a single dense pair from swallowing its
    neighbourhood early.
    """
    n = len(links)
    deg = [sum(links[i].values()) for i in range(n)]
    two_m = sum(deg)
    xlogx = [_xlogx(x) for x in range(2 * two_m + 1)]
    log_two_m = math.log2(two_m)
    tol = -1e-12 * two_m
    comm = list(range(n))
    cut = list(deg)  # per community label; labels are node indices
    vol = list(deg)
    totals = (two_m, sum(xlogx[d] for d in deg), sum(xlogx[2 * d] - xlogx[d] for d in deg))

    def length(q: int, s2: float, mod: float) -> float:
        return xlogx[q] + q * log_two_m - 2 * s2 + mod

    def moved(totals: tuple[int, float, float], c: int, new_cut: int,
              new_vol: int) -> tuple[int, float, float]:
        """(Q, S2, M) from ``totals`` once community c takes these counts."""
        q, s2, mod = totals
        return (q + new_cut - cut[c],
                s2 + xlogx[new_cut] - xlogx[cut[c]],
                mod + (xlogx[new_cut + new_vol] - xlogx[new_cut])
                - (xlogx[cut[c] + vol[c]] - xlogx[cut[c]]))

    def apply(updates: list[tuple[int, int, int]]) -> None:
        nonlocal totals
        for c, new_cut, new_vol in updates:
            totals = moved(totals, c, new_cut, new_vol)
            cut[c], vol[c] = new_cut, new_vol

    while True:
        improving = True
        while improving:
            improving = False
            for i in range(n):
                source = comm[i]
                counts: dict[int, int] = {}
                for j, count in links[i].items():
                    counts[comm[j]] = counts.get(comm[j], 0) + count
                leave = (source, cut[source] - deg[i] + 2 * counts.get(source, 0),
                         vol[source] - deg[i])
                left = moved(totals, *leave)
                baseline = length(*totals)
                joins = [(t, cut[t] + deg[i] - 2 * count, vol[t] + deg[i])
                         for t, count in counts.items() if t != source]
                # targets are distinct, so ties on delta break on the target label
                best = min(((length(*moved(left, *join)) - baseline, join) for join in joins),
                           default=None)
                if best is not None and best[0] < tol:
                    apply([leave, best[1]])
                    comm[i] = best[1][0]
                    improving = True
        between: dict[tuple[int, int], int] = defaultdict(int)  # edges between communities
        for i in range(n):
            for j, count in links[i].items():
                if comm[i] < comm[j]:
                    between[comm[i], comm[j]] += count
        baseline = length(*totals)
        best_merge: tuple[float, int, int, tuple[int, int, int]] | None = None
        for (a, b), count in between.items():
            merged = (a, cut[a] + cut[b] - 2 * count, vol[a] + vol[b])
            delta = length(*moved(moved(totals, *merged), b, 0, 0)) - baseline
            if best_merge is None or (delta, a, b) < best_merge[:3]:
                best_merge = (delta, a, b, merged)
        if best_merge is None or best_merge[0] >= tol:
            return comm
        _, a, b, merged = best_merge
        apply([merged, (b, 0, 0)])
        comm = [a if c == b else c for c in comm]


def flow_partition(net: RoadNetwork) -> Partition:
    """Partition minimising the two-level description length of walk flow.

    Visit rates are the exact stationary rates deg/2m of the uniform
    walk; the deterministic greedy search alternates single-node moves
    (until stable) with the best whole-community merge, stopping when
    neither shortens the code.
    """
    if net.num_edges == 0:  # a connected network without edges is one node
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    comm = _flow_search(_link_counts(net))
    return Partition.from_assignment(dict(zip(net.node_ids, comm)))
