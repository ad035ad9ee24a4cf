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


class _MapEquationState:
    """Description-length bookkeeping with cheap node moves and merges.

    Node moves are the primary search step: unlike merges they are
    reversible, which stops a single dense pair from swallowing its
    neighbourhood early.  ``flow[i][j]`` holds the symmetric cross flow
    p_i/d_i + p_j/d_j of edge (i, j); joining or leaving a community
    always toggles both directions of an edge together, so only the sum
    is ever needed for updates.
    """

    def __init__(self, net: RoadNetwork, freq: Mapping[str, float]):
        index = {v: i for i, v in enumerate(net.node_ids)}
        n = net.num_nodes
        self.n = n
        self.p = [0.0] * n
        self.node_flow: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        deg = {v: net.degree(v) for v in net.node_ids}
        for v in net.node_ids:
            self.p[index[v]] = freq[v]
        for e in net.edges.values():
            i, j = index[e.u], index[e.v]
            f = freq[e.u] / deg[e.u] + freq[e.v] / deg[e.v]
            self.node_flow[i].append((j, f))
            self.node_flow[j].append((i, f))
        self.comm = list(range(n))
        self.members: dict[int, set[int]] = {i: {i} for i in range(n)}
        self.exit: dict[int, float] = {i: self.p[i] for i in range(n)}
        self.p_sum: dict[int, float] = {i: self.p[i] for i in range(n)}
        self.s1 = sum(self.exit.values())
        self.s2 = sum(_xlogx(x) for x in self.exit.values())
        self.modules = sum(_xlogx(self.exit[c] + self.p_sum[c]) - _xlogx(self.exit[c])
                           for c in self.members)
        self.const = -sum(_xlogx(x) for x in self.p)

    def codelength(self) -> float:
        return _xlogx(self.s1) - 2 * self.s2 + self.modules + self.const

    def _flow_to(self, i: int, community: int) -> float:
        return sum(f for j, f in self.node_flow[i] if self.comm[j] == community)

    def _term(self, exit_c: float, p_sum_c: float) -> float:
        return _xlogx(exit_c + p_sum_c) - _xlogx(exit_c)

    def _flows_by_community(self, i: int) -> dict[int, float]:
        """Flow from node i to each neighbouring community, summed in edge order."""
        flows: dict[int, float] = {}
        for j, f in self.node_flow[i]:
            flows[self.comm[j]] = flows.get(self.comm[j], 0) + f
        return flows

    def _move_updates(self, i: int, target: int,
                      flows: dict[int, float]) -> list[tuple[int, float, float]]:
        source = self.comm[i]
        return [
            (source, self.exit[source] - self.p[i] + flows.get(source, 0),
             self.p_sum[source] - self.p[i]),
            (target, self.exit[target] + self.p[i] - flows[target],
             self.p_sum[target] + self.p[i]),
        ]

    def _moved(self, totals: tuple[float, float, float], c: int, new_exit: float,
               new_p: float) -> tuple[float, float, float]:
        """(s1, s2, modules) from ``totals`` once community c takes these totals."""
        s1, s2, modules = totals
        return (s1 + (new_exit - self.exit[c]),
                s2 + (_xlogx(new_exit) - _xlogx(self.exit[c])),
                modules + (self._term(new_exit, new_p) - self._term(self.exit[c], self.p_sum[c])))

    def best_move(self, i: int) -> tuple[float, int] | None:
        """(delta, target) of node i's most code-shortening move, or None.

        One pass over i's edges gives its flow to every neighbouring
        community; the source-side terms and the current codelength are
        computed once and shared by every target.
        """
        flows = self._flows_by_community(i)
        targets = sorted(c for c in flows if c != self.comm[i])
        if not targets:
            return None
        updates = [self._move_updates(i, target, flows) for target in targets]
        left = self._moved((self.s1, self.s2, self.modules), *updates[0][0])
        baseline = self.codelength()
        best: tuple[float, int] | None = None
        for target, (_, join) in zip(targets, updates):
            s1, s2, modules = self._moved(left, *join)
            delta = (_xlogx(s1) - 2 * s2 + modules + self.const) - baseline
            if delta < -1e-12 and (best is None or (delta, target) < best):
                best = (delta, target)
        return best

    def apply_move(self, i: int, target: int) -> None:
        source = self.comm[i]
        for c, new_exit, new_p in self._move_updates(i, target, self._flows_by_community(i)):
            self.s1, self.s2, self.modules = self._moved((self.s1, self.s2, self.modules),
                                                         c, new_exit, new_p)
            self.exit[c] = new_exit
            self.p_sum[c] = new_p
        self.members[source].discard(i)
        self.members[target].add(i)
        self.comm[i] = target
        if not self.members[source]:
            # an emptied community has zero exit and zero visits; its
            # terms are already zero, so dropping it is bookkeeping only
            del self.members[source], self.exit[source], self.p_sum[source]

    def _merge_quantities(self, a: int, b: int) -> tuple[float, float]:
        small, large = (a, b) if len(self.members[a]) <= len(self.members[b]) else (b, a)
        w_ab = sum(self._flow_to(i, large) for i in self.members[small])
        return self.exit[a] + self.exit[b] - w_ab, self.p_sum[a] + self.p_sum[b]

    def merge_delta(self, a: int, b: int) -> float:
        exit_new, p_new = self._merge_quantities(a, b)
        s1 = self.s1 - self.exit[a] - self.exit[b] + exit_new
        s2 = self.s2 - _xlogx(self.exit[a]) - _xlogx(self.exit[b]) + _xlogx(exit_new)
        modules = (self.modules - self._term(self.exit[a], self.p_sum[a])
                   - self._term(self.exit[b], self.p_sum[b])
                   + self._term(exit_new, p_new))
        return (_xlogx(s1) - 2 * s2 + modules + self.const) - self.codelength()

    def apply_merge(self, a: int, b: int) -> None:
        exit_new, p_new = self._merge_quantities(a, b)
        self.s1 += exit_new - self.exit[a] - self.exit[b]
        self.s2 += _xlogx(exit_new) - _xlogx(self.exit[a]) - _xlogx(self.exit[b])
        self.modules += (self._term(exit_new, p_new)
                         - self._term(self.exit[a], self.p_sum[a])
                         - self._term(self.exit[b], self.p_sum[b]))
        for i in self.members[b]:
            self.comm[i] = a
        self.members[a] |= self.members[b]
        self.exit[a], self.p_sum[a] = exit_new, p_new
        del self.members[b], self.exit[b], self.p_sum[b]


def flow_partition(net: RoadNetwork) -> Partition:
    """Partition minimising the two-level description length of walk flow.

    Visit rates are the exact stationary rates deg/2m of the uniform
    walk; the deterministic greedy search alternates single-node moves
    (until stable) with the best whole-community merge, stopping when
    neither shortens the code.
    """
    if net.num_edges == 0:  # a connected network without edges is one node
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    two_m = 2 * net.num_edges
    freq = {v: net.degree(v) / two_m for v in net.node_ids}
    state = _MapEquationState(net, freq)

    while True:
        improving = True
        while improving:
            improving = False
            for i in range(state.n):
                best = state.best_move(i)
                if best is not None:
                    state.apply_move(i, best[1])
                    improving = True
        pairs = set()
        for i in range(state.n):
            for j, _ in state.node_flow[i]:
                a, b = state.comm[i], state.comm[j]
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        best_merge: tuple[float, int, int] | None = None
        for a, b in sorted(pairs):
            delta = state.merge_delta(a, b)
            if delta < -1e-12 and (best_merge is None or (delta, a, b) < best_merge):
                best_merge = (delta, a, b)
        if best_merge is None:
            break
        state.apply_merge(best_merge[1], best_merge[2])

    assignment = {v: state.comm[i] for i, v in enumerate(net.node_ids)}
    return Partition.from_assignment(assignment)
