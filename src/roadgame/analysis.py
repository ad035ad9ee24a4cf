"""Centrality measures and partition/cut detection over road networks.

Betweenness is computed exactly over travel-time shortest paths with even
splitting among equal-cost paths, as fixed-point sums that add,
certified; the exact fallback is the same sums in a unit that every path
count divides.  Its shortest-path DAGs come from one array search per
block of sources, certified to equal the heap search's; path counts and
dependencies stay exact ints, summed per directed edge.
botgrep's k-means labels are certified against the per-centroid norms.
Partition labels are canonical: communities are numbered 0..k-1 in order
of their smallest node id, so identical structures compare equal.  The
community searches (infomap, hierarchical_mod) price every node's moves
at once on arrays at the start of each pass and run their scalar moves
from the first node that can move; the arrays run each cost's own
formulas in the same operation order on int64 and float64, so IEEE
arithmetic gives the scalar changes bit for bit and the partitions are
the ones full scalar passes find.
"""

from __future__ import annotations

import heapq
import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

import numpy as np

from .blas import one_thread
from .errors import ConvergenceError, DomainError, ValidationError
from .network import RoadNetwork, _cut_ratio, _link_arrays, _shortest_dags, memoised
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
        # canonical labels: numbered by first appearance in node-id order,
        # so communities are ordered by their smallest node id
        new: dict[int, int] = {}
        return cls({node: new.setdefault(label, len(new))
                    for node, label in sorted(assignment.items())}, len(new))

    def label(self, node: str) -> int:
        return self.assignment[node]

    def communities(self) -> list[tuple[str, ...]]:
        members: list[list[str]] = [[] for _ in range(self.num_communities)]
        for node, label in self.assignment.items():
            members[label].append(node)
        return [tuple(sorted(group)) for group in members]


def _labels(net: RoadNetwork, part: Partition) -> list[int]:
    """The partition's labels in node-index order."""
    if part.assignment.keys() != net.nodes.keys():
        raise DomainError("partition does not cover exactly the network's nodes")
    return [part.assignment[v] for v in net.node_ids]


# -- centrality ------------------------------------------------------------


@memoised
def _eigenvector_scores(net: RoadNetwork) -> list[float]:
    """Power iteration on A + I (keeps bipartite graphs convergent); scores in index order."""
    *_, tails, heads = _link_arrays(net)
    n = net.num_nodes
    a = np.zeros((n, n))  # dense for ``a @ v``'s bits, and freed with this call
    a[tails, heads] = 1.0
    v = np.ones(n)
    residual = math.inf
    for _ in range(_EIGEN_MAX_ITER):
        av = a @ v
        lam = float(v @ av) / float(v @ v)
        residual = float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v)))
        if residual <= _EIGEN_TOL:
            return (v / v.max()).tolist()
        v = av + v
        v = v / v.max()
    raise ConvergenceError(
        f"eigenvector power iteration did not converge within {_EIGEN_MAX_ITER} "
        f"iterations (residual {residual:.3e})", residual=residual)


# fraction bits of the fixed-point betweenness sums: with path counts below
# 2**100 their error bound stays under 2**-92 of each value, far inside the
# 2**-53 a float resolves, so only values within that of a rounding boundary
# can fail their certificate
_FIXED_BITS = 192


@memoised
def _betweenness_scores(net: RoadNetwork) -> tuple[list[float], list[float]]:
    """Node and edge betweenness over travel-time shortest paths, in index order.

    Equal-cost paths split evenly and every float is the exact value
    correctly rounded, so results match brute-force path enumeration.
    """
    return _round_betweenness(net, _betweenness_sums(net, range(net.num_nodes)))


def _counted_dags(net: RoadNetwork, sources: Sequence[int]):
    """Per source index in turn: ``(s, sigma, tails, heads, dirs)``, the
    edges ``tails[i] -> heads[i]`` (directed edge ``dirs[i]``) of its
    shortest-path DAG from :func:`~roadgame.network._shortest_dags` as
    lists, and its exact path counts sigma, summed over them in order."""
    *_, tail_of, head_of = _link_arrays(net)
    for s, (_, found) in zip(sources, _shortest_dags(net, sources)):
        tails, heads, dirs = tail_of[found].tolist(), head_of[found].tolist(), found.tolist()
        sigma = [0] * net.num_nodes
        sigma[s] = 1
        for v, w in zip(tails, heads):
            sigma[w] += sigma[v]
        yield s, sigma, tails, heads, dirs


def _betweenness_sums(net: RoadNetwork, sources: Sequence[int], one: int = 0
                      ) -> tuple[list[int], list[int], int]:
    """Fixed-point partial sums ``(node_sums, edge_sums, sigma_max)`` of
    the dependencies of the node indices ``sources``, in node and edge
    index order, in units of ``1/one``; ``one = 0`` means ``2**_FIXED_BITS``.

    Each source's DAG and exact path counts sigma come from
    :func:`_counted_dags`.  With ``c(w) = 1/sigma(w) + sum of c(x) over
    successors x``, a DAG edge (v, w) carries ``sigma(v) * c(w)``; its sum
    over the sources goes to the directed edge.  Here c is a fixed-point
    value in units: each ``1/sigma`` is floored, so every term is a sum of
    floors with nonnegative weights, and a node that is never interior
    stays exactly 0.  A node's dependency, Brandes' ``sigma(v)`` times its
    successors' sum of c, is the sum over its out-edges, less ``c(s) - 1``
    (``c[s] - one`` in units) where it is the source s itself.
    ``sigma_max`` is the largest path count seen, which bounds the floors'
    error (:func:`_round_betweenness`); a unit that every path count
    divides loses nothing (:func:`_exact_betweenness`).  Fixed-point sums
    do not depend on order, so sums over disjoint source sets merge by
    plain addition.
    """
    one = one or 1 << _FIXED_BITS
    node_sums = [0] * net.num_nodes
    directed = [0] * (2 * net.num_edges)
    sigma_max = 1
    for s, sigma, tails, heads, dirs in _counted_dags(net, sources):
        sigma_max = max(sigma_max, *sigma)
        c = [x and one // x for x in sigma]
        for v, w, d in zip(reversed(tails), reversed(heads), reversed(dirs)):
            cw = c[w]
            c[v] += cw
            directed[d] += sigma[v] * cw
        node_sums[s] -= c[s] - one
    edge_sums = []
    for (i, j), forward, backward in zip(net.ends, directed[::2], directed[1::2]):
        node_sums[i] += forward
        node_sums[j] += backward
        edge_sums.append(forward + backward)
    return node_sums, edge_sums, sigma_max


def _merge_betweenness(parts) -> tuple[list[int], list[int], int]:
    """The sums over the union of disjoint source sets."""
    node_sums, edge_sums, sigma_max = zip(*parts)
    return ([sum(xs) for xs in zip(*node_sums)], [sum(xs) for xs in zip(*edge_sums)],
            max(sigma_max))


def _round_betweenness(net: RoadNetwork, sums) -> tuple[list[float], list[float]]:
    """Node and edge betweenness floats of the fixed-point sums over every
    source, each certified to be the exact value correctly rounded.

    With ``B = _FIXED_BITS``, a floor loses less than one unit, and a
    term's floors number no more than its exact value in units times
    ``sigma_max / 2**B`` (each ``1/sigma`` is at least ``1/sigma_max``).
    So the exact total X of a sum x satisfies ``x <= X <= x / (1 - rho)``
    with ``rho = sigma_max / 2**B``.  Each unordered pair was counted from
    both endpoints, and int / int rounds the exact quotient once,
    correctly, so an entry is certified when both ends of that interval,
    over ``2**(B + 1)``, round to the same float.  If any entry is not,
    the whole network is summed again, in a unit no floor rounds, by
    :func:`_exact_betweenness`.
    """
    node_sums, edge_sums, sigma_max = sums
    one = 1 << _FIXED_BITS
    scale = 2 * one
    slack = one - sigma_max
    if slack > 0:
        totals = node_sums + edge_sums
        scores = [x / scale for x in totals]
        if all(f == (x - (-x * sigma_max // slack)) / scale for f, x in zip(scores, totals)):
            return scores[:net.num_nodes], scores[net.num_nodes:]
    return _exact_betweenness(net)


def _exact_betweenness(net: RoadNetwork) -> tuple[list[float], list[float]]:
    """Betweenness as :func:`_betweenness_sums` in units of ``1/L``, L the
    lcm of every nonzero path count: each ``L // sigma`` is exact, so the
    sums are the exact values times 2L, and int / int rounds each quotient
    correctly.  Only uncertified fixed-point sums come here.
    """
    counts = set()
    for _, sigma, *_ in _counted_dags(net, range(net.num_nodes)):
        counts.update(sigma)
    counts.discard(0)  # unreachable nodes' sigma
    one = math.lcm(*counts)
    scale = 2 * one
    node_sums, edge_sums, _ = _betweenness_sums(net, range(net.num_nodes), one)
    return [x / scale for x in node_sums], [x / scale for x in edge_sums]


def _min_over_ends(net: RoadNetwork, node_scores: Sequence) -> list:
    """Each edge's score, the smaller of its endpoints' scores; both in index order."""
    return [min(node_scores[i], node_scores[j]) for i, j in net.ends]


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
        node_scores = ([float(len(row)) for row in net.links] if kind == "degree"
                       else _eigenvector_scores(net))
        edge_scores = _min_over_ends(net, node_scores)
    return CentralityScores(kind, dict(zip(net.node_ids, node_scores)),
                            dict(zip(net.edge_ids, edge_scores)))


# -- spectral bisection ------------------------------------------------------


def spectral_bisect(net: RoadNetwork) -> Partition:
    """Two-way split by the sign of the modularity matrix's leading eigenvector.

    When the graph has no community structure to exploit (leading
    eigenvalue <= 0, or a one-signed eigenvector) the whole graph is
    returned as a single community -- the null-cutset case.
    """
    offsets, *_, tails, heads = _link_arrays(net)
    deg = np.diff(offsets).astype(float)
    two_m = float(deg.sum())
    if two_m == 0:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    b = np.outer(deg, deg)
    b /= two_m
    np.subtract(0.0, b, out=b)  # B: 0 - x off the links, (0 - x) + 1 == 1 - x on them
    b[tails, heads] += 1.0
    try:
        with one_thread():
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
    """Edge count, 1 in a simple graph, between each pair of adjacent node indices."""
    return [dict.fromkeys((j for j, _ in row), 1) for row in net.links]


# A partition cost over community (cut, vol) counts: ``start(cuts, vols)``
# totals the given communities, ``step(total, cut, vol, new_cut, new_vol)``
# is the total once one community's counts change, and a change is taken
# when it changes ``length(total)`` by less than ``tol``.  ``steps`` and
# ``lengths`` are the same formulas, in the same operation order, over
# int64 and float64 arrays of counts.
_Cost = namedtuple("_Cost", "start step length tol steps lengths")


def _modularity_cost(two_m: int) -> _Cost:
    """4m^2 (1 - Q) as the exact integer 2m*sum(cut) + sum(vol^2).

    A community holds (vol - cut)/2 inner edges, so Q = 1 - sum(cut)/2m
    - sum(vol^2)/4m^2 and every decision compares integers.  The total
    is at most 8m^2 and the searches price moves on int64, whose
    arithmetic wraps modulo 2^64, so every total and change they compute
    is exact while 8m^2 fits in an int64; larger networks are refused.
    """
    if 2 * two_m * two_m > np.iinfo(np.int64).max:
        raise DomainError(f"a network of {two_m // 2} edges is too large for exact "
                          "int64 modularity totals")

    def step(total, cut, vol, new_cut, new_vol):
        return total + two_m * (new_cut - cut) + new_vol * new_vol - vol * vol

    def length(total):
        return total

    return _Cost(start=lambda cuts, vols: two_m * sum(cuts) + sum(v * v for v in vols),
                 step=step, length=length, tol=0, steps=step, lengths=length)


class _CommunitySearch:
    """Communities of a link graph, moved and merged to lower one cost.

    ``links[i]`` counts the edges from node i to each adjacent node and
    ``loops[i]`` the edge ends inside node i (a coarsened community's
    inner edges, counted from both ends).  Every node starts alone, and a
    community, labelled by the index of a node, keeps its ``members``, its
    count ``cut`` of edge ends leaving it, its degree sum ``vol`` and
    ``between``, its edge count to each adjacent community.
    """

    def __init__(self, links: list[dict[int, int]], cost: _Cost,
                 loops: list[int] | None = None):
        self.links = links
        self.ext = [sum(row.values()) for row in links]
        self.deg = [e + own for e, own in zip(self.ext, loops or [0] * len(links))]
        self.comm = list(range(len(links)))
        self.members = [{i} for i in self.comm]
        self.cut = list(self.ext)
        self.vol = list(self.deg)
        self.between = [dict(row) for row in links]
        self.cost = cost
        self.total = cost.start(self.cut, self.vol)
        # the directed links i -> j and their counts, i ascending, for priced_moves
        self.link_src = np.repeat(np.arange(len(links)), [len(row) for row in links])
        self.link_dst = np.fromiter(chain.from_iterable(links), np.int64, len(self.link_src))
        self.link_count = np.fromiter(chain.from_iterable(row.values() for row in links),
                                      np.int64, len(self.link_src))
        self.ext_array = np.array(self.ext, np.int64)
        self.deg_array = np.array(self.deg, np.int64)

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

    def priced_moves(self) -> tuple[np.ndarray, np.ndarray]:
        """Every node's move to each neighbouring community, priced at
        once from the current state: the moving node of each move, in
        ascending order, and the move's change of the cost's length.

        The changes are the ones :meth:`sweep` computes for a node in
        this state, term for term: the cost's own formulas in its array
        form, on the same int64 counts and float64 table entries.
        """
        n = len(self.comm)
        if not len(self.link_src):  # no links, no moves
            return self.link_src, self.link_src
        comm = np.array(self.comm, np.int64)
        cut, vol = np.array(self.cut, np.int64), np.array(self.vol, np.int64)
        # one group per (node, community of its neighbours), counts summed;
        # the keys come in runs of ascending src, which a stable sort merges
        key = self.link_src * n + comm[self.link_dst]
        order = np.argsort(key, kind="stable")
        key = key[order]
        boundary = np.ones(len(key), bool)
        np.not_equal(key[1:], key[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        counts = np.add.reduceat(self.link_count[order], starts)
        node, target = np.divmod(key[starts], n)
        own = target == comm[node]
        stay = np.zeros(n, np.int64)
        stay[node[own]] = counts[own]
        node, target, counts = node[~own], target[~own], counts[~own]
        source, ext, deg = comm[node], self.ext_array[node], self.deg_array[node]
        steps = self.cost.steps
        left = steps(self.total, cut[source], vol[source],
                     cut[source] - ext + 2 * stay[node], vol[source] - deg)
        joined = steps(left, cut[target], vol[target],
                       cut[target] + ext - 2 * counts, vol[target] + deg)
        return node, self.cost.lengths(joined) - self.cost.length(self.total)

    def first_mover(self) -> int | None:
        """The first node, in index order, with a move whose change is
        below ``tol`` in the current state; None if no node has one."""
        node, delta = self.priced_moves()
        movers = node[delta < self.cost.tol]
        return int(movers[0]) if len(movers) else None

    def sweep(self) -> bool:
        """Single-node moves until none lowers the cost; True if any node moved.

        Each node goes to the neighbouring community whose move lowers
        the cost most, ties to the smallest label, and stays unless the
        change is below ``tol``.  A pass runs the scalar moves from
        :meth:`first_mover` on: every node before it sees the pass-start
        state and prices the same changes, so it would stay, and a pass
        where no node can move is one array evaluation.  The screen is
        exact because :meth:`priced_moves` evaluates the cost's formulas
        in the scalar loop's operation order, and IEEE ``+ - *`` round
        each float64 operation alike in Python and numpy while the int64
        counts are exact, so each array change equals the scalar one bit
        for bit.
        """
        step, length, tol = self.cost.step, self.cost.length, self.cost.tol
        comm, cut, vol = self.comm, self.cut, self.vol
        moved = False
        first = self.first_mover()
        while first is not None:
            improving = False
            total = self.total
            baseline = length(total)
            for i in range(first, len(comm)):
                row, ext, deg = self.links[i], self.ext[i], self.deg[i]
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
                self.members[source].remove(i)
                self.members[target].add(i)
                for c, count in counts.items():
                    self._link(source, c, -count)
                    if c != target:
                        self._link(target, c, count)
                if stay:
                    self._link(target, source, stay)
                total = self.total
                baseline = length(total)
                moved = improving = True
            first = self.first_mover() if improving else None
        return moved

    def merge_best(self) -> bool:
        """Merge the adjacent pair a < b whose merge lowers the cost most,
        found by pricing every pair, ties to the smallest pair; False if
        no merge lowers it."""
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
        self.merge(a, b)
        return True

    def merge(self, a: int, b: int) -> None:
        """Merge community b into the adjacent community a."""
        cut, vol = self.cut, self.vol
        self._set(a, cut[a] + cut[b] - 2 * self.between[a][b], vol[a] + vol[b])
        self._set(b, 0, 0)
        row, self.between[b] = self.between[b], {}
        for c, count in row.items():
            del self.between[c][b]
            if c != a:
                self._link(a, c, count)
        for i in self.members[b]:
            self.comm[i] = a
        self.members[a] |= self.members[b]
        self.members[b] = set()


def _greedy_merge(net: RoadNetwork) -> Partition:
    """Pairwise community merging, largest modularity gain first
    (Clauset, Newman & Moore 2004), until no merge raises modularity.

    A merge changes the cost by ``2*vol_a*vol_b - 4m*L_ab`` whatever the
    running total, so the pairs wait in a heap of ``(delta, a, b)`` and a
    merge reprices only the pairs of the merged community.  An entry
    whose communities changed since it was priced carries an old stamp
    and is dropped, so the pick and its ties match a rescan of every pair.
    """
    two_m = 2 * net.num_edges
    search = _CommunitySearch(_link_counts(net), _modularity_cost(two_m))
    vol, between = search.vol, search.between
    stamp = [0] * net.num_nodes

    def priced(a: int, b: int) -> tuple[int, int, int, int, int]:
        return 2 * vol[a] * vol[b] - 2 * two_m * between[a][b], a, b, stamp[a], stamp[b]

    heap = [priced(a, b) for a, row in enumerate(between) for b in row if a < b]
    heapq.heapify(heap)
    while heap:
        delta, a, b, stamp_a, stamp_b = heapq.heappop(heap)
        if stamp_a != stamp[a] or stamp_b != stamp[b]:
            continue
        if delta >= 0:
            break
        search.merge(a, b)
        stamp[a] += 1
        stamp[b] += 1
        for c in between[a]:
            heapq.heappush(heap, priced(min(a, c), max(a, c)))
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


# -- partition scores and cutset ----------------------------------------------


def _community_counts(net: RoadNetwork, part: Partition) -> tuple[list[int], list[int]]:
    """Each community's count of edge ends leaving it and its degree sum."""
    label = _labels(net, part)
    cut = [0] * part.num_communities
    vol = [0] * part.num_communities
    for i, j in net.ends:
        a, b = label[i], label[j]
        vol[a] += 1
        vol[b] += 1
        if a != b:
            cut[a] += 1
            cut[b] += 1
    return cut, vol


def modularity(net: RoadNetwork, part: Partition) -> float:
    """Newman modularity Q of the partition, in [-1/2, 1].

    Q is 1 less the searches' integer cost over 4m^2; the one int / int
    division rounds the exact Q correctly.
    """
    cut, vol = _community_counts(net, part)
    two_m = 2 * net.num_edges
    if two_m == 0:
        return 0.0
    return (two_m * two_m - _modularity_cost(two_m).start(cut, vol)) / (two_m * two_m)


def _cut_edges(net: RoadNetwork, part: Partition) -> set[int]:
    """The indices of all edges whose endpoints carry different community labels."""
    label = _labels(net, part)
    return {k for k, (i, j) in enumerate(net.ends) if label[i] != label[j]}


def partition_cutset(net: RoadNetwork, part: Partition) -> frozenset[str]:
    """All edges whose endpoints carry different community labels."""
    return frozenset(net.edge_ids[k] for k in _cut_edges(net, part))


# -- random-walk mixing partition (slow-mixing cut detection) ----------------


def mixing_transition_matrix(net: RoadNetwork) -> np.ndarray:
    """Walk kernel with P[i, j] = min(1/d_i, 1/d_j) for adjacent i, j.

    A self-loop absorbs the residual probability so every row sums to 1.
    Rows/columns follow sorted node-id order.
    """
    offsets, *_, tails, heads = _link_arrays(net)
    # a node without links keeps inverse 1 and a zero row
    inverse = 1.0 / np.maximum(np.diff(offsets), 1)
    p = np.zeros((net.num_nodes, net.num_nodes))
    p[tails, heads] = np.minimum(inverse[tails], inverse[heads])
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def _distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Euclidean distance of each point (row) to each centroid (column)."""
    return np.stack([np.linalg.norm(points - c, axis=1) for c in centroids], axis=1)


def _kmeans(features: np.ndarray, num_clusters: int, rng) -> np.ndarray:
    """Plain k-means with seeded init and deterministic tie-breaking.

    Each point goes to the centroid nearest by :func:`_distances`, ties
    to the lowest label, but those distances are computed only where a
    cheaper estimate cannot decide.  Per iteration one GEMM gives every
    squared distance as ``e = |x|^2 - 2 x.c + |c|^2``.  With u = 2**-53,
    ``g = (d + 3) u / (1 - (d + 3) u)`` for d features, and ``T = |x|^2 +
    max |c|^2 + 2**-1000`` (the last term covers underflow), summing in
    any order, with or without fused multiply-adds (Higham, ch. 3), bounds

    - the estimate's error ``|e - |x - c|^2|`` by ``2 g T``, and
    - that of the squared norm ``_distances`` takes the root of by
      ``g |x - c|^2 <= 2 g T``.

    So when a row's best two estimates differ by more than ``16 g T``,
    the second best's squared norm exceeds the best's by more than
    ``8 u`` times it, their rounded roots differ, and the estimate's
    argmin is the label :func:`_distances` gives.  The other rows are
    labelled from :func:`_distances`.  An emptied cluster is reseeded
    with the point farthest from its centroid, as :func:`_distances`
    measures it to the iteration's starting centroids.  The GEMM runs on
    one OpenBLAS thread: with k <= 8 centroids a second thread saves
    little, and one first call in about ten took 10x as long with two.
    """
    n, d = features.shape
    centroid_rows = rng.choice(n, size=num_clusters, replace=False)
    centroids = features[np.sort(centroid_rows)].copy()
    labels = np.zeros(n, dtype=int)
    tol = 16 * (d + 3) * 2.0 ** -53 / (1 - (d + 3) * 2.0 ** -53)  # 16 g
    point_sq = np.einsum("ij,ij->i", features, features)
    rows = np.arange(n)
    with one_thread():
        for _ in range(100):
            start = centroids.copy()
            centroid_sq = np.einsum("ij,ij->i", start, start)
            estimate = point_sq[:, None] - 2.0 * (features @ start.T) + centroid_sq
            new_labels = np.argmin(estimate, axis=1)
            best = estimate[rows, new_labels]
            estimate[rows, new_labels] = np.inf
            gap = estimate.min(axis=1) - best
            unsure = np.flatnonzero(~(gap > tol * (point_sq + centroid_sq.max() + 2.0 ** -1000)))
            if unsure.size:
                new_labels[unsure] = np.argmin(_distances(features[unsure], start), axis=1)
            dist = None
            for c in range(num_clusters):
                mask = new_labels == c
                if mask.any():
                    centroids[c] = features[mask].mean(axis=0)
                else:
                    if dist is None:
                        dist = _distances(features, start)
                    farthest = int(np.argmax(dist[rows, new_labels]))
                    new_labels[farthest] = c
                    centroids[c] = features[farthest]
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
    return labels


def default_short_walk_len(net: RoadNetwork) -> int:
    return int(math.ceil(math.log2(max(net.num_nodes, 2)))) + 2


def _matrix_power(a: np.ndarray, t: int) -> np.ndarray:
    """``np.linalg.matrix_power(a, t)`` for t >= 1, bit for bit: its
    products in its order (t = 2 and 3 directly, larger t least significant
    bit first), each written with ``out=`` into an array that holds neither
    factor nor the other live power.  At most three n x n arrays exist, and
    ``a`` is one of them: it may be overwritten."""
    arrays = [a]

    def product(x, y, keep=None):
        out = next((b for b in arrays if b is not x and b is not y and b is not keep), None)
        if out is None:
            out = np.empty_like(a)
            arrays.append(out)
        return np.matmul(x, y, out=out)

    if t <= 3:
        return a if t == 1 else product(a, a) if t == 2 else product(product(a, a), a)
    z = result = None
    while t:
        z = a if z is None else product(z, z, keep=result)
        t, bit = divmod(t, 2)
        if bit:
            result = z if result is None else product(result, z)
    return result


def mixing_partition(net: RoadNetwork, seed: int = 0) -> Partition:
    """Partition by clustering short-walk endpoint distributions.

    Short walks under the min-degree kernel stay inside well-mixed
    regions, so endpoint distributions separate across sparse cuts.
    Row i of P^t is the exact endpoint distribution of a t-step walk from
    node i; ``seed`` drives only the k-means initialisation.  Candidate
    clusterings for 2..8 communities are scored by their worst
    per-community conductance and the best candidate wins.
    """
    features = _matrix_power(mixing_transition_matrix(net), default_short_walk_len(net))
    n = net.num_nodes

    best: tuple[float, int, Partition] | None = None
    for num_clusters in range(2, min(8, n - 1) + 1):
        labels = _kmeans(features, num_clusters, substream(seed, "mixing-kmeans", num_clusters))
        part = Partition.from_assignment(dict(zip(net.node_ids, labels.tolist())))
        if part.num_communities < 2:
            continue
        cut, vol = _community_counts(net, part)
        worst = max(_cut_ratio(c, v, 2 * net.num_edges) for c, v in zip(cut, vol))
        key = (worst, part.num_communities)
        if best is None or key < (best[0], best[1]):
            best = (worst, part.num_communities, part)
    if best is None:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    return best[2]


# -- visit-frequency flow partition (map-equation greedy merge) --------------


def _xlogx(value: float) -> float:
    return value * math.log2(value) if value > 0 else 0.0


def _codelength_formulas(xlogx, log_two_m: float):
    """The code-length cost's ``step`` and ``length`` over a table of
    x*log2(x), read by integer index: a list for scalar counts, an
    ndarray for arrays of them."""

    def step(total, cut, vol, new_cut, new_vol):
        q, s2, mod = total
        return (q + new_cut - cut,
                s2 + xlogx[new_cut] - xlogx[cut],
                mod + (xlogx[new_cut + new_vol] - xlogx[new_cut])
                - (xlogx[cut + vol] - xlogx[cut]))

    def length(total):
        return xlogx[total[0]] + total[0] * log_two_m - 2 * total[1] + total[2]

    return step, length


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
    step, length = _codelength_formulas(xlogx, log_two_m)
    steps, lengths = _codelength_formulas(np.array(xlogx), log_two_m)
    return _Cost(
        start=lambda cuts, vols: (sum(cuts), sum(xlogx[c] for c in cuts),
                                  sum(xlogx[c + v] - xlogx[c] for c, v in zip(cuts, vols))),
        step=step, length=length, tol=-1e-12 * two_m, steps=steps, lengths=lengths)


def map_equation_codelength(net: RoadNetwork, part: Partition) -> float:
    """Two-level description length, in bits per step, of the partition
    under the uniform walk's stationary visit rates deg/2m.

    That is the searches' code-length cost less its partition-independent
    part, sum of deg*log2(deg) over nodes, all over 2m.
    """
    cut, vol = _community_counts(net, part)
    two_m = 2 * net.num_edges
    if two_m == 0:
        raise DomainError("the map equation needs a network with at least one edge")
    cost = _codelength_cost(two_m)
    return (cost.length(cost.start(cut, vol))
            - sum(_xlogx(len(row)) for row in net.links)) / two_m


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
