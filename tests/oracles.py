"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (enumeration, exhaustive search,
exact rational arithmetic).  The brute-force oracles share no code paths
with the library implementations they check; the reference
implementations at the end are the slower forms that faster library
code replaced, kept so the fast forms can be checked for equal output.
"""

from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np

from roadgame.analysis import Partition, _xlogx
from roadgame.network import RoadNetwork, _dijkstra


def enumerate_simple_paths(net: RoadNetwork, src: str, dst: str):
    """All simple src->dst paths as (edge tuple, exact weight) pairs."""
    times = {eid: net.edges[eid].travel_time_s for eid in net.edge_ids}
    paths = []

    def walk(node, visited, edges, weight):
        if node == dst:
            paths.append((tuple(edges), weight))
            return
        for eid, nxt in net.adjacency[node]:
            if nxt not in visited:
                visited.add(nxt)
                edges.append(eid)
                walk(nxt, visited, edges, weight + times[eid])
                edges.pop()
                visited.remove(nxt)

    walk(src, {src}, [], 0.0)
    return paths


def brute_betweenness(net: RoadNetwork):
    """Node and edge betweenness by exhaustive path counting (exact)."""
    node_acc = {v: Fraction(0) for v in net.node_ids}
    edge_acc = {e: Fraction(0) for e in net.edge_ids}
    for src, dst in combinations(net.node_ids, 2):
        paths = enumerate_simple_paths(net, src, dst)
        best = min(weight for _, weight in paths)
        shortest = [edges for edges, weight in paths if weight == best]
        sigma = len(shortest)
        for edges in shortest:
            share = Fraction(1, sigma)
            interior = set()
            node = src
            for eid in edges:
                node = net.edges[eid].other(node)
                if node != dst:
                    interior.add(node)
                edge_acc[eid] += share
            for v in interior:
                node_acc[v] += share
    return ({v: float(x) for v, x in node_acc.items()},
            {e: float(x) for e, x in edge_acc.items()})


def brute_min_edge_cut(net: RoadNetwork, src: str, dst: str) -> int:
    """Minimum s-t edge cut by enumerating all separating bipartitions."""
    others = [v for v in net.node_ids if v not in (src, dst)]
    best = None
    for r in range(len(others) + 1):
        for subset in combinations(others, r):
            side = set(subset) | {src}
            cut = sum(1 for e in net.edges.values()
                      if (e.u in side) != (e.v in side))
            if best is None or cut < best:
                best = cut
    return best


def brute_modularity(net: RoadNetwork, labels: dict[str, int]) -> float:
    """Literal double-sum Newman modularity, exact rationals."""
    m = net.num_edges
    deg = {v: net.degree(v) for v in net.node_ids}
    adj = {frozenset((e.u, e.v)) for e in net.edges.values()}
    total = Fraction(0)
    for i in net.node_ids:
        for j in net.node_ids:
            if labels[i] != labels[j]:
                continue
            a_ij = 1 if i != j and frozenset((i, j)) in adj else 0
            total += Fraction(a_ij) - Fraction(deg[i] * deg[j], 2 * m)
    return float(total / (2 * m))


def brute_best_bipartition(net: RoadNetwork):
    """(labels, Q) of the modularity-maximising two-way split (exhaustive)."""
    nodes = net.node_ids
    anchor = nodes[0]
    best_q, best_labels = None, None
    for r in range(len(nodes)):
        for subset in combinations(nodes[1:], r):
            side = set(subset) | {anchor}
            labels = {v: (0 if v in side else 1) for v in nodes}
            q = brute_modularity(net, labels)
            if best_q is None or q > best_q:
                best_q, best_labels = q, labels
    return best_labels, best_q


def brute_min_conductance_bipartition(net: RoadNetwork) -> float:
    """Minimum conductance over all proper bipartitions (exhaustive)."""
    nodes = net.node_ids
    total_vol = 2 * net.num_edges
    best = None
    anchor = nodes[0]
    for r in range(len(nodes) - 1):
        for subset in combinations(nodes[1:], r):
            side = set(subset) | {anchor}
            cut = sum(1 for e in net.edges.values()
                      if (e.u in side) != (e.v in side))
            vol = sum(net.degree(v) for v in side)
            value = cut / min(vol, total_vol - vol)
            if best is None or value < best:
                best = value
    return best


def closed_form_2x2_value(a: float, b: float, c: float, d: float) -> float:
    """Game value of [[a, b], [c, d]] without a saddle point."""
    return (a * d - b * c) / (a + d - b - c)


# -- reference implementations replaced by faster library code ---------------


def fraction_betweenness(net: RoadNetwork):
    """Brandes node and edge betweenness with a ``Fraction`` per dependency."""
    tt = net.travel_times()
    node_acc = {v: Fraction(0) for v in net.node_ids}
    edge_acc = {e: Fraction(0) for e in net.edge_ids}
    for s in net.node_ids:
        order, dist = _dijkstra(net, s, tt)
        sigma = {s: 1}
        preds = {s: []}
        for w in order[1:]:
            preds[w] = [(v, eid) for eid, v in net.adjacency[w]
                        if v in sigma and dist[v] + tt[eid] == dist[w]]
            sigma[w] = sum(sigma[v] for v, _ in preds[w])
        delta = {v: Fraction(0) for v in order}
        for w in reversed(order):
            coeff = (1 + delta[w]) / sigma[w]
            for v, eid in preds[w]:
                contrib = sigma[v] * coeff
                delta[v] += contrib
                edge_acc[eid] += contrib
            if w != s:
                node_acc[w] += delta[w]
    return ({v: float(x / 2) for v, x in node_acc.items()},
            {e: float(x / 2) for e, x in edge_acc.items()})


def tensor_kmeans(features: np.ndarray, num_clusters: int, rng) -> np.ndarray:
    """k-means taking all distances from one n x k x d difference tensor."""
    n = features.shape[0]
    centroid_rows = rng.choice(n, size=num_clusters, replace=False)
    centroids = features[np.sort(centroid_rows)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(100):
        dist = np.linalg.norm(features[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(dist, axis=1)
        for c in range(num_clusters):
            mask = new_labels == c
            if mask.any():
                centroids[c] = features[mask].mean(axis=0)
            else:
                farthest = int(np.argmax(dist[np.arange(n), new_labels]))
                new_labels[farthest] = c
                centroids[c] = features[farthest]
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels



def per_target_best_move(state, i: int):
    """(delta, target) of node i's best map-equation move, or None.

    ``state`` is an ``analysis._MapEquationState``.  Each candidate target
    is scored on its own: the flows to the source and the target are
    summed afresh and every term is re-evaluated.
    """
    def flow_to(community):
        return sum(f for j, f in state.node_flow[i] if state.comm[j] == community)

    source, p_i = state.comm[i], state.p[i]
    best = None
    for target in sorted({state.comm[j] for j, _ in state.node_flow[i]} - {source}):
        updates = ((source, state.exit[source] - p_i + flow_to(source), state.p_sum[source] - p_i),
                   (target, state.exit[target] + p_i - flow_to(target), state.p_sum[target] + p_i))
        s1, s2, modules = state.s1, state.s2, state.modules
        for c, new_exit, new_p in updates:
            s1 += new_exit - state.exit[c]
            s2 += _xlogx(new_exit) - _xlogx(state.exit[c])
            modules += state._term(new_exit, new_p) - state._term(state.exit[c], state.p_sum[c])
        delta = (_xlogx(s1) - 2 * s2 + modules + state.const) - state.codelength()
        if delta < -1e-12 and (best is None or (delta, target) < best):
            best = (delta, target)
    return best


def rescan_greedy_merge(net: RoadNetwork) -> Partition:
    """greedy_mod's pair merging with a sorted scan of every pair per merge
    and the cross-community edge counts rebuilt after each merge."""
    m = net.num_edges
    labels = {v: i for i, v in enumerate(net.node_ids)}
    degsum = {i: net.degree(v) for i, v in enumerate(net.node_ids)}
    members = {i: [v] for i, v in enumerate(net.node_ids)}
    cross = defaultdict(int)
    for e in net.edges.values():
        a, b = labels[e.u], labels[e.v]
        if a != b:
            cross[(min(a, b), max(a, b))] += 1
    while True:
        best = None
        for pair in sorted(cross):
            gain = 2 * m * cross[pair] - degsum[pair[0]] * degsum[pair[1]]
            if gain > 0 and (best is None or gain > best[0]
                             or (gain == best[0] and pair < best[1])):
                best = (gain, pair)
        if best is None:
            break
        a, b = best[1]
        members[a].extend(members.pop(b))
        degsum[a] += degsum.pop(b)
        merged = defaultdict(int)
        for (x, y), count in cross.items():
            x = a if x == b else x
            y = a if y == b else y
            if x != y:
                merged[(min(x, y), max(x, y))] += count
        cross = merged
    return Partition.from_assignment(
        {node: label for label, group in members.items() for node in group})


def node_walk_degree_ranking(net: RoadNetwork) -> list[str]:
    """The degree attack's ranking: walk the nodes in descending degree
    (node-id order across equal degrees) and take each unseen incident edge."""
    ranking = []
    seen = set()
    for node in sorted(net.node_ids, key=lambda v: (-net.degree(v), v)):
        for eid, _ in net.adjacency[node]:
            if eid not in seen:
                seen.add(eid)
                ranking.append(eid)
    return ranking
