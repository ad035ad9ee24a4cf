"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (enumeration, exhaustive search,
exact rational arithmetic).  The brute-force oracles share no code paths
with the library implementations they check; the reference
implementations at the end are the slower forms that faster library
code replaced, kept so the fast forms can be checked for equal output.
"""

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations

import numpy as np

from roadgame.analysis import Partition, _xlogx
from roadgame.attacks import AttackPlan
from roadgame.errors import DomainError
from roadgame.network import RoadNetwork, _dijkstra
from roadgame.routing import RoutePlan
from roadgame.simulate import (CRITICALLY_LATE, DEFAULT_AMBUSH_DELAY_S, JobCard,
                               TourResult, _compile_route, classify_arrival)


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


def exact_modularity(net: RoadNetwork, labels: dict[str, int]) -> Fraction:
    """Literal double-sum Newman modularity as an exact rational."""
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
    return total / (2 * m)


def brute_modularity(net: RoadNetwork, labels: dict[str, int]) -> float:
    """``exact_modularity`` rounded to a float."""
    return float(exact_modularity(net, labels))


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



def float_flow_partition(net: RoadNetwork) -> Partition:
    """infomap's greedy map-equation search on float visit rates deg/2m.

    Exit and visit totals are floats per community.  Each move target is
    scored on its own, with the node's flow to the source and the target
    summed afresh; each merge re-sums the flow between the two
    communities from the smaller one's members.
    """
    if net.num_edges == 0:
        return Partition.from_assignment({v: 0 for v in net.node_ids})
    index = {v: i for i, v in enumerate(net.node_ids)}
    n = net.num_nodes
    freq = [net.degree(v) / (2 * net.num_edges) for v in net.node_ids]
    node_flow = [[] for _ in range(n)]
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        f = freq[i] / net.degree(e.u) + freq[j] / net.degree(e.v)
        node_flow[i].append((j, f))
        node_flow[j].append((i, f))
    comm = list(range(n))
    members = {i: {i} for i in range(n)}
    exit_ = {i: freq[i] for i in range(n)}
    p_sum = {i: freq[i] for i in range(n)}
    totals = (sum(exit_.values()), sum(_xlogx(x) for x in exit_.values()),
              sum(_xlogx(exit_[c] + p_sum[c]) - _xlogx(exit_[c]) for c in members))
    const = -sum(_xlogx(x) for x in freq)

    def length(s1, s2, modules):
        return _xlogx(s1) - 2 * s2 + modules + const

    def term(c):
        return _xlogx(exit_[c] + p_sum[c]) - _xlogx(exit_[c])

    def flow_to(i, community):
        return sum(f for j, f in node_flow[i] if comm[j] == community)

    def move_updates(i, target):
        source = comm[i]
        return ((source, exit_[source] - freq[i] + flow_to(i, source), p_sum[source] - freq[i]),
                (target, exit_[target] + freq[i] - flow_to(i, target), p_sum[target] + freq[i]))

    def moved(updates):
        s1, s2, modules = totals
        for c, new_exit, new_p in updates:
            s1 += new_exit - exit_[c]
            s2 += _xlogx(new_exit) - _xlogx(exit_[c])
            modules += (_xlogx(new_exit + new_p) - _xlogx(new_exit)) - term(c)
        return s1, s2, modules

    def merged(a, b):
        small, large = (a, b) if len(members[a]) <= len(members[b]) else (b, a)
        w_ab = sum(flow_to(i, large) for i in members[small])
        return exit_[a] + exit_[b] - w_ab, p_sum[a] + p_sum[b]

    while True:
        improving = True
        while improving:
            improving = False
            for i in range(n):
                best = None
                for target in sorted({comm[j] for j, _ in node_flow[i]} - {comm[i]}):
                    delta = length(*moved(move_updates(i, target))) - length(*totals)
                    if delta < -1e-12 and (best is None or (delta, target) < best):
                        best = (delta, target)
                if best is None:
                    continue
                source, target = comm[i], best[1]
                updates = move_updates(i, target)
                totals = moved(updates)
                for c, new_exit, new_p in updates:
                    exit_[c], p_sum[c] = new_exit, new_p
                members[source].discard(i)
                members[target].add(i)
                comm[i] = target
                if not members[source]:
                    del members[source], exit_[source], p_sum[source]
                improving = True
        pairs = {(min(comm[i], comm[j]), max(comm[i], comm[j]))
                 for i in range(n) for j, _ in node_flow[i] if comm[i] != comm[j]}
        best_merge = None
        for a, b in sorted(pairs):
            exit_new, p_new = merged(a, b)
            s1, s2, modules = totals
            delta = length(s1 - exit_[a] - exit_[b] + exit_new,
                           s2 - _xlogx(exit_[a]) - _xlogx(exit_[b]) + _xlogx(exit_new),
                           modules - term(a) - term(b)
                           + (_xlogx(exit_new + p_new) - _xlogx(exit_new))) - length(*totals)
            if delta < -1e-12 and (best_merge is None or (delta, a, b) < best_merge):
                best_merge = (delta, a, b)
        if best_merge is None:
            return Partition.from_assignment(dict(zip(net.node_ids, comm)))
        _, a, b = best_merge
        exit_new, p_new = merged(a, b)
        s1, s2, modules = totals
        s1 += exit_new - exit_[a] - exit_[b]
        s2 += _xlogx(exit_new) - _xlogx(exit_[a]) - _xlogx(exit_[b])
        modules += ((_xlogx(exit_new + p_new) - _xlogx(exit_new)) - term(a) - term(b))
        totals = (s1, s2, modules)
        for i in members[b]:
            comm[i] = a
        members[a] |= members[b]
        exit_[a], p_sum[a] = exit_new, p_new
        del members[b], exit_[b], p_sum[b]


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


def _sigma_tot_local_moves(nodes, neigh, k, m, comm):
    """Greedy single-node moves until stable; True if any node moved.  A
    node moves on a strict gain 2*m*k_in - sigma_tot*k_i over staying,
    ties to the smallest community label."""
    sigma_tot = defaultdict(int)
    for v in nodes:
        sigma_tot[comm[v]] += k[v]
    moved_any = False
    improving = True
    while improving:
        improving = False
        for v in nodes:
            old = comm[v]
            sigma_tot[old] -= k[v]
            links = defaultdict(int)
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


def sigma_tot_hierarchical_merge(net: RoadNetwork) -> Partition:
    """hierarchical_mod's multi-level modularity ascent with each
    community's degree total ``sigma_tot`` kept per level and every level
    coarsened by a pass over the node links."""
    m = net.num_edges
    index = {v: i for i, v in enumerate(net.node_ids)}
    neigh = {i: {} for i in range(net.num_nodes)}
    for e in net.edges.values():
        i, j = index[e.u], index[e.v]
        neigh[i][j] = neigh[i].get(j, 0) + 1
        neigh[j][i] = neigh[j].get(i, 0) + 1
    nodes = list(neigh)
    loops = {v: 0 for v in nodes}
    k = {v: sum(neigh[v].values()) for v in nodes}
    node_map = dict(index)  # original -> current id
    while True:
        comm = {v: v for v in nodes}
        if not _sigma_tot_local_moves(nodes, neigh, k, m, comm):
            break
        relabel = {c: i for i, c in enumerate(sorted(set(comm.values())))}
        node_map = {v: relabel[comm[node_map[v]]] for v in node_map}
        new_nodes = sorted(relabel.values())
        new_neigh = {v: {} for v in new_nodes}
        new_loops = {v: 0 for v in new_nodes}
        for v in nodes:
            cv = relabel[comm[v]]
            new_loops[cv] += loops[v]
            for u, w in neigh[v].items():
                cu = relabel[comm[u]]
                if cu == cv:
                    new_loops[cv] += w  # counted from both ends
                else:
                    new_neigh[cv][cu] = new_neigh[cv].get(cu, 0) + w
        nodes, neigh, loops = new_nodes, new_neigh, new_loops
        k = {v: sum(neigh[v].values()) + loops[v] for v in nodes}
    return Partition.from_assignment(node_map)


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


def reference_tour(net: RoadNetwork, plan: RoutePlan, card: JobCard,
                   attack: AttackPlan, ambush_delay_s: float = DEFAULT_AMBUSH_DELAY_S) -> TourResult:
    """Execute one tour under an attack plan, edge by edge.

    Raises DomainError when the route does not structurally match the
    card.  A plan whose walk failed marks all remaining deliveries as
    critically late with infinite arrival.  This is the reference that
    the batched evaluation in ``run_rounds`` reproduces bit for bit.
    """
    if not ambush_delay_s > 0:
        raise DomainError("ambush delay must be > 0")
    _compile_route(net, plan, card)

    attacked = attack.edges
    clock = card.day_start_s
    ambushes = 0
    arrivals: list[float] = []
    statuses: list[str] = []
    tour_time = math.inf

    for i, leg in enumerate(plan.legs):
        for eid in leg:
            clock += net.edges[eid].travel_time_s
            if eid in attacked:
                clock += ambush_delay_s
                ambushes += 1
        if i < len(card.stops):
            stop = card.stops[i]
            arrival = max(clock, stop.window_start_s)
            clock = arrival
            arrivals.append(arrival)
            statuses.append(classify_arrival(arrival, stop))
        else:
            tour_time = clock - card.day_start_s

    if plan.failed_leg is not None:
        for _ in range(len(card.stops) - len(arrivals)):
            arrivals.append(math.inf)
            statuses.append(CRITICALLY_LATE)
        tour_time = math.inf

    return TourResult(card.courier_id, tuple(arrivals), tuple(statuses),
                      ambushes, tour_time)
