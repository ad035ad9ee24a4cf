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
import pytest

import roadgame.routing as routing
from roadgame.analysis import (_EIGEN_MAX_ITER, _EIGEN_TOL, _FIXED_BITS, Partition, _xlogx,
                               centrality, partition_cutset)
from roadgame.attacks import AttackPlan, _partition_for
from roadgame.errors import DomainError
from roadgame.network import RoadNetwork, _dijkstra
from roadgame.rng import substream
from roadgame.routing import RoutePlan
from roadgame.simulate import (CRITICALLY_LATE, DEFAULT_AMBUSH_DELAY_S, LATE, ON_TIME,
                               JobCard, RoundMetrics, Stop, TourResult, _compile_route)


def incident_edges(net: RoadNetwork) -> dict[str, list[tuple[str, str]]]:
    """Each node's (edge id, neighbour) pairs in edge-id order, from ``net.edges``."""
    incident = {v: [] for v in net.nodes}
    for eid in sorted(net.edges):
        e = net.edges[eid]
        incident[e.u].append((eid, e.v))
        incident[e.v].append((eid, e.u))
    return incident


def enumerate_simple_paths(net: RoadNetwork, src: str, dst: str):
    """All simple src->dst paths as (edge tuple, exact weight) pairs."""
    times = {eid: net.edges[eid].travel_time_s for eid in net.edge_ids}
    incident = incident_edges(net)
    paths = []

    def walk(node, visited, edges, weight):
        if node == dst:
            paths.append((tuple(edges), weight))
            return
        for eid, nxt in incident[node]:
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
                e = net.edges[eid]
                node = e.v if node == e.u else e.u
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


def highs_maximin(a: np.ndarray) -> np.ndarray:
    """The row player's maximin strategy of ``a`` from the HiGHS float LP.

    Skips the calling test when scipy is not installed.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    m, n = a.shape
    # variables: x_0..x_{m-1}, v ; maximise v s.t. A^T x >= v, sum x = 1
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    result = linprog(c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=np.ones(1),
                     bounds=[(0.0, None)] * m + [(None, None)], method="highs")
    assert result.success, result.message
    x = np.maximum(result.x[:m], 0.0)
    return x / x.sum()


def fraction_betweenness(net: RoadNetwork):
    """Brandes node and edge betweenness with a ``Fraction`` per dependency."""
    tt = dict(zip(net.edge_ids, net.travel))  # the times every search reads
    incident = incident_edges(net)
    node_acc = {v: Fraction(0) for v in net.node_ids}
    edge_acc = {e: Fraction(0) for e in net.edge_ids}
    for s in net.node_ids:
        order, dist, _ = _dijkstra(net, net.node_index[s], net.travel)
        order = [net.node_ids[i] for i in order]
        dist = dict(zip(net.node_ids, dist))
        sigma = {s: 1}
        preds = {s: []}
        for w in order[1:]:
            preds[w] = [(v, eid) for eid, v in incident[w]
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


def path_counts(net: RoadNetwork, s: int) -> tuple[list[int], list, list[int]]:
    """Source s's settled order, predecessor lists and shortest-path
    counts sigma from one heap search, summed over the predecessors in
    that order."""
    order, _, preds = _dijkstra(net, s, net.travel)
    sigma = [0] * net.num_nodes
    sigma[s] = 1
    for w in order[1:]:
        for v, _ in preds[w]:
            sigma[w] += sigma[v]
    return order, preds, sigma


def heap_betweenness_sums(net: RoadNetwork, sources):
    """``analysis._betweenness_sums`` of the node indices ``sources`` as one
    heap search per source gave it:
    :func:`path_counts`'s predecessor lists, walked back node by node, each
    node's dependency added as it is reached."""
    n = net.num_nodes
    one = 1 << _FIXED_BITS
    node_sums = [0] * n
    edge_sums = [0] * net.num_edges
    sigma_max = 1
    for s in sources:
        order, preds, sigma = path_counts(net, s)
        sigma_max = max(sigma_max, *sigma)
        own = [0] * n
        for v in order:
            own[v] = one // sigma[v]
        c = own[:]
        for w in reversed(order):
            cw = c[w]
            for v, e in preds[w]:
                c[v] += cw
                edge_sums[e] += sigma[v] * cw
            if w != s:
                node_sums[w] += sigma[w] * (cw - own[w])
    return node_sums, edge_sums, sigma_max


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
    index = net.node_index
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


def float_map_equation_codelength(net: RoadNetwork, freq: dict[str, float],
                                  assignment: dict[str, int]) -> float:
    """Two-level description length of a partition under visit rates ``freq``.

    A node alpha leaks freq[alpha]/deg(alpha) along each edge whose other
    end lies outside its community; those leaks form the community exit
    probabilities of the two-level code.
    """
    communities: dict[int, list[str]] = defaultdict(list)
    for node, label in assignment.items():
        communities[label].append(node)
    incident = incident_edges(net)
    exits: list[float] = []
    modules = 0.0
    for members in communities.values():
        inside = set(members)
        exit_c = 0.0
        for v in members:
            leak = freq[v] / net.degree(v)
            exit_c += leak * sum(1 for _, w in incident[v] if w not in inside)
        exits.append(exit_c)
        p_circ = exit_c + sum(freq[v] for v in members)
        modules += (_xlogx(p_circ) - _xlogx(exit_c)
                    - sum(_xlogx(freq[v]) for v in members))
    s1 = sum(exits)
    return _xlogx(s1) - 2 * sum(_xlogx(x) for x in exits) + modules


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


def _scalar_move(search, i: int, total):
    """Node i's best move in a community search, priced by the cost's
    scalar formulas from ``total``: ``(delta, target, counts, stay)``,
    or None when every neighbour shares its community."""
    step, length = search.cost.step, search.cost.length
    comm, cut, vol = search.comm, search.cut, search.vol
    ext, deg, source = search.ext[i], search.deg[i], comm[i]
    counts: dict[int, int] = {}
    for j, count in search.links[i].items():
        c = comm[j]
        counts[c] = counts.get(c, 0) + count
    stay = counts.pop(source, 0)
    if not counts:
        return None
    left = step(total, cut[source], vol[source], cut[source] - ext + 2 * stay, vol[source] - deg)
    delta, target = min(
        (length(step(left, cut[t], vol[t], cut[t] + ext - 2 * count, vol[t] + deg))
         - length(total), t) for t, count in counts.items())
    return delta, target, counts, stay


def scalar_best_deltas(search) -> list:
    """Each node's smallest change of the cost's length over its moves,
    in the search's current state, as a scalar pass prices it; None for
    a node with no neighbouring community."""
    moves = [_scalar_move(search, i, search.total) for i in range(len(search.comm))]
    return [None if move is None else move[0] for move in moves]


def scalar_sweep(search) -> list[int]:
    """``_CommunitySearch.sweep`` as full scalar passes over every node
    until a pass moves none, with no array screen; the nodes moved, in
    order (empty, so false, when none moved)."""
    moved = []
    while passed := scalar_pass(search):
        moved += passed
    return moved


def scalar_pass(search) -> list[int]:
    """One full scalar pass of single-node moves, every node in index
    order priced from the running state; the nodes moved, in order."""
    moved = []
    for i in range(len(search.comm)):
        move = _scalar_move(search, i, search.total)
        if move is None or move[0] >= search.cost.tol:
            continue
        _, target, counts, stay = move
        source, ext, deg = search.comm[i], search.ext[i], search.deg[i]
        search._set(source, search.cut[source] - ext + 2 * stay, search.vol[source] - deg)
        search._set(target, search.cut[target] + ext - 2 * counts[target],
                    search.vol[target] + deg)
        search.comm[i] = target
        search.members[source].remove(i)
        search.members[target].add(i)
        for c, count in counts.items():
            search._link(source, c, -count)
            if c != target:
                search._link(target, c, count)
        if stay:
            search._link(target, source, stay)
        moved.append(i)
    return moved


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
    index = net.node_index
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
    incident = incident_edges(net)
    ranking = []
    seen = set()
    for node in sorted(net.node_ids, key=lambda v: (-len(incident[v]), v)):
        for eid, _ in incident[node]:
            if eid not in seen:
                seen.add(eid)
                ranking.append(eid)
    return ranking


def _reference_min_over_ends(net: RoadNetwork, node_scores) -> dict[str, float]:
    """Score each edge by the smaller of its two endpoints' scores."""
    return {eid: min(node_scores[net.edges[eid].u], node_scores[net.edges[eid].v])
            for eid in net.edge_ids}


def _by_score(scores: dict[str, float], ids) -> list[str]:
    """Edge ids by descending score, ties by edge id."""
    return sorted(ids, key=lambda eid: (-scores[eid], eid))


def reference_ranking(net: RoadNetwork, strategy: str) -> tuple[str, ...]:
    """A graph-derived strategy's ranking built on the id-keyed public
    analyses, as ``attacks._graph_ranking`` built it before rankings held
    edge indices (its no-cutset warning left out)."""
    if strategy == "degree":
        # nodes in descending degree (node-id order across equal degrees);
        # each edge sits at its earlier endpoint, edges of one node by id
        degree = centrality(net, "degree").node_scores
        order = sorted(net.node_ids, key=lambda v: (-degree[v], v))
        first = _reference_min_over_ends(net, {v: i for i, v in enumerate(order)})
        ranking = sorted(net.edge_ids, key=lambda eid: (first[eid], eid))
    elif strategy in ("eigen_c", "betweenness"):
        kind = "eigenvector" if strategy == "eigen_c" else "betweenness"
        ranking = _by_score(centrality(net, kind).edge_scores, net.edge_ids)
    else:
        cutset = partition_cutset(net, _partition_for(net, strategy))
        scores = centrality(net, "betweenness").edge_scores
        ranking = (_by_score(scores, cutset)
                   + _by_score(scores, [e for e in net.edge_ids if e not in cutset]))
    return tuple(ranking)


def reference_inverse_scores(net: RoadNetwork) -> dict[str, float]:
    """``inverse_centrality_scores`` on the id-keyed public centralities,
    as it was computed before the weights were kept in edge-index order."""
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

    return _reference_min_over_ends(net, {v: oriented(v) for v in net.node_ids})


def reference_random_walk(net: RoadNetwork, card: JobCard, seed: int) -> RoutePlan:
    """``plan_route``'s random_walk plan, each leg a uniform walk over the
    node's incident edges in edge-id order, abandoned after the step cap
    that ``routing.WALK_STEP_CAP_FACTOR`` sets at call time; legs hold
    edge indices, as plans do."""
    incident = incident_edges(net)
    rng = substream(seed, "random-walk")
    points = [card.warehouse] + [stop.node_id for stop in card.stops] + [card.warehouse]
    step_cap = routing.WALK_STEP_CAP_FACTOR * net.num_nodes
    legs = []
    for i, (a, b) in enumerate(zip(points, points[1:])):
        path, node = [], a
        while node != b:
            if len(path) == step_cap:
                return RoutePlan("random_walk", tuple(legs), seed, failed_leg=i)
            eid, node = incident[node][int(rng.integers(len(incident[node])))]
            path.append(net.edge_index[eid])
        legs.append(tuple(path))
    return RoutePlan("random_walk", tuple(legs), seed)


def edge_loop_mixing_kernel(net: RoadNetwork) -> np.ndarray:
    """The mixing walk kernel built one edge at a time, then one diagonal
    entry per row: P[i, j] = min(1/d_i, 1/d_j) for adjacent i, j."""
    index = net.node_index
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


def dense_adjacency(net: RoadNetwork) -> np.ndarray:
    """The n x n adjacency matrix, one row of links at a time: the matrix
    the network memo held for the dense analyses before they built from
    the link arrays."""
    a = np.zeros((net.num_nodes, net.num_nodes))
    for i, row in enumerate(net.links):
        a[i, [j for j, _ in row]] = 1.0
    return a


def dense_mixing_kernel(net: RoadNetwork) -> np.ndarray:
    """The mixing walk kernel as ``min.outer(1/d, 1/d) * A``, then the diagonal fill."""
    a = dense_adjacency(net)
    inverse = 1.0 / np.maximum(a.sum(axis=1), 1.0)
    p = np.minimum.outer(inverse, inverse)
    p *= a
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p


def dense_modularity_matrix(net: RoadNetwork) -> np.ndarray:
    """B = A - kk^T/2m as ``a - outer(k, k) / 2m``, on a network with an edge."""
    a = dense_adjacency(net)
    deg = a.sum(axis=1)
    b = np.outer(deg, deg)
    b /= float(deg.sum())
    np.subtract(a, b, out=b)
    return b


def dense_eigenvector_scores(net: RoadNetwork) -> list[float]:
    """Eigenvector scores by power iteration on ``dense_adjacency`` + I;
    None where the iteration does not converge."""
    a = dense_adjacency(net)
    v = np.ones(net.num_nodes)
    for _ in range(_EIGEN_MAX_ITER):
        av = a @ v
        lam = float(v @ av) / float(v @ v)
        if float(np.max(np.abs(av - lam * v))) / float(np.max(np.abs(v))) <= _EIGEN_TOL:
            return (v / v.max()).tolist()
        v = av + v
        v = v / v.max()
    return None


def eigh_eigenvector_scores(net: RoadNetwork) -> list[float]:
    """Eigenvector scores by numpy's dense symmetric eigensolver, an
    algorithm independent of the power iteration: the eigenvector of
    ``dense_adjacency``'s largest eigenvalue, scaled so that its largest
    entry is 1."""
    _, vectors = np.linalg.eigh(dense_adjacency(net))
    v = vectors[:, -1]
    return (v / v[np.argmax(np.abs(v))]).tolist()


def classify_arrival(arrival_s: float, stop: Stop) -> str:
    """One delivery's status by the module rule of ``roadgame.simulate``:
    late after the window closes, critically late past half a window more."""
    if arrival_s <= stop.window_end_s:
        return ON_TIME
    if arrival_s - stop.window_end_s > 0.5 * stop.window_size_s:
        return CRITICALLY_LATE
    return LATE


def plan_ids(net: RoadNetwork, plan: AttackPlan) -> frozenset[str]:
    """The edge ids of an attack plan's edge indices."""
    return frozenset(net.edge_ids[e] for e in plan.edges)


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

    attacked = plan_ids(net, attack)
    clock = card.day_start_s
    ambushes = 0
    arrivals: list[float] = []
    statuses: list[str] = []
    tour_time = math.inf

    for i, leg in enumerate(plan.legs):
        for eid in (net.edge_ids[e] for e in leg):
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


def reference_metrics(tours: list[TourResult]) -> RoundMetrics:
    """One round's metrics from its per-tour results, on 1-D arrays.

    The per-round form that the library's plans x couriers scorer
    replaced: a 1-D ``mean`` (a sum of quotients when the finite sum
    passes the float range) and a 1-D ``np.percentile``, inf when a
    neighbouring order statistic is inf.
    """
    total = sum(len(t.statuses) for t in tours)
    late = sum(1 for t in tours for s in t.statuses if s != ON_TIME)
    critical = sum(1 for t in tours for s in t.statuses if s == CRITICALLY_LATE)
    times = np.array([t.tour_time_s for t in tours])
    with np.errstate(over="ignore"):
        mean = float(times.mean()) if len(times) else 0.0
        if mean == math.inf and np.isfinite(times).all():
            mean = float((times / len(times)).sum())
    p95 = 0.0
    if len(times):
        ordered = np.sort(times)
        position = 0.95 * (len(ordered) - 1)
        if math.isinf(ordered[math.floor(position)]) or math.isinf(ordered[math.ceil(position)]):
            p95 = math.inf
        else:
            p95 = float(np.percentile(times, 95))
    return RoundMetrics(
        late_fraction=late / total if total else 0.0,
        critical_fraction_of_late=critical / late if late else 0.0,
        mean_tour_time_s=mean,
        p95_tour_time_s=p95,
        total_deliveries=total,
        total_ambushes=sum(t.ambush_count for t in tours),
    )
