"""Acceptance suite: one test per release criterion, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Experiment-level criteria drive the command-line interface; the
numeric-oracle criteria exercise the library directly against the
independent brute-force oracles.
"""

import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from conftest import build_net
from oracles import brute_betweenness, brute_modularity, closed_form_2x2_value
from roadgame.analysis import centrality, modularity, Partition
from roadgame.attacks import empty_attack_plan, select_attack_edges
from roadgame.game import find_pure_nash, solve_zero_sum
from roadgame.routing import plan_route
from roadgame.rng import substream
from roadgame.simulate import JobCard, Stop, run_tour
from roadgame.synth import generate_city, make_fleet, parse_jobcards, write_jobcards

BYPASS_CITY_CFG = """\
network_kind = two_cluster
cluster_size_a = 256
cluster_size_b = 256
bridges = 2
edge_time_s = 20
bypass_count = 14
bypass_time_s = 300
fleet_kind = random
fleet_couriers = 16
fleet_stops = 4
fleet_slack_s = 3300
fleet_warehouse = a00x00
fleet_stop_prefixes = b,a
fleet_seed = 7
k = 30
ambush_delay_s = 600
attacks = betweenness,random
defenses = shortest,mixnet
seeds = 0,1,2,3,4,5,6,7,8,9
"""

NO_BYPASS_CFG = """\
network_kind = two_cluster
cluster_size_a = 16
cluster_size_b = 16
bridges = 2
edge_time_s = 60
fleet_kind = random
fleet_couriers = 10
fleet_stops = 4
fleet_slack_s = 300
fleet_seed = 11
k = 30
ambush_delay_s = 600
seeds = 0,1,2
attacker_counts = 1,5,10,20,30
"""


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "roadgame.cli", *args],
                          capture_output=True, text=True)


def read_csv_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def report(number, ok, message):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {number}: {message}"


def random_connected_net(seed, n=10, p=0.35):
    rng = substream(seed, "acceptance-graph")
    names = [f"n{i}" for i in range(n)]
    while True:
        edges = []
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    edges.append((f"e{count:02d}", names[i], names[j],
                                  float(int(rng.integers(1, 6)))))
                    count += 1
        try:
            return build_net([(e, u, v) for e, u, v, _ in edges],
                             times={e: w for e, u, v, w in edges})
        except Exception:
            continue


def test_criterion_1_graph_analysis_oracles(two_triangles_bridge, two_cliques_bridge,
                                            star5, c6, k4, k5, square):
    started = time.monotonic()
    fixtures = [two_triangles_bridge, two_cliques_bridge, star5, c6, k4, k5, square,
                random_connected_net(0), random_connected_net(1)]
    for net in fixtures:
        scores = centrality(net, "betweenness")
        oracle_nodes, oracle_edges = brute_betweenness(net)
        assert scores.node_scores == oracle_nodes
        assert scores.edge_scores == oracle_edges

        eig = centrality(net, "eigenvector")
        order = net.node_ids
        v = np.array([eig.node_scores[x] for x in order])
        a = np.zeros((len(order), len(order)))
        idx = {x: i for i, x in enumerate(order)}
        for e in net.edges.values():
            a[idx[e.u], idx[e.v]] = a[idx[e.v], idx[e.u]] = 1.0
        lam = float(v @ (a @ v)) / float(v @ v)
        assert np.max(np.abs(a @ v - lam * v)) <= 1e-8

        rng = substream(17, "acceptance-partitions")
        for _ in range(4):
            labels = {x: int(rng.integers(0, 3)) for x in net.node_ids}
            part = Partition.from_assignment(labels)
            assert modularity(net, part) == brute_modularity(net, labels)
    elapsed = time.monotonic() - started
    report(1, elapsed < 10.0,
           f"betweenness/modularity exact and eigenvector residual <= 1e-8 on "
           f"{len(fixtures)} fixtures in {elapsed:.1f}s (< 10s)")


def test_criterion_2_planted_cut_recovery(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("network_kind = two_cluster\ncluster_size_a = 16\n"
                   "cluster_size_b = 16\nbridges = 2\nedge_time_s = 60\n")
    strategies = ("infomap", "botgrep", "greedy_mod", "hierarchical_mod", "eigen_mod")
    for strategy in strategies:
        result = run_cli(["--config", str(cfg), "--out", str(tmp_path / strategy),
                          "attack", "--strategy", strategy, "--k", "2"])
        assert result.returncode == 0, result.stderr
        lines = (tmp_path / strategy / f"attack_{strategy}.csv").read_text().splitlines()
        assert lines == ["edge_id", "xbridge0", "xbridge1"], (strategy, lines)
    elapsed = time.monotonic() - started
    report(2, elapsed < 30.0,
           f"all 5 partition attacks select exactly the 2 planted bridges "
           f"in {elapsed:.1f}s (< 30s)")


def test_criterion_3_game_solver_oracles():
    started = time.monotonic()
    eps = 1e-6

    pennies = np.array([[1.0, -1.0], [-1.0, 1.0]])
    eq = solve_zero_sum(pennies, epsilon=eps)
    assert abs(eq.value) <= eps
    assert np.allclose(eq.attacker_strategy, [0.5, 0.5], atol=eps)
    assert np.allclose(eq.defender_strategy, [0.5, 0.5], atol=eps)

    closed = np.array([[3.0, 1.0], [0.0, 2.0]])
    eq2 = solve_zero_sum(closed, epsilon=eps)
    assert abs(eq2.value - closed_form_2x2_value(3, 1, 0, 2)) <= eps
    assert np.allclose(eq2.attacker_strategy, [0.5, 0.5], atol=eps)
    assert np.allclose(eq2.defender_strategy, [0.25, 0.75], atol=eps)

    saddle = np.array([[3.0, 1.0], [5.0, 2.0]])
    pure = find_pure_nash(saddle)
    eq3 = solve_zero_sum(saddle, epsilon=eps)
    assert pure == [(1, 1)]
    assert abs(eq3.value - saddle[1, 1]) <= eps

    elapsed = time.monotonic() - started
    report(3, elapsed < 1.0,
           f"matching pennies, closed-form 2x2, and saddle agreement all within "
           f"1e-6 in {elapsed:.2f}s (< 1s)")


def test_criterion_4_headline_separations(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(BYPASS_CITY_CFG)
    out = tmp_path / "out"
    result = run_cli(["--config", str(cfg), "--out", str(out), "matrix"])
    assert result.returncode == 0, result.stderr
    payoff = {(row["attack"], row["defense"]): float(row["payoff_mean"])
              for row in read_csv_rows(out / "payoff_matrix.csv")}
    bs = payoff[("betweenness", "shortest")]
    rs = payoff[("random", "shortest")]
    bm = payoff[("betweenness", "mixnet")]
    elapsed = time.monotonic() - started
    ok = bs >= 2 * rs and bm <= 0.5 * bs and elapsed < 300.0
    report(4, ok,
           f"30 attackers, 10 seeds: betweenness/shortest {bs:.3f} >= 2x random "
           f"{rs:.3f}; mixnet {bm:.3f} <= 0.5x shortest; {elapsed:.0f}s (< 300s)")


def test_criterion_5_window_sweep_monotonicity(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(NO_BYPASS_CFG)
    out = tmp_path / "out"
    result = run_cli(["--config", str(cfg), "--out", str(out),
                      "sweep", "--axis", "window"])
    assert result.returncode == 0, result.stderr
    rows = read_csv_rows(out / "sweep_attackers.csv")
    assert rows == []  # header-only companion file
    series = defaultdict(list)
    for row in read_csv_rows(out / "sweep_window.csv"):
        key = (row["attack"], row["defense"], row["seed"])
        series[key].append((float(row["window_mult"]), float(row["late_frac"])))
    assert len(series) == 9 * 3 * 3
    for key, points in series.items():
        points.sort()
        lates = [late for _, late in points]
        assert all(b <= a + 1e-12 for a, b in zip(lates, lates[1:])), key
        assert points[0][0] == 1.0 and points[-1][0] == 3.5
    residual = min(late for (attack, defense, _), points in series.items()
                   for mult, late in points
                   if attack == "betweenness" and defense == "shortest" and mult == 3.5)
    elapsed = time.monotonic() - started
    ok = residual > 0 and elapsed < 300.0
    report(5, ok,
           f"late fraction nonincreasing across 1.0..3.5 for all 81 series; "
           f"betweenness/shortest still {residual:.2f} late at 3.5x; "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_6_nested_attacker_monotonicity(tmp_path):
    started = time.monotonic()
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(NO_BYPASS_CFG)
    out = tmp_path / "out"
    result = run_cli(["--config", str(cfg), "--out", str(out), "--nested-plans",
                      "sweep", "--axis", "attackers"])
    assert result.returncode == 0, result.stderr
    series = defaultdict(list)
    for row in read_csv_rows(out / "sweep_attackers.csv"):
        key = (row["attack"], row["defense"], row["seed"])
        series[key].append((int(row["k"]), float(row["mean_tour_s"]),
                            float(row["p95_tour_s"])))
    assert len(series) == 9 * 3 * 3
    for key, points in series.items():
        points.sort()
        assert [k for k, _, _ in points] == [1, 5, 10, 20, 30]
        means = [m for _, m, _ in points]
        p95s = [p for _, _, p in points]
        assert all(b >= a - 1e-9 for a, b in zip(means, means[1:])), key
        assert all(b >= a - 1e-9 for a, b in zip(p95s, p95s[1:])), key
    elapsed = time.monotonic() - started
    report(6, elapsed < 120.0,
           f"per-seed tour times nondecreasing in k over {{1,5,10,20,30}} for all "
           f"81 nested series in {elapsed:.0f}s (< 120s)")


def test_criterion_7_matrix_determinism(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(NO_BYPASS_CFG.replace("seeds = 0,1,2", "seeds = 0,1")
                   + "attacks = betweenness,random,botgrep\ndefenses = shortest,mixnet\n")
    outputs = []
    for name, workers in (("r1", "1"), ("r2", "1"), ("r3", "3")):
        out = tmp_path / name
        result = run_cli(["--config", str(cfg), "--out", str(out),
                          "--workers", workers, "matrix"])
        assert result.returncode == 0, result.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = outputs[0] == outputs[1] == outputs[2]
    report(7, ok, "two identical matrix runs and a 3-worker run produced "
                  "byte-identical output trees")


def test_criterion_8_tour_accounting_identity(planted32):
    card = JobCard("c0", "a00x00",
                   (Stop("b02x03", 0.0, 100_000.0), Stop("a03x01", 0.0, 100_000.0),
                    Stop("b03x03", 0.0, 100_000.0)))
    plan = plan_route(planted32, card, "shortest", 0)
    clean = run_tour(planted32, plan, card, empty_attack_plan(planted32), 600.0)
    failures = []
    for strategy, k in (("betweenness", 2), ("betweenness", 10), ("random", 8)):
        attack = select_attack_edges(planted32, strategy, k, seed=3)
        hit = run_tour(planted32, plan, card, attack, 600.0)
        if hit.tour_time_s - clean.tour_time_s != 600.0 * hit.ambush_count:
            failures.append((strategy, k))
    report(8, not failures,
           "tour_time(attacked) - tour_time(clean) == 600s x ambush_count, exact, "
           "on the replayed-route fixture")


def test_criterion_9_synthetic_trace_fidelity(tmp_path):
    base_net = generate_city("grid", rows=6, cols=6, edge_time_s=60)
    base_fleet = make_fleet(base_net, 5, 3, 900.0, seed=21)
    base_dir = tmp_path / "base"
    base_dir.mkdir()
    from roadgame.network import save_network
    save_network(base_net, base_dir / "nodes.csv", base_dir / "edges.csv")
    write_jobcards(base_fleet, base_dir / "cards.csv")

    cfg = tmp_path / "cfg.txt"
    cfg.write_text("network_kind = grid\ngrid_rows = 9\ngrid_cols = 9\n"
                   "edge_time_s = 60\n")
    out = tmp_path / "out"
    result = run_cli(["--config", str(cfg), "--out", str(out), "synth",
                      "--base-nodes", str(base_dir / "nodes.csv"),
                      "--base-edges", str(base_dir / "edges.csv"),
                      "--base-cards", str(base_dir / "cards.csv"),
                      "--tolerance", "0.10"])
    assert result.returncode == 0, result.stderr

    synth_cards = parse_jobcards(out / "synthetic_cards.csv")
    base_by_id = {card.courier_id: card for card in base_fleet}
    assert len(synth_cards) == len(base_fleet)
    for card in synth_cards:
        base = base_by_id[card.courier_id]
        assert len(card.stops) == len(base.stops)
        for synth_stop, base_stop in zip(card.stops, base.stops):
            assert synth_stop.window_size_s == base_stop.window_size_s
            assert synth_stop.window_start_s == base_stop.window_start_s

    audit_rows = read_csv_rows(out / "synthetic_legs.csv")
    assert len(audit_rows) == sum(len(card.stops) for card in base_fleet)
    for row in audit_rows:
        base_leg = float(row["base_leg_s"])
        synth_leg = float(row["synth_leg_s"])
        tol = float(row["tolerance_used"])
        assert abs(synth_leg - base_leg) <= tol * base_leg + 1e-9, row
    report(9, True,
           f"{len(audit_rows)} synthesized legs all within recorded tolerance; "
           f"window sizes and starts preserved exactly")
