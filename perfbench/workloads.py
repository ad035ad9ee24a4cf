"""Benchmark workloads: seeded roadgame configs and the checks on their reports.

A workload is a config (flat ``key = value`` lines, as the CLI reads them),
a CLI command and the number of rounds it simulates.  ``--seed 0`` gives
the reference inputs; any other seed draws a fresh ``fleet_seed`` and a
fresh list of round seeds of the same length, so the amount of work is
the same and only the inputs change.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

ATTACKS = ("random", "degree", "eigen_c", "betweenness", "infomap", "botgrep",
           "greedy_mod", "hierarchical_mod", "eigen_mod")
MATRIX_DEFENSES = ("shortest", "inverse", "mixnet")
ALL_DEFENSES = ("shortest", "random_walk", "disjoint", "inverse", "mixnet")
ATTACKER_COUNTS = (1, 5, 10, 20, 30, 40, 50)

REPORTS = ("payoff_matrix.csv", "critical_delays.csv", "equilibria.csv",
           "sweep_window.csv", "sweep_attackers.csv", "manifest.txt")

# The 512-node bypass city of the acceptance suite (criterion 4).
BYPASS_CITY = {
    "network_kind": "two_cluster",
    "cluster_size_a": "256",
    "cluster_size_b": "256",
    "bridges": "2",
    "edge_time_s": "20",
    "bypass_count": "14",
    "bypass_time_s": "300",
    "fleet_kind": "random",
    "fleet_couriers": "16",
    "fleet_stops": "4",
    "fleet_slack_s": "3300",
    "fleet_warehouse": "a00x00",
    "fleet_stop_prefixes": "b,a",
    "k": "30",
    "ambush_delay_s": "600",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]      # CLI subcommand and its arguments
    config: dict[str, str]        # config keys other than fleet_seed and seeds
    default_fleet_seed: int
    default_seeds: tuple[int, ...]
    attacks: tuple[str, ...]
    defenses: tuple[str, ...]
    attacker_counts: tuple[int, ...] = ()   # sweep points; empty for a matrix
    headline: bool = False        # check the paper's bypass-city separation at the default seed

    @property
    def is_sweep(self) -> bool:
        return bool(self.attacker_counts)

    @property
    def workers(self) -> int:
        return int(self.config.get("workers", "1"))

    @property
    def rounds(self) -> int:
        points = len(self.attacker_counts) if self.is_sweep else 1
        return len(self.attacks) * len(self.defenses) * len(self.default_seeds) * points

    def inputs(self, seed: int) -> tuple[int, tuple[int, ...]]:
        """(fleet_seed, round seeds) for a workload seed."""
        if seed == DEFAULT_SEED:
            return self.default_fleet_seed, self.default_seeds
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        round_seeds = tuple(rng.sample(range(1_000_000), len(self.default_seeds)))
        return rng.randrange(1_000_000), round_seeds

    def config_text(self, seed: int, workers: int | None = None) -> str:
        fleet_seed, round_seeds = self.inputs(seed)
        keys = dict(self.config)
        keys["fleet_seed"] = str(fleet_seed)
        keys["seeds"] = ",".join(str(s) for s in round_seeds)
        if workers is not None:
            keys["workers"] = str(workers)
        return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _workloads() -> dict[str, Workload]:
    grid_matrix = Workload(
        name="grid-matrix", command=("matrix",),
        config={"workers": "1"},
        default_fleet_seed=0, default_seeds=tuple(range(10)),
        attacks=ATTACKS, defenses=MATRIX_DEFENSES)
    bypass_matrix = Workload(
        name="bypass-matrix", command=("matrix",),
        config={**BYPASS_CITY, "defenses": ",".join(MATRIX_DEFENSES), "workers": "2"},
        default_fleet_seed=7, default_seeds=(0, 1),
        attacks=ATTACKS, defenses=MATRIX_DEFENSES, headline=True)
    sweep = Workload(
        name="grid-attacker-sweep", command=("sweep", "--axis", "attackers"),
        config={"defenses": ",".join(ALL_DEFENSES), "nested_plans": "true",
                "workers": "1"},
        default_fleet_seed=0, default_seeds=(0, 1, 2, 3),
        attacks=ATTACKS, defenses=ALL_DEFENSES, attacker_counts=ATTACKER_COUNTS)
    return {w.name: w for w in (grid_matrix, bypass_matrix, sweep)}


WORKLOADS = _workloads()


# -- report checks -------------------------------------------------------------

EPSILON_LIMIT = 1e-6


def digests(out_dir: Path) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in REPORTS}


def _rows(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _fraction(text: str) -> bool:
    value = float(text)
    return math.isfinite(value) and 0.0 <= value <= 1.0


def check_reports(workload: Workload, out_dir: Path, seed: int) -> list[str]:
    """Problems found in one run's reports; an empty list means valid.

    The headline separation is checked only on the reference inputs: with
    two round seeds it is a statistical property, and other seeds need not
    show it.
    """
    problems: list[str] = []
    missing = [name for name in REPORTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing reports: {', '.join(missing)}"]
    payoff = _rows(out_dir / "payoff_matrix.csv")
    critical = _rows(out_dir / "critical_delays.csv")
    equilibria = _rows(out_dir / "equilibria.csv")
    attackers = _rows(out_dir / "sweep_attackers.csv")
    cells = len(workload.attacks) * len(workload.defenses)

    if workload.is_sweep:
        expected = cells * len(workload.default_seeds) * len(workload.attacker_counts)
        if len(attackers) != expected:
            problems.append(f"sweep_attackers.csv has {len(attackers)} rows, expected {expected}")
        if payoff or critical or equilibria:
            problems.append("a sweep wrote matrix rows")
        counts = {int(row["k"]) for row in attackers}
        if counts != set(workload.attacker_counts):
            problems.append(f"sweep attacker counts {sorted(counts)}")
        for row in attackers:
            if not (_fraction(row["late_frac"]) and _fraction(row["crit_frac_of_late"])):
                problems.append(f"sweep row has a fraction outside [0, 1]: {row}")
                break
        return problems

    if len(payoff) != cells or len(critical) != cells:
        problems.append(f"payoff/critical rows {len(payoff)}/{len(critical)}, expected {cells}")
    for row in payoff:
        if not _fraction(row["payoff_mean"]) or not math.isfinite(float(row["payoff_std"])):
            problems.append(f"payoff cell is not a finite late fraction: {row}")
        if int(row["n"]) != len(workload.default_seeds):
            problems.append(f"payoff cell averages {row['n']} seeds: {row}")
    mixed = [row for row in equilibria if row["kind"] == "mixed"]
    if len(mixed) != len(workload.attacks) + len(workload.defenses):
        problems.append(f"{len(mixed)} mixed-equilibrium rows")
    for row in mixed:
        if not float(row["epsilon"]) <= EPSILON_LIMIT:
            problems.append(f"mixed epsilon {row['epsilon']} exceeds {EPSILON_LIMIT:g}")
            break
    for player in ("attacker", "defender"):
        total = sum(float(row["probability"]) for row in mixed if row["player"] == player)
        if not abs(total - 1.0) <= 1e-6:
            problems.append(f"{player} mixed strategy sums to {total}")
    if attackers or _rows(out_dir / "sweep_window.csv"):
        problems.append("a matrix run wrote sweep rows")
    if workload.headline and seed == DEFAULT_SEED and not problems:
        problems.extend(headline_problems(payoff))
    return problems


def headline_problems(payoff: list[dict[str, str]]) -> list[str]:
    """The paper's bypass-city separation: targeted attacks beat random ones,
    and randomised routing blunts the targeted attack."""
    cell = {(row["attack"], row["defense"]): float(row["payoff_mean"]) for row in payoff}
    targeted = cell[("betweenness", "shortest")]
    random_ = cell[("random", "shortest")]
    mixnet = cell[("betweenness", "mixnet")]
    problems = []
    if not targeted >= 2 * random_:
        problems.append(f"headline: betweenness/shortest {targeted:.3f} "
                        f"< 2x random/shortest {random_:.3f}")
    if not mixnet <= 0.5 * targeted:
        problems.append(f"headline: betweenness/mixnet {mixnet:.3f} "
                        f"> 0.5x betweenness/shortest {targeted:.3f}")
    return problems
