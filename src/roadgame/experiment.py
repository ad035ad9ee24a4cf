"""Configuration-driven experiment runner: matrices, sweeps, reports.

Configs are flat ``key = value`` text (lists comma-separated) so a run is
fully described by bytes that hash stably; every output is a pure
function of (config, seeds).  Work is scheduled per (defense, seed): a
route depends on neither the attack nor k, so each task plans every
courier's route once and scores every attack and k against it.  Tasks
are independent and may be dispatched to a process pool; their rows are
regrouped by (attack, defense, seed) and emitted in attack-major order,
so worker count never changes any output byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np
from .attacks import ATTACK_STRATEGIES
from .errors import DomainError, ParseError, ValidationError
from .game import Equilibrium, PayoffMatrix, find_pure_nash, solve_zero_sum
from .network import RoadNetwork, _read_utf8, load_network
from .routing import DEFENSE_STRATEGIES
from .simulate import (JobCard, RoundMetrics, reclassify_with_multiplier,
                       run_rounds)
from .synth import generate_city, make_fleet, parse_jobcards

DEFAULT_DEFENSES = ("shortest", "inverse", "mixnet")
DEFAULT_WINDOW_MULTIPLIERS = tuple(round(1.0 + 0.25 * i, 2) for i in range(11))  # 1.0 .. 3.5
DEFAULT_ATTACKER_COUNTS = (1, 5, 10, 20, 30, 40, 50)
DEFAULT_SEEDS = tuple(range(10))

SWEEP_HEADER = ("attack,defense,k,M,window_mult,seed,late_frac,crit_frac_of_late,"
                "mean_tour_s,p95_tour_s,ambushes")
ROUND_HEADER = SWEEP_HEADER.replace(",seed,", ",")


# list keys that must be nonempty and free of repeats
_LIST_KEYS = ("attacks", "defenses", "seeds", "window_multipliers", "attacker_counts")

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _fmt_exact(x: float) -> str:
    """``_fmt`` when it parses back to ``x``, else the shortest exact form."""
    text = _fmt(x)
    return text if float(text) == x else repr(x)


@dataclass(frozen=True)
class ExperimentConfig:
    # network source
    network_kind: str = "grid"  # files | grid | geometric | two_cluster
    nodes_file: str = ""
    edges_file: str = ""
    grid_rows: int = 8
    grid_cols: int = 8
    edge_time_s: float = 60.0
    geo_n: int = 64
    geo_radius_m: float = 200.0
    geo_side_m: float = 1000.0
    cluster_size_a: int = 16
    cluster_size_b: int = 16
    bridges: int = 2
    bridge_time_s: float = -1.0  # <0 -> edge_time_s
    bypass_count: int = 0
    bypass_time_s: float = -1.0  # <0 -> 10 * edge_time_s
    city_seed: int = 0
    # fleet source
    fleet_kind: str = "random"  # file | random
    jobcards_file: str = ""
    fleet_couriers: int = 10
    fleet_stops: int = 4
    fleet_slack_s: float = 900.0
    fleet_day_start_s: float = 0.0
    fleet_warehouse: str = "auto"
    fleet_stop_prefixes: tuple[str, ...] = ()
    fleet_seed: int = 0
    # game settings
    attacks: tuple[str, ...] = ATTACK_STRATEGIES
    defenses: tuple[str, ...] = DEFAULT_DEFENSES
    k: int = 30
    ambush_delay_s: float = 600.0
    window_multipliers: tuple[float, ...] = DEFAULT_WINDOW_MULTIPLIERS
    attacker_counts: tuple[int, ...] = DEFAULT_ATTACKER_COUNTS
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    nested_plans: bool = False
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        # configs built in code get the parser's finiteness check; the
        # positive keys are refused downstream too, but without their name
        for key, value in vars(self).items():
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValidationError(f"{key} must be finite, got {x!r}")
        for key in ("edge_time_s", "geo_radius_m", "ambush_delay_s", "fleet_slack_s"):
            if not getattr(self, key) > 0:
                raise ValidationError(f"{key} must be > 0, got {getattr(self, key)!r}")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        for key in _LIST_KEYS:
            if not getattr(self, key):
                raise ValidationError(f"{key} must be nonempty")
        for strategy in self.attacks:
            if strategy not in ATTACK_STRATEGIES:
                raise ValidationError(f"unknown attack strategy {strategy!r}")
        for strategy in self.defenses:
            if strategy not in DEFENSE_STRATEGIES:
                raise ValidationError(f"unknown defense strategy {strategy!r}")
        if any(m < 1 for m in self.window_multipliers):
            raise ValidationError("window multipliers must be >= 1")
        if any(k < 1 for k in self.attacker_counts):
            raise ValidationError("attacker counts must be >= 1")
        if self.workers < 1:
            raise ValidationError("workers must be >= 1")
        # results are keyed by (attack, defense, seed), so a repeated entry
        # would silently double-count or overwrite a cell
        for key in _LIST_KEYS:
            values = getattr(self, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValidationError(f"{key} lists {value!r} more than once")

    # -- serialisation --------------------------------------------------

    def resolved_lines(self) -> tuple[str, ...]:
        """Canonical ``key = value`` lines covering every experiment field.

        ``workers`` is excluded: it only dispatches work and never changes
        an output byte, so it must not perturb the config hash.  Floats
        render exactly, so distinct configs never share lines or a hash.
        """
        lines = []
        for key, value in sorted(vars(self).items()):
            if key == "workers":
                continue
            if isinstance(value, tuple):
                rendered = ",".join(_fmt_exact(v) if isinstance(v, float) else str(v)
                                    for v in value)
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = _fmt_exact(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        return tuple(lines)

    def config_hash(self) -> str:
        payload = "\n".join(self.resolved_lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    # -- construction ---------------------------------------------------

    @classmethod
    def _parse_value(cls, key: str, text: str):
        """The typed value of one config entry; ParseError when it does not parse."""
        defaults = cls()
        if not hasattr(defaults, key):
            raise ParseError(f"unknown config key {key!r}")
        current = getattr(defaults, key)
        text = text.strip()
        try:
            if isinstance(current, bool):
                return _BOOLEANS[text.lower()]
            if isinstance(current, int):
                return int(text)
            if isinstance(current, float):
                return _finite_float(text)
            if isinstance(current, tuple):
                items = [part.strip() for part in text.split(",") if part.strip()]
                if current and isinstance(current[0], float):
                    return tuple(_finite_float(v) for v in items)
                if current and isinstance(current[0], int):
                    return tuple(int(v) for v in items)
                return tuple(items)
        except (KeyError, ValueError):
            raise ParseError(f"invalid value for {key}: {text!r}") from None
        return text

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        return cls(**{key: cls._parse_value(key, text) for key, text in raw.items()})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        kwargs = {}
        for lineno, line in enumerate(_read_utf8(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            try:
                kwargs[key.strip()] = cls._parse_value(key.strip(), value)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
        return cls(**kwargs)

    # -- scenario building ------------------------------------------------

    def build_network(self) -> RoadNetwork:
        if self.network_kind == "files":
            if not self.nodes_file or not self.edges_file:
                raise ValidationError("network_kind=files needs nodes_file and edges_file")
            return load_network(self.nodes_file, self.edges_file)
        if self.network_kind == "grid":
            return generate_city("grid", rows=self.grid_rows, cols=self.grid_cols,
                                 edge_time_s=self.edge_time_s)
        if self.network_kind == "geometric":
            return generate_city("geometric", seed=self.city_seed, n=self.geo_n,
                                 radius_m=self.geo_radius_m, side_m=self.geo_side_m)
        if self.network_kind == "two_cluster":
            return generate_city(
                "two_cluster", size_a=self.cluster_size_a, size_b=self.cluster_size_b,
                bridges=self.bridges, edge_time_s=self.edge_time_s,
                bridge_time_s=self.bridge_time_s if self.bridge_time_s > 0 else None,
                bypass_count=self.bypass_count,
                bypass_time_s=self.bypass_time_s if self.bypass_time_s > 0 else None)
        raise ValidationError(f"unknown network_kind {self.network_kind!r}")

    def build_fleet(self, net: RoadNetwork) -> list[JobCard]:
        if self.fleet_kind == "file":
            if not self.jobcards_file:
                raise ValidationError("fleet_kind=file needs jobcards_file")
            return parse_jobcards(self.jobcards_file)
        if self.fleet_kind == "random":
            warehouse = None if self.fleet_warehouse == "auto" else self.fleet_warehouse
            return make_fleet(net, self.fleet_couriers, self.fleet_stops,
                              self.fleet_slack_s, seed=self.fleet_seed,
                              day_start_s=self.fleet_day_start_s, warehouse=warehouse,
                              stop_prefixes=self.fleet_stop_prefixes or None)
        raise ValidationError(f"unknown fleet_kind {self.fleet_kind!r}")


@functools.lru_cache(maxsize=1)  # one scenario per process; pool workers build it once
def _scenario(cfg: ExperimentConfig) -> tuple[RoadNetwork, list[JobCard]]:
    net = cfg.build_network()
    return net, cfg.build_fleet(net)


def _rounds_task(args) -> list[tuple[str, int, float, RoundMetrics]]:
    """Every round of one (defense, seed) as (attack, k, window_mult, metrics) rows.

    ``axis`` is ``matrix`` (k = cfg.k), ``window`` (k = cfg.k, each round
    reclassified per window multiplier) or ``attackers`` (every attacker
    count).  Rows come in attack-major order, then k, then multiplier.
    """
    cfg, axis, defense, seed = args
    net, fleet = _scenario(cfg)
    ks = cfg.attacker_counts if axis == "attackers" else (cfg.k,)
    rounds = run_rounds(net, fleet, cfg.attacks, defense, ks, cfg.ambush_delay_s,
                        seed, cfg.nested_plans)
    rows = []
    for (attack, k), details in rounds.items():
        if axis == "window":
            rows.extend((attack, k, mult, reclassify_with_multiplier(fleet, details, mult))
                        for mult in cfg.window_multipliers)
        else:
            rows.append((attack, k, 1.0, details.metrics))
    return rows


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # the fork start method forks every worker at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _run_cells(cfg: ExperimentConfig, axis: str) -> dict[tuple[str, str, int], list[tuple]]:
    """(k, window_mult, metrics) rows per (attack, defense, seed) cell.

    Work is dispatched per (defense, seed); the rows are regrouped by cell
    so callers can emit them in attack-major order whatever the workers.
    """
    tasks = [(cfg, axis, defense, seed) for defense in cfg.defenses for seed in cfg.seeds]
    cells: dict[tuple[str, str, int], list[tuple]] = {}
    for (_, _, defense, seed), rows in zip(tasks, _map_tasks(_rounds_task, tasks, cfg.workers)):
        for attack, k, mult, metrics in rows:
            cells.setdefault((attack, defense, seed), []).append((k, mult, metrics))
    return cells


# -- matrix -------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixResult:
    payoff: PayoffMatrix
    cell_metrics: dict[tuple[str, str, int], RoundMetrics]
    pure_equilibria: list[tuple[int, int]]
    mixed: Equilibrium


def run_matrix(cfg: ExperimentConfig) -> MatrixResult:
    """Full attack x defense payoff matrix plus its equilibria."""
    cells = _run_cells(cfg, "matrix")
    cell_metrics: dict[tuple[str, str, int], RoundMetrics] = {}
    per_seed = np.zeros((len(cfg.attacks), len(cfg.defenses), len(cfg.seeds)))
    for i, attack in enumerate(cfg.attacks):
        for j, defense in enumerate(cfg.defenses):
            for s, seed in enumerate(cfg.seeds):
                [(_, _, metrics)] = cells[(attack, defense, seed)]
                cell_metrics[(attack, defense, seed)] = metrics
                per_seed[i, j, s] = metrics.late_fraction

    payoff = PayoffMatrix(cfg.attacks, cfg.defenses, per_seed.mean(axis=2), per_seed)
    pure = find_pure_nash(payoff)
    mixed = solve_zero_sum(payoff)
    return MatrixResult(payoff, cell_metrics, pure, mixed)


def run_sweep(cfg: ExperimentConfig, axis: str) -> list[tuple]:
    """Sweep rows (attack, defense, k, window_mult, seed, metrics...)."""
    if axis not in ("window", "attackers"):
        raise DomainError(f"unknown sweep axis {axis!r}")
    cells = _run_cells(cfg, axis)
    return [(attack, defense, k, mult, seed) + astuple(metrics)
            for attack in cfg.attacks
            for defense in cfg.defenses
            for seed in cfg.seeds
            for k, mult, metrics in cells[(attack, defense, seed)]]


# -- report emission -----------------------------------------------------------


def format_row(cfg: ExperimentConfig, row: tuple, seed_column: bool = True) -> str:
    """One ``SWEEP_HEADER`` line for a sweep row, or a ``ROUND_HEADER`` line
    without the seed column."""
    attack, defense, k, mult, seed, late, crit, mean_t, p95_t, _, ambushes = row
    seed_field = f"{seed}," if seed_column else ""
    return (f"{attack},{defense},{k},{_fmt(cfg.ambush_delay_s)},{_fmt(mult)},{seed_field}"
            f"{_fmt(late)},{_fmt(crit)},{_fmt(mean_t)},{_fmt(p95_t)},{ambushes}")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_reports(cfg: ExperimentConfig, out_dir,
                 matrix: MatrixResult | None = None,
                 window_rows: list[tuple] | None = None,
                 attacker_rows: list[tuple] | None = None) -> None:
    """Write the standard report files; absent sections yield header-only files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    payoff_lines = ["attack,defense,payoff_mean,payoff_std,n"]
    critical_lines = ["attack,defense,critical_pct_of_late"]
    equilibria_lines = ["kind,player,strategy,probability,value,epsilon"]
    if matrix is not None:
        pm = matrix.payoff
        for i, attack in enumerate(pm.attacks):
            for j, defense in enumerate(pm.defenses):
                samples = pm.per_seed[i, j]
                payoff_lines.append(
                    f"{attack},{defense},{_fmt(pm.payoff[i, j])},"
                    f"{_fmt(float(samples.std()))},{len(samples)}")
                crit = [matrix.cell_metrics[(attack, defense, seed)].critical_fraction_of_late
                        for seed in cfg.seeds]
                critical_lines.append(
                    f"{attack},{defense},{_fmt(100.0 * sum(crit) / len(crit))}")
        for i, j in matrix.pure_equilibria:
            value = _fmt(pm.payoff[i, j])
            equilibria_lines.append(f"pure,attacker,{pm.attacks[i]},1,{value},0")
            equilibria_lines.append(f"pure,defender,{pm.defenses[j]},1,{value},0")
        mixed = matrix.mixed
        for i, attack in enumerate(pm.attacks):
            equilibria_lines.append(
                f"mixed,attacker,{attack},{_fmt(float(mixed.attacker_strategy[i]))},"
                f"{_fmt(mixed.value)},{_fmt(mixed.epsilon)}")
        for j, defense in enumerate(pm.defenses):
            equilibria_lines.append(
                f"mixed,defender,{defense},{_fmt(float(mixed.defender_strategy[j]))},"
                f"{_fmt(mixed.value)},{_fmt(mixed.epsilon)}")

    _write_lines(out / "payoff_matrix.csv", payoff_lines)
    _write_lines(out / "critical_delays.csv", critical_lines)
    _write_lines(out / "equilibria.csv", equilibria_lines)
    for name, rows in (("sweep_window.csv", window_rows), ("sweep_attackers.csv", attacker_rows)):
        _write_lines(out / name, [SWEEP_HEADER] + [format_row(cfg, row) for row in rows or []])

    manifest = [f"config_hash = {cfg.config_hash()}",
                f"seeds = {','.join(str(s) for s in cfg.seeds)}"]
    manifest.extend(cfg.resolved_lines())
    _write_lines(out / "manifest.txt", manifest)
