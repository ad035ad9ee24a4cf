"""Configuration-driven experiment runner: matrices, sweeps, reports.

Configs are flat ``key = value`` text (lists comma-separated) so a run is
fully described by bytes that hash stably; every output is a pure
function of (config, seeds).  Each value has one text form, which
``_parse`` reads and ``_render`` writes for the manifest, the config
hash and ``--help``.  One runner, ``_run_rows``, plays the rounds
of the CLI's simulate, matrix and both sweeps, in two stages on one
process pool.  The analysis stage computes, once per run, what the
config's attacks and defenses read: exact betweenness split into
source chunks of fixed-point sums that add, certified, with an exact
fallback, each partition detector and the eigenvector.  Those results
travel with every round task, and each process builds the rankings and
``inverse`` weights from them.  Rounds are scheduled per (defense,
seed): a route depends on neither the attack nor k, so each task plans
every courier's route once and scores every attack and k against it.
Rows are returned in attack-major order, so worker count never changes
any output byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np
from .analysis import (_betweenness_scores, _betweenness_sums, _eigenvector_scores,
                       _merge_betweenness, _round_betweenness)
from .attacks import ATTACK_STRATEGIES, PARTITION_STRATEGIES, _partition_for
from .errors import DomainError, ParseError, ValidationError
from .game import Equilibrium, PayoffMatrix, find_pure_nash, solve_zero_sum
from .network import RoadNetwork, _read_utf8, load_network, preload
from .routing import DEFENSE_STRATEGIES
from .simulate import (JobCard, RoundMetrics, apply_window_multiplier,
                       reclassify_with_windows, run_rounds)
from .synth import (_stop_pools, central_node, check_cards_on_network, generate_city,
                    make_fleet, parse_jobcards)

DEFAULT_DEFENSES = ("shortest", "inverse", "mixnet")
DEFAULT_WINDOW_MULTIPLIERS = tuple(round(1.0 + 0.25 * i, 2) for i in range(11))  # 1.0 .. 3.5
DEFAULT_ATTACKER_COUNTS = (1, 5, 10, 20, 30, 40, 50)
DEFAULT_SEEDS = tuple(range(10))

SWEEP_HEADER = ("attack,defense,k,M,window_mult,seed,late_frac,crit_frac_of_late,"
                "mean_tour_s,p95_tour_s,ambushes")
ROUND_HEADER = SWEEP_HEADER.replace(",seed,", ",")


# list keys that must be nonempty and free of repeats
_LIST_KEYS = ("attacks", "defenses", "seeds", "window_multipliers", "attacker_counts")

# each source key's kinds, and the file keys each kind reads
_SOURCES = {"network_kind": {"files": ("nodes_file", "edges_file"), "grid": (),
                             "geometric": (), "two_cluster": ()},
            "fleet_kind": {"file": ("jobcards_file",), "random": ()}}

_BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
             "false": False, "0": False, "no": False, "off": False}


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _parse(text: str, like):
    """The value ``text`` spells in the type of ``like``, a field's default
    (a list's items in the type of its first item, else as text).  Raises
    KeyError or ValueError when it spells none, or a non-finite float."""
    text = text.strip()
    if isinstance(like, tuple):
        return tuple(_parse(item, like[0] if like else "") for item in text.split(",")
                     if item.strip())
    if isinstance(like, bool):
        return _BOOLEANS[text.lower()]
    value = type(like)(text)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _render(value) -> str:
    """The text ``_parse`` reads back as ``value``: a float in ``_fmt``'s
    nine digits when they are exact, else its shortest exact form."""
    if isinstance(value, tuple):
        return ",".join(map(_render, value))
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        text = _fmt(value)
        return text if float(text) == value else repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; each field is a config key.  ``__post_init__`` is
    the keys' one check: each refusal names its key as ``.key``, which
    ``from_file`` places at its ``file:line``.  The builders only build."""

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
        # configs built in code get the parser's finiteness check
        for key, value in vars(self).items():
            for x in value if isinstance(value, tuple) else (value,):
                if isinstance(x, float) and not math.isfinite(x):
                    raise ValidationError(f"{key} must be finite, got {x!r}", key)
        for key in ("edge_time_s", "geo_radius_m", "geo_side_m", "ambush_delay_s",
                    "fleet_slack_s"):
            if not getattr(self, key) > 0:
                raise ValidationError(f"{key} must be > 0, got {getattr(self, key)!r}", key)
        for key in ("bridge_time_s", "bypass_time_s"):  # < 0 picks the default
            if getattr(self, key) == 0:
                raise ValidationError(f"{key} must be > 0, or < 0 for the default, got 0", key)
        # the RNG keeps a seed's low 64 bits, so any other seed aliases one of these
        for key, values in (("seeds", self.seeds), ("city_seed", (self.city_seed,)),
                            ("fleet_seed", (self.fleet_seed,))):
            for seed in values:
                if not 0 <= seed < 2**64:
                    raise ValidationError(f"{key} must be in [0, 2**64), got {seed}", key)
        for key in ("k", "workers"):
            if getattr(self, key) < 1:
                raise ValidationError(f"{key} must be >= 1", key)
        for key, low in (("grid_rows", 2), ("grid_cols", 2), ("geo_n", 2), ("cluster_size_a", 4),
                         ("cluster_size_b", 4), ("bridges", 1), ("bypass_count", 0),
                         ("fleet_couriers", 1), ("fleet_stops", 1)):
            if getattr(self, key) < low:
                raise ValidationError(f"{key} must be >= {low}, got {getattr(self, key)}", key)
        for key in _LIST_KEYS:
            if not getattr(self, key):
                raise ValidationError(f"{key} must be nonempty", key)
        for key, known in (("attacks", ATTACK_STRATEGIES), ("defenses", DEFENSE_STRATEGIES)):
            for strategy in getattr(self, key):
                if strategy not in known:
                    raise ValidationError(f"unknown {key[:-1]} strategy {strategy!r}", key)
        if any(m < 1 for m in self.window_multipliers):
            raise ValidationError("window multipliers must be >= 1", "window_multipliers")
        if any(k < 1 for k in self.attacker_counts):
            raise ValidationError("attacker counts must be >= 1", "attacker_counts")
        # results are keyed by (attack, defense, seed), so a repeated entry
        # would silently double-count or overwrite a cell
        for key in _LIST_KEYS:
            values = getattr(self, key)
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise ValidationError(f"{key} lists {value!r} more than once", key)
        for key, kinds in _SOURCES.items():
            kind = getattr(self, key)
            if kind not in kinds:
                raise ValidationError(f"unknown {key} {kind!r}", key)
            if not all(getattr(self, name) for name in kinds[kind]):
                raise ValidationError(f"{key}={kind} needs {' and '.join(kinds[kind])}", key)

    # -- serialisation --------------------------------------------------

    def resolved_lines(self) -> tuple[str, ...]:
        """Canonical ``key = value`` lines covering every experiment field.

        ``workers`` is excluded: it only dispatches work and never changes
        an output byte, so it must not perturb the config hash.  Floats
        render exactly, so distinct configs never share lines or a hash.
        """
        return tuple(f"{key} = {_render(value)}" for key, value in sorted(vars(self).items())
                     if key != "workers")

    def config_hash(self) -> str:
        payload = "\n".join(self.resolved_lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    # -- construction ---------------------------------------------------

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        return cls(**{key: _typed(key, text) for key, text in raw.items()})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """The config of a file's ``key = value`` lines, as ``from_mapping``
        builds it; a refusal names the ``file:line`` of its entry."""
        return read_config(path)[0]

    # -- scenario building ------------------------------------------------

    def build_network(self) -> RoadNetwork:
        if self.network_kind == "files":
            return load_network(self.nodes_file, self.edges_file)
        if self.network_kind == "grid":
            return generate_city("grid", rows=self.grid_rows, cols=self.grid_cols,
                                 edge_time_s=self.edge_time_s)
        if self.network_kind == "geometric":
            return generate_city("geometric", seed=self.city_seed, n=self.geo_n,
                                 radius_m=self.geo_radius_m, side_m=self.geo_side_m)
        return generate_city(
            "two_cluster", size_a=self.cluster_size_a, size_b=self.cluster_size_b,
            bridges=self.bridges, edge_time_s=self.edge_time_s,
            bridge_time_s=self.bridge_time_s if self.bridge_time_s > 0 else None,
            bypass_count=self.bypass_count,
            bypass_time_s=self.bypass_time_s if self.bypass_time_s > 0 else None)

    def build_fleet(self, net: RoadNetwork) -> list[JobCard]:
        if self.fleet_kind == "file":
            cards = parse_jobcards(self.jobcards_file)
            check_cards_on_network(cards, net, self.jobcards_file)
            return cards
        if self.fleet_warehouse == "auto":
            warehouse = central_node(net)
        elif self.fleet_warehouse in net.nodes:
            warehouse = self.fleet_warehouse
        else:
            raise ValidationError(f"unknown warehouse node {self.fleet_warehouse!r}",
                                  "fleet_warehouse")
        if self.fleet_stop_prefixes:
            try:
                _stop_pools(net, warehouse, self.fleet_stop_prefixes, self.fleet_stops)
            except DomainError as exc:
                raise ValidationError(str(exc), "fleet_stop_prefixes") from None
        return make_fleet(net, self.fleet_couriers, self.fleet_stops, self.fleet_slack_s,
                          seed=self.fleet_seed, day_start_s=self.fleet_day_start_s,
                          warehouse=warehouse, stop_prefixes=self.fleet_stop_prefixes or None)


def _typed(key: str, text: str):
    """The value of the config entry ``key = text``, typed like the key's
    default; ParseError naming the key when either is refused."""
    if key not in _DEFAULTS:
        raise ParseError(f"unknown config key {key!r}", key)
    try:
        return _parse(text, _DEFAULTS[key])
    except (KeyError, ValueError):
        raise ParseError(f"invalid value for {key}: {text.strip()!r}", key) from None


_DEFAULTS = {field.name: field.default for field in fields(ExperimentConfig)}


def read_config(path) -> tuple[ExperimentConfig, dict[str, int]]:
    """:meth:`ExperimentConfig.from_file`'s config, and the line of each
    key the file sets, which :func:`placed` reads."""
    kwargs, lines = {}, {}
    try:
        for lineno, line in enumerate(_read_utf8(path), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in lines:
                raise ParseError(f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
            lines[key] = lineno
            kwargs[key] = _typed(key, value)
        return ExperimentConfig(**kwargs), lines
    except (ParseError, ValidationError) as exc:
        raise placed(exc, path, lines) from None


def placed(exc, path, lines: dict[str, int]):
    """``exc`` begun with the ``path:line`` of the entry its key names, as
    ``lines`` from :func:`read_config` holds it; ``exc`` itself if none."""
    if exc.key not in lines:
        return exc
    return type(exc)(f"{path}:{lines[exc.key]}: {exc}", exc.key)


@functools.lru_cache(maxsize=1)  # one scenario per process; pool workers build it once
def _scenario(cfg: ExperimentConfig) -> tuple[RoadNetwork, list[JobCard]]:
    net = cfg.build_network()
    return net, cfg.build_fleet(net)


# -- analysis stage -------------------------------------------------------------


def _analysis_tasks(cfg: ExperimentConfig, net: RoadNetwork) -> list[tuple]:
    """The analyses the config's attacks and defenses read, as ``(cfg, fn, args)`` pool tasks.

    Betweenness, which every partition attack and ``inverse`` read too,
    is split into one source chunk per worker, whose fixed-point sums
    add, certified, with an exact fallback; each partition detector
    and the eigenvector are one task.  botgrep and eigen_mod, which hold
    several dense n x n arrays each, come first: workers free at the
    start take one each, so one process does not add both to its peak
    memory, and neither adds its arrays on top of what a betweenness
    chunk leaves resident.  The chunks, the longest tasks left, come next.
    """
    partitions = [attack for attack in cfg.attacks if attack in PARTITION_STRATEGIES]
    dense = [attack for attack in partitions if attack in ("botgrep", "eigen_mod")]
    tasks = [(cfg, _partition_for, (attack,)) for attack in dense]
    if partitions or "betweenness" in cfg.attacks or "inverse" in cfg.defenses:
        chunks = min(cfg.workers, net.num_nodes)
        tasks += [(cfg, _betweenness_sums, (range(i, net.num_nodes, chunks),))
                  for i in range(chunks)]
    tasks += [(cfg, _partition_for, (attack,)) for attack in partitions if attack not in dense]
    if "eigen_c" in cfg.attacks or "inverse" in cfg.defenses:
        tasks.append((cfg, _eigenvector_scores, ()))
    return tasks


def _analysis_task(args):
    """One analysis task's result: ``fn(net, *args)`` on the config's network."""
    cfg, fn, fn_args = args
    return fn(_scenario(cfg)[0], *fn_args)


def _analysis_stage(net: RoadNetwork, tasks: list[tuple], run) -> tuple:
    """The memo entries ``(fn, args, value)`` of the analysis ``tasks`` on
    ``net``, which ``run`` maps on the pool or in this process; the
    betweenness chunks' fixed-point sums add up to one
    ``_betweenness_scores`` entry."""
    entries, sums = [], []
    for (_, fn, args), result in zip(tasks, run(_analysis_task, tasks)):
        if fn is _betweenness_sums:
            sums.append(result)
        else:
            entries.append((fn, args, result))
    if sums:
        entries.append((_betweenness_scores, (),
                        _round_betweenness(net, _merge_betweenness(sums))))
    return tuple(entries)


# -- round stage ------------------------------------------------------------------


def _rounds_task(args) -> list[list[tuple[int, float, RoundMetrics]]]:
    """Every round of one (defense, seed): per attack, its (k, window_mult, metrics) rows.

    ``axis`` is ``matrix`` (k = cfg.k), ``window`` (k = cfg.k, every round
    reclassified at once per window multiplier) or ``attackers`` (every attacker
    count).  An attack's rows come in k order, then multiplier.  The
    analysis ``entries`` go into the network's memo first, so no round
    computes any analysis, only the rankings and weights read from them.
    """
    cfg, axis, defense, seed, entries = args
    net, fleet = _scenario(cfg)
    preload(net, entries)
    ks = cfg.attacker_counts if axis == "attackers" else (cfg.k,)
    rounds = run_rounds(net, fleet, cfg.attacks, defense, ks, cfg.ambush_delay_s,
                        seed, cfg.nested_plans)
    if axis == "window":
        scaled = [(mult, reclassify_with_windows(apply_window_multiplier(fleet, mult), rounds))
                  for mult in cfg.window_multipliers]
        return [[(k, mult, metrics[attack, k]) for k in ks for mult, metrics in scaled]
                for attack in cfg.attacks]
    return [[(k, 1.0, rounds[attack, k].metrics) for k in ks] for attack in cfg.attacks]


def _run_rows(cfg: ExperimentConfig, axis: str) -> list[tuple]:
    """(attack, defense, k, window_mult, seed, metrics) rows of every round.

    The one runner of rounds, in two stages on one pool of at most
    ``workers`` processes, sized to the larger stage: the analysis, then
    one task per (defense, seed).  The pool starts before any analysis
    runs, so its workers fork from a process that holds only the
    scenario.  The rows come back in attack-major order, then defense,
    seed, k and multiplier, whatever the workers.  A k above the edge
    count is refused before any analysis runs.
    """
    if axis not in ("matrix", "window", "attackers"):
        raise DomainError(f"unknown sweep axis {axis!r}")
    net, _ = _scenario(cfg)
    key = "attacker_counts" if axis == "attackers" else "k"
    largest = max(cfg.attacker_counts) if axis == "attackers" else cfg.k
    if 0 < net.num_edges < largest:  # every attack refuses an edgeless network itself
        raise ValidationError(f"{key} must be in [1, {net.num_edges}], got {largest}", key)
    analyses = _analysis_tasks(cfg, net)
    keys = [(defense, seed) for defense in cfg.defenses for seed in cfg.seeds]
    size = min(cfg.workers, max(len(analyses), len(keys)))
    pool = None
    if size > 1:
        # loaded only here, so a 1-worker run never imports multiprocessing;
        # the fork start method forks every worker at the first submit
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=size)
    run = pool.map if pool is not None else map
    try:
        entries = _analysis_stage(net, analyses, run)
        tasks = [(cfg, axis, defense, seed, entries) for defense, seed in keys]
        results = list(run(_rounds_task, tasks))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [(attack, defense, k, mult, seed, metrics)
            for a, attack in enumerate(cfg.attacks)
            for (defense, seed), by_attack in zip(keys, results)
            for k, mult, metrics in by_attack[a]]


# -- matrix -------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixResult:
    payoff: PayoffMatrix
    cell_metrics: dict[tuple[str, str, int], RoundMetrics]
    pure_equilibria: list[tuple[int, int]]
    mixed: Equilibrium


def run_matrix(cfg: ExperimentConfig) -> MatrixResult:
    """Full attack x defense payoff matrix plus its equilibria."""
    rows = _run_rows(cfg, "matrix")
    cell_metrics = {(attack, defense, seed): metrics
                    for attack, defense, _, _, seed, metrics in rows}
    per_seed = np.array([metrics.late_fraction for *_, metrics in rows]).reshape(
        len(cfg.attacks), len(cfg.defenses), len(cfg.seeds))
    payoff = PayoffMatrix(cfg.attacks, cfg.defenses, per_seed.mean(axis=2), per_seed)
    pure = find_pure_nash(payoff)
    mixed = solve_zero_sum(payoff)
    return MatrixResult(payoff, cell_metrics, pure, mixed)


def run_sweep(cfg: ExperimentConfig, axis: str) -> list[tuple]:
    """Rows (attack, defense, k, window_mult, seed, metrics...) along ``axis``:
    ``window``, ``attackers``, or ``matrix`` (one round per cell, at k)."""
    values = attrgetter(*(f.name for f in fields(RoundMetrics)))  # a shallow astuple
    return [row[:5] + values(row[5]) for row in _run_rows(cfg, axis)]


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
