"""Command-line entry point.

Subcommands: simulate, matrix, sweep, attack, analyze, synth, gen-city.
simulate, matrix and sweep run their rounds through the experiment's one
runner, so all three honour ``workers`` and write the same bytes for any
worker count.  All outputs are UTF-8 text with headers; a run is fully
determined by its config and seeds, so repeated invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .attacks import (ATTACK_STRATEGIES, PARTITION_STRATEGIES, _partition_for,
                      select_attack_edges, write_attack_plan)
from .errors import RoadGameError
from .experiment import (_DEFAULTS, ROUND_HEADER, ExperimentConfig, _render, emit_reports,
                         format_row, placed, read_config, run_matrix, run_sweep)
from .network import load_network, save_network
from .routing import DEFENSE_STRATEGIES
from .synth import (TraceTolerance, check_cards_on_network, parse_jobcards,
                    synthesize_traces, write_jobcards, write_leg_audit)

# analyze writes the partition whose cutset the same-named attack takes
ANALYZE_METHODS = PARTITION_STRATEGIES


def _config_key_epilog() -> str:
    lines = [f"  {key} = {_render(value)}" for key, value in sorted(_DEFAULTS.items())]
    return "\n".join(["config keys (flat 'key = value' lines; lists comma-separated):", *lines])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roadgame",
        description="Ambush-interdiction game simulator for road networks",
        epilog=_config_key_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", type=Path, help="experiment config (key = value lines)")
    parser.add_argument("--seed", type=int, help="replace the config seed list with one seed")
    parser.add_argument("--out", type=Path, default=None,
                    help="output directory (default: the config's output_dir)")
    parser.add_argument("--nested-plans", action="store_true",
                        help="grow attack plans as prefixes of one per-seed ranking")
    parser.add_argument("--workers", type=int,
                        help="worker processes for simulate/matrix/sweep rounds")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one attack/defense pairing over all seeds")
    p_sim.add_argument("--attack", required=True, choices=ATTACK_STRATEGIES)
    p_sim.add_argument("--defense", required=True, choices=DEFENSE_STRATEGIES)

    sub.add_parser("matrix", help="payoff matrix plus equilibria for the config")

    p_sweep = sub.add_parser("sweep", help="sweep delivery windows or attacker counts")
    p_sweep.add_argument("--axis", required=True, choices=("window", "attackers"))

    p_attack = sub.add_parser("attack", help="emit an attack plan for the config network")
    p_attack.add_argument("--strategy", required=True, choices=ATTACK_STRATEGIES)
    p_attack.add_argument("--k", type=int, required=True)

    p_analyze = sub.add_parser("analyze", help="partition the config network")
    p_analyze.add_argument("--method", required=True, choices=ANALYZE_METHODS)

    p_synth = sub.add_parser("synth", help="re-site base job cards onto the config network")
    p_synth.add_argument("--base-nodes", type=Path, required=True)
    p_synth.add_argument("--base-edges", type=Path, required=True)
    p_synth.add_argument("--base-cards", type=Path, required=True)
    p_synth.add_argument("--tolerance", type=float, default=0.10)

    sub.add_parser("gen-city", help="write the config network as node/edge files")

    return parser


def _out_dir(cfg: ExperimentConfig, args) -> Path:
    # --out overrides the destination without touching the config (and
    # therefore without perturbing the manifest hash); the directory is made here
    out = args.out if args.out is not None else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args) -> tuple[ExperimentConfig, dict[str, int]]:
    """The config, and the line of each key the config file sets."""
    cfg, lines = read_config(args.config) if args.config else (ExperimentConfig(), {})
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.nested_plans:
        cfg = replace(cfg, nested_plans=True)
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg, lines


def _cmd_simulate(cfg: ExperimentConfig, args) -> int:
    rows = run_sweep(replace(cfg, attacks=(args.attack,), defenses=(args.defense,)), "matrix")
    out = _out_dir(cfg, args)
    lines = [ROUND_HEADER] + [format_row(cfg, row, seed_column=False) for row in rows]
    (out / "round_metrics.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    late = [row[5] for row in rows]
    print(f"{args.attack} vs {args.defense}: mean late fraction "
          f"{sum(late) / len(late):.3f} over {len(late)} seeds")
    return 0


def _cmd_matrix(cfg: ExperimentConfig, args) -> int:
    result = run_matrix(cfg)
    emit_reports(cfg, _out_dir(cfg, args), matrix=result)
    pm = result.payoff
    print(f"matrix {len(pm.attacks)}x{len(pm.defenses)} over {len(cfg.seeds)} seeds; "
          f"value {result.mixed.value:.4f} ({result.mixed.kind}); "
          f"{len(result.pure_equilibria)} pure equilibria")
    return 0


def _cmd_sweep(cfg: ExperimentConfig, args) -> int:
    rows = run_sweep(cfg, args.axis)
    out = _out_dir(cfg, args)
    if args.axis == "window":
        emit_reports(cfg, out, window_rows=rows)
    else:
        emit_reports(cfg, out, attacker_rows=rows)
    print(f"sweep {args.axis}: {len(rows)} rows")
    return 0


def _cmd_attack(cfg: ExperimentConfig, args) -> int:
    net = cfg.build_network()
    plan = select_attack_edges(net, args.strategy, args.k, seed=cfg.seeds[0])
    out = _out_dir(cfg, args)
    path = out / f"attack_{args.strategy}.csv"
    write_attack_plan(net, plan, path)
    print(f"{args.strategy}: {plan.k} edges -> {path}")
    return 0


def _cmd_analyze(cfg: ExperimentConfig, args) -> int:
    net = cfg.build_network()
    part = _partition_for(net, args.method)
    out = _out_dir(cfg, args)
    path = out / f"partition_{args.method}.csv"
    lines = ["node_id,community"]
    lines.extend(f"{node},{part.label(node)}" for node in net.node_ids)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{args.method}: {part.num_communities} communities -> {path}")
    return 0


def _cmd_synth(cfg: ExperimentConfig, args) -> int:
    base_net = load_network(args.base_nodes, args.base_edges)
    base_cards = parse_jobcards(args.base_cards)
    check_cards_on_network(base_cards, base_net, args.base_cards)
    target = cfg.build_network()
    tol = TraceTolerance(relative_tolerance=args.tolerance)
    cards, audits = synthesize_traces(base_cards, base_net, target, tol, seed=cfg.seeds[0])
    out = _out_dir(cfg, args)
    write_jobcards(cards, out / "synthetic_cards.csv")
    write_leg_audit(audits, out / "synthetic_legs.csv")
    print(f"synthesised {len(cards)} cards, {len(audits)} legs -> {out}")
    return 0


def _cmd_gen_city(cfg: ExperimentConfig, args) -> int:
    net = cfg.build_network()
    out = _out_dir(cfg, args)
    save_network(net, out / "nodes.csv", out / "edges.csv")
    print(f"{net.num_nodes} nodes, {net.num_edges} edges -> {out}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "matrix": _cmd_matrix,
    "sweep": _cmd_sweep,
    "attack": _cmd_attack,
    "analyze": _cmd_analyze,
    "synth": _cmd_synth,
    "gen-city": _cmd_gen_city,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    lines = {}  # stays empty when loading fails: read_config places its own refusals
    try:
        cfg, lines = _load_config(args)
        return _COMMANDS[args.command](cfg, args)
    except RoadGameError as exc:
        # a run's refusal of a key the config file sets names its line
        print(f"error: {placed(exc, args.config, lines)}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a missing or unreadable input, or an output path that cannot be made
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
