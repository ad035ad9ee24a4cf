"""Run the roadgame CLI in this process with a span around each layer's calls.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID CLI_ARGS...

Every function named in ``TARGETS`` is replaced by a wrapper in every
``roadgame`` module that binds it, so ``from .x import f`` call sites are
traced too.  Spans (name, start, end, parent) stay in memory and are
written to SPANS_JSON after the CLI returns, together with counters
taken at the same boundaries.  Times are ``time.perf_counter`` readings,
which on Linux share CLOCK_MONOTONIC with the parent process.
"""

import time

RUN_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from functools import wraps  # noqa: E402
from inspect import signature  # noqa: E402
from pathlib import Path  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.route_keys: set[tuple] = set()
        self.failed_walks = 0
        self.epsilons: list[float] = []

    def open(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start,
                           None, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, describe=None, observe=None):
        """Wrapper recording one span per call of ``fn``.

        ``describe(arguments)`` names the span from the call's arguments;
        ``observe(arguments, result)`` updates counters.
        """
        sig = signature(fn) if describe or observe else None

        @wraps(fn)
        def traced(*args, **kwargs):
            arguments = sig.bind(*args, **kwargs).arguments if sig else None
            index = self.open(describe(arguments) if describe else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe:
                observe(arguments, result)
            return result
        return traced

    # -- counters -------------------------------------------------------------

    def observe_route(self, arguments, plan) -> None:
        self.route_keys.add((arguments["card"].courier_id, arguments["strategy"],
                             arguments.get("seed", 0)))
        if plan.failed_leg is not None:
            self.failed_walks += 1

    def observe_equilibrium(self, arguments, equilibrium) -> None:
        self.epsilons.append(float(equilibrium.epsilon))


def targets(tracer: Tracer):
    """(module, attribute, span name, describe, observe) per traced function."""
    return [
        ("roadgame.synth", "generate_city", "synth.generate_city", None, None),
        ("roadgame.synth", "make_fleet", "synth.make_fleet", None, None),
        ("roadgame.network", "shortest_path", "network.shortest_path", None, None),
        ("roadgame.network", "edge_disjoint_paths", "network.edge_disjoint_paths", None, None),
        # the analysis results are cached per network, so these run once per
        # cache miss; centrality() itself is left unwrapped so hits cost nothing
        ("roadgame.analysis", "_betweenness_scores", "analysis.betweenness", None, None),
        ("roadgame.analysis", "_eigenvector_scores", "analysis.eigenvector", None, None),
        ("roadgame.analysis", "spectral_bisect", "analysis.spectral_bisect", None, None),
        ("roadgame.analysis", "agglomerative_modularity", None,
         lambda a: f"analysis.{a['variant']}_mod", None),
        ("roadgame.analysis", "mixing_partition", "analysis.mixing_partition", None, None),
        ("roadgame.analysis", "flow_partition", "analysis.flow_partition", None, None),
        ("roadgame.attacks", "strategy_edge_ranking", "attacks.strategy_edge_ranking", None, None),
        ("roadgame.attacks", "select_attack_edges", "attacks.select_attack_edges", None, None),
        ("roadgame.routing", "plan_route", None,
         lambda a: f"routing.plan_route.{a['strategy']}", tracer.observe_route),
        ("roadgame.simulate", "run_round_details", "simulate.run_round_details", None, None),
        ("roadgame.simulate", "run_tour", "simulate.run_tour", None, None),
        ("roadgame.simulate", "metrics_from_tours", "simulate.metrics_from_tours", None, None),
        ("roadgame.rng", "substream", "rng.substream", None, None),
        ("roadgame.game", "solve_zero_sum", "game.solve_zero_sum", None,
         tracer.observe_equilibrium),
        ("roadgame.game", "find_pure_nash", "game.find_pure_nash", None, None),
        ("roadgame.experiment", "run_matrix", "experiment.run_matrix", None, None),
        ("roadgame.experiment", "run_sweep", "experiment.run_sweep", None, None),
        ("roadgame.experiment", "emit_reports", "experiment.emit_reports", None, None),
    ]


def install(tracer: Tracer) -> int:
    """Replace each target at every roadgame module binding; returns the count."""
    replacements = {}
    for module_name, attr, name, describe, observe in targets(tracer):
        original = getattr(sys.modules[module_name], attr)
        replacements[id(original)] = (original, tracer.wrap(original, name, describe, observe))
    bound = 0
    for module_name, module in list(sys.modules.items()):
        if module_name != "roadgame" and not module_name.startswith("roadgame."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                bound += 1
    return bound


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    tracer = Tracer()
    root = tracer.open("cli", start=RUN_START)
    index = tracer.open("setup.import")
    import roadgame.cli
    tracer.close(index)
    source = Path.cwd().resolve() / "src" / "roadgame"
    if Path(roadgame.cli.__file__).resolve().parent != source:
        print(f"error: roadgame imported from {roadgame.cli.__file__}, not {source}",
              file=sys.stderr)
        return 3
    bindings = install(tracer)
    try:
        code = roadgame.cli.main(cli_args)
    finally:
        tracer.close(root)
    spans_path.write_text(json.dumps({
        "run_id": run_id,
        "bindings": bindings,
        "spans": tracer.spans,
        "counters": {
            "routing.plan_route.distinct": len(tracer.route_keys),
            "routing.failed_walks": tracer.failed_walks,
            "game.achieved_epsilon": max(tracer.epsilons, default=0.0),
        },
    }), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
