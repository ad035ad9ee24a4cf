"""Run the benchmark over ten seeds and record the figures in baseline.json.

Usage, from the repository root:

    python3 perfbench/baseline.py

Each workload runs once per seed 1-10 with --trace 0 exactly as
BENCHMARK.json prescribes, then once with --trace 1 at the default seed.
For every end-to-end metric it prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median) next to
the metric's bound, and writes the figures, the per-layer values, the
machine description and the map from each per-layer metric to the
end-to-end metric it should move (``layer_effects``) to
perfbench/baseline.json.  Reading the machine description is the only
part that looks outside the repository (/proc and /sys).
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

from run import HERE
from workloads import DEFAULT_SEED, WORKLOADS

SEEDS = list(range(1, 11))

# Which end-to-end metric each per-layer metric should move, and on which
# workloads, as the seed figures show it: "largest share" is of the traced
# wall time, "most" and "largest" are absolute.
LAYER_EFFECTS = {
    "setup.import_s": ("setup_s", "all"),
    "synth.generate_city.self_s": ("setup_s", "all; largest on bypass-matrix"),
    "synth.make_fleet.self_s": ("setup_s", "all"),
    "network.self_s": ("wall_s, rounds_per_s",
                       "all; most time on grid-attacker-sweep, largest share on grid-matrix"),
    "network.shortest_path.calls": ("wall_s, rounds_per_s", "all; most on grid-attacker-sweep"),
    "network.shortest_path.self_s": ("wall_s, rounds_per_s", "all; largest share on grid-matrix"),
    "analysis.betweenness_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.eigenvector_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.spectral_bisect_s": ("wall_s, cpu_s", "none predicted; about 0.05 s on every workload"),
    "analysis.greedy_mod_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.hierarchical_mod_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.mixing_partition_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.flow_partition_s": ("wall_s, cpu_s", "bypass-matrix"),
    "analysis.computations": ("wall_s, cpu_s", "bypass-matrix"),
    "attacks.select_attack_edges.calls": ("wall_s", "none today; only if plans become per-round work"),
    "attacks.strategy_edge_ranking.self_s": ("wall_s", "none today; only if plans become per-round work"),
    "routing.plan_route.calls": ("wall_s", "all"),
    "routing.plan_route.distinct": ("wall_s", "all"),
    "routing.route_reuse_ratio": ("wall_s", "all; lowest on grid-attacker-sweep"),
    "routing.plan_route.self_s": ("wall_s", "grid-attacker-sweep (random walks)"),
    "routing.plan_route.shortest.self_s": ("wall_s", "all"),
    "routing.plan_route.inverse.self_s": ("wall_s", "all"),
    "routing.plan_route.mixnet.self_s": ("wall_s", "all; largest on grid-attacker-sweep"),
    "simulate.run_tour.calls": ("rounds_per_s", "grid-attacker-sweep"),
    "simulate.run_tour.self_s": ("rounds_per_s", "grid-attacker-sweep"),
    "simulate.metrics_from_tours.self_s": ("rounds_per_s", "grid-attacker-sweep, grid-matrix"),
    "simulate.run_round_details.self_s": ("rounds_per_s", "grid-attacker-sweep, grid-matrix"),
    "rng.substream.calls": ("wall_s", "all; most on grid-attacker-sweep"),
    "rng.substream.self_s": ("wall_s", "grid-matrix, grid-attacker-sweep"),
    "experiment.self_s": ("wall_s", "grid-matrix, grid-attacker-sweep"),
    "experiment.emit_reports.self_s": ("wall_s", "grid-attacker-sweep"),
    "cli.self_s": ("wall_s", "none predicted"),
    "tracing.wall_s": ("none", "the traced run's own wall time"),
    "tracing.overhead_ratio": ("none", "traced wall over the untraced median wall"),
}


def machine() -> dict:
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in Path("/proc/cpuinfo").read_text().splitlines()
                      if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": f"{blas['name']} {blas['version']}",
        "openblas_scipy": f"{scipy_blas['name']} {scipy_blas['version']}",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """The result line of one benchmark run and the lines printed before it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    *notes, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
    return result, notes


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "n": len(values), "values": values}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    if sorted(LAYER_EFFECTS) != sorted(layer_names):
        print("LAYER_EFFECTS does not name the per-layer metrics of BENCHMARK.json",
              file=sys.stderr)
        return 1
    cpus = len(os.sched_getaffinity(0))
    baseline = {
        "machine": machine(),
        "blas_thread_cap": "OPENBLAS/OMP/MKL_NUM_THREADS = max(1, cpus // workers)",
        "layer_effects": {name: {"moves": LAYER_EFFECTS[name][0], "on": LAYER_EFFECTS[name][1]}
                          for name in layer_names},
        "workloads": {},
    }

    for name, workload in WORKLOADS.items():
        runs = [run_once(name, seed, spec["run_seconds"], 0)[0] for seed in SEEDS]
        failed = sum(r["failed"] for r in runs) + sum(1 for r in runs if not r["correct"])
        end_to_end = {}
        print(f"{name}: {len(runs)} runs, {failed} failed")
        for metric in bounds:
            values = [r["metrics"][metric]["value"] for r in runs]
            stats = summarise(values)
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            stats["bound"] = bounds[metric]
            end_to_end[metric] = stats
            flag = "ok" if stats["spread"] < bounds[metric] / 3 else (
                "WITHIN BOUND" if stats["spread"] <= bounds[metric] else "OVER BOUND")
            print(f"  {metric:<14}{stats['median']:>11.4f}{stats['q1']:>11.4f}"
                  f"{stats['q3']:>11.4f}  spread {stats['spread']:.4f} "
                  f"bound {bounds[metric]}  {flag}")
        traced, notes = run_once(name, DEFAULT_SEED, spec["run_seconds"], 1)
        recorded = [note.split()[1:3] for note in notes if note.startswith("recorded ")]
        baseline["workloads"][name] = {
            "config_at_default_seed": workload.config_text(DEFAULT_SEED).splitlines(),
            "command": ["roadgame", "--config", "CONFIG", "--out", "OUT",
                        *workload.command],
            "rounds": workload.rounds,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
            "blas_threads": {"untraced": max(1, cpus // workload.workers), "traced": cpus},
            "seeds": SEEDS,
            "runs_failed": failed,
            "end_to_end": end_to_end,
            "per_layer_at_default_seed": {
                "correct": traced["correct"],
                "metrics": {metric: value["value"]
                            for metric, value in traced["metrics"].items()},
                "recorded": {key: float(value) for key, value in recorded},
            },
            "digests_at_default_seed": [note.removeprefix(f"digest {name} ")
                                        for note in notes if note.startswith("digest ")],
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
