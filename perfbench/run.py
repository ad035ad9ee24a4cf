"""Benchmark the roadgame CLI on one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload grid-matrix --seed 0 --seconds 30 --trace 0

``--trace 0`` times whole CLI runs, each a fresh process as a user would
start it, for about ``--seconds`` (at least one run), and times the set-up
separately.  ``--trace 1`` runs the CLI untraced and then once more with a
span around every layer's functions (see traced_cli.py), with one worker
so the spans see every call.  Every run's reports are checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, REPORTS, Workload, check_reports, digests

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0   # subprocesses still running this long after start are killed


@dataclass
class Run:
    """One finished subprocess."""

    code: int
    start: float        # perf_counter at spawn
    wall_s: float
    cpu_s: float        # user + system, including reaped worker processes
    peak_rss_mb: float  # largest single process
    problems: list[str] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.work = root / ".perfbench_work" / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.work.mkdir(parents=True)
        self.cpus = len(os.sched_getaffinity(0))
        self.reference: dict[str, str] | None = None

    def blas_threads(self, workers: int) -> int:
        return max(1, self.cpus // workers)

    def env(self, workers: int) -> dict[str, str]:
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        threads = str(self.blas_threads(workers))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = threads
        return env

    def write_config(self, name: str, workers: int) -> Path:
        path = self.work / name
        path.write_text(self.workload.config_text(self.seed, workers), encoding="utf-8")
        return path

    def spawn(self, args: list[str], workers: int, log: Path) -> Run:
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root,
                                    env=self.env(workers), stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            timer = threading.Timer(max(0.0, self.deadline - start), _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        run = Run(code, start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            run.problems.append(f"exit code {code}: {tail.strip()}")
        return run

    def check(self, run: Run, out: Path) -> None:
        """Report checks, plus byte-identity with the first run of this process."""
        if run.problems:
            return
        try:
            run.problems.extend(check_reports(self.workload, out, self.seed))
        except (ValueError, KeyError, IndexError) as exc:
            run.problems.append(f"unreadable report: {exc!r}")
        if run.problems:
            return
        found = digests(out)
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            differ = [name for name in REPORTS if found[name] != self.reference[name]]
            run.problems.append(f"reports differ from the first run: {', '.join(differ)}")

    def cli_runs(self, config: Path, workers: int, seconds: float) -> list[Run]:
        """Untraced CLI runs until the next one would end after ``seconds``."""
        runs: list[Run] = []
        window_start = time.perf_counter()
        while True:
            out = self.work / f"run{len(runs)}"
            run = self.spawn(["-m", "roadgame", "--config", str(config), "--out", str(out),
                              *self.workload.command], workers, self.work / "cli.log")
            self.check(run, out)
            shutil.rmtree(out, ignore_errors=True)
            runs.append(run)
            elapsed = time.perf_counter() - window_start
            if elapsed + run.wall_s > seconds or time.perf_counter() + run.wall_s > self.deadline:
                return runs

    def setup_runs(self, config: Path, workers: int) -> list[Run]:
        """Set-up probes; the first fills the bytecode cache and is discarded."""
        runs = [self.spawn([str(HERE / "probe_setup.py"), str(config)], workers,
                           self.work / "setup.log")
                for _ in range(SETUP_REPEATS + 1)]
        return runs[1:]


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# -- end-to-end run ------------------------------------------------------------


@dataclass
class Result:
    runs: list[Run]          # the CLI runs; each one with problems counts as failed
    metrics: dict
    notes: list[str]
    problems: list[str] = field(default_factory=list)   # failures outside the CLI runs


def end_to_end(bench: Bench, seconds: float) -> Result:
    workload = bench.workload
    config = bench.write_config("config.txt", workload.workers)
    setups = bench.setup_runs(config, workload.workers)
    runs = bench.cli_runs(config, workload.workers, seconds)
    good = [run for run in runs if not run.problems] or runs
    samples = {
        "wall_s": ([r.wall_s for r in good], "s"),
        "rounds_per_s": ([workload.rounds / r.wall_s for r in good], "1/s"),
        "setup_s": ([r.wall_s for r in setups], "s"),
        "cpu_s": ([r.cpu_s for r in good], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in good], "MB"),
    }
    notes = [f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}  n  unit"]
    for name, (values, unit) in samples.items():
        q1, q3 = _quartiles(values)
        notes.append(f"{name:<14}{statistics.median(values):>12.4f}{q1:>12.4f}{q3:>12.4f}"
                     f"{len(values):>3}  {unit}")
    failed_frac = sum(1 for r in runs if r.problems) / len(runs)
    notes.append(f"failed_frac {failed_frac:.3f} ({len(runs)} runs)")
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, (values, unit) in samples.items()}
    return Result(runs, metrics, notes, [f"set-up: {p}" for r in setups for p in r.problems])


# -- traced run ------------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - child for (_, start, end, _), child in zip(spans, covered)]


class Layers:
    """Per-layer sums over one trace: calls, total time and self time per span name."""

    def __init__(self, spans: list, span_self: list[float]):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.own: Counter = Counter()
        for (name, start, end, _), self_s in zip(spans, span_self):
            self.calls[name] += 1
            self.total[name] += end - start
            self.own[name] += self_s


def summed(counter: Counter, prefix: str) -> float:
    return sum(value for key, value in counter.items() if key.startswith(prefix))


def layer_metrics(layers: Layers, counters: dict, traced_wall_s: float,
                  untraced_wall_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, each non-zero on every workload."""
    calls, total, own = layers.calls, layers.total, layers.own
    routes = summed(calls, "routing.plan_route.")
    metrics = {
        "setup.import_s": (total["setup.import"], "s"),
        "synth.generate_city.self_s": (own["synth.generate_city"], "s"),
        "synth.make_fleet.self_s": (own["synth.make_fleet"], "s"),
        "network.self_s": (summed(own, "network."), "s"),
        "network.shortest_path.calls": (calls["network.shortest_path"], "count"),
        "network.shortest_path.self_s": (own["network.shortest_path"], "s"),
        "analysis.betweenness_s": (total["analysis.betweenness"], "s"),
        "analysis.eigenvector_s": (total["analysis.eigenvector"], "s"),
        "analysis.spectral_bisect_s": (total["analysis.spectral_bisect"], "s"),
        "analysis.greedy_mod_s": (total["analysis.greedy_mod"], "s"),
        "analysis.hierarchical_mod_s": (total["analysis.hierarchical_mod"], "s"),
        "analysis.mixing_partition_s": (total["analysis.mixing_partition"], "s"),
        "analysis.flow_partition_s": (total["analysis.flow_partition"], "s"),
        "analysis.computations": (summed(calls, "analysis."), "count"),
        "attacks.select_attack_edges.calls": (calls["attacks.select_attack_edges"], "count"),
        "attacks.strategy_edge_ranking.self_s": (own["attacks.strategy_edge_ranking"], "s"),
        "routing.plan_route.calls": (routes, "count"),
        "routing.plan_route.distinct": (counters["routing.plan_route.distinct"], "count"),
        "routing.route_reuse_ratio": (
            counters["routing.plan_route.distinct"] / routes if routes else 0.0, "ratio"),
        "routing.plan_route.self_s": (summed(own, "routing.plan_route."), "s"),
        "routing.plan_route.shortest.self_s": (own["routing.plan_route.shortest"], "s"),
        "routing.plan_route.inverse.self_s": (own["routing.plan_route.inverse"], "s"),
        "routing.plan_route.mixnet.self_s": (own["routing.plan_route.mixnet"], "s"),
        "simulate.run_tour.calls": (calls["simulate.run_tour"], "count"),
        "simulate.run_tour.self_s": (own["simulate.run_tour"], "s"),
        "simulate.metrics_from_tours.self_s": (own["simulate.metrics_from_tours"], "s"),
        "simulate.run_round_details.self_s": (own["simulate.run_round_details"], "s"),
        "rng.substream.calls": (calls["rng.substream"], "count"),
        "rng.substream.self_s": (own["rng.substream"], "s"),
        "experiment.self_s": (own["experiment.run_matrix"] + own["experiment.run_sweep"], "s"),
        "experiment.emit_reports.self_s": (own["experiment.emit_reports"], "s"),
        "cli.self_s": (own["cli"], "s"),
        "tracing.wall_s": (traced_wall_s, "s"),
        "tracing.overhead_ratio": (traced_wall_s / untraced_wall_s, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def recorded_values(layers: Layers, counters: dict) -> dict:
    """Layer figures that are 0 on some workload, so printed but not metrics."""
    calls, own = layers.calls, layers.own
    return {
        "network.edge_disjoint_paths.calls": calls["network.edge_disjoint_paths"],
        "network.edge_disjoint_paths.self_s": own["network.edge_disjoint_paths"],
        "routing.plan_route.random_walk.self_s": own["routing.plan_route.random_walk"],
        "routing.plan_route.disjoint.self_s": own["routing.plan_route.disjoint"],
        "routing.failed_walks": counters["routing.failed_walks"],
        "game.solve_zero_sum.calls": calls["game.solve_zero_sum"],
        "game.solve_zero_sum.self_s": own["game.solve_zero_sum"],
        "game.achieved_epsilon": counters["game.achieved_epsilon"],
        "experiment.run_matrix.self_s": own["experiment.run_matrix"],
        "experiment.run_sweep.self_s": own["experiment.run_sweep"],
    }


# The traced process runs for a moment outside the root span: interpreter
# start-up before it opens, writing the spans file and exiting after it closes.
UNTRACED_TOLERANCE = 0.10   # share of the traced process's wall time
UNTRACED_TOLERANCE_S = 0.5


def trace_problems(span_self: list[float], wall_s: float, counters: dict) -> list[str]:
    """The self times must add up to the traced process's wall time, and no
    route plan may abandon a random walk.

    Self times are taken against a strict stack of spans, so they cannot be
    negative and always sum to the root span's duration; what this checks
    is that the root span covers the process from spawn to exit.
    """
    problems = []
    untraced = wall_s - sum(span_self)
    if not 0.0 <= untraced <= max(UNTRACED_TOLERANCE * wall_s, UNTRACED_TOLERANCE_S):
        problems.append(f"self times sum to {sum(span_self):.3f} s, the traced process "
                        f"ran {wall_s:.3f} s")
    if counters["routing.failed_walks"]:
        problems.append(f"{counters['routing.failed_walks']} route plans abandoned a "
                        "random walk; the workload must plan every route")
    return problems


def traced(bench: Bench, seconds: float) -> Result:
    workload = bench.workload
    config = bench.write_config("config-traced.txt", 1)
    runs = bench.cli_runs(config, 1, seconds)
    untraced_wall = statistics.median([r.wall_s for r in runs])

    traces = bench.root / ".perfbench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    run_id = f"{workload.name}-seed{bench.seed}-{os.getpid()}"
    spans_path = traces / f"{run_id}.json"
    out = bench.work / "traced"
    run = bench.spawn([str(HERE / "traced_cli.py"), str(spans_path), run_id,
                       "--config", str(config), "--out", str(out), *workload.command],
                      1, bench.work / "traced.log")
    bench.check(run, out)
    runs.append(run)
    if run.code != 0 or not spans_path.is_file():
        return Result(runs, {}, [], ["the traced run wrote no spans"])
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    span_self = self_times(trace["spans"])
    counters = trace["counters"]
    run.problems.extend(trace_problems(span_self, run.wall_s, counters))
    layers = Layers(trace["spans"], span_self)
    metrics = layer_metrics(layers, counters, run.wall_s, untraced_wall)
    notes = [f"{name:<40}{m['value']:>14.6g}  {m['unit']}" for name, m in metrics.items()]
    notes.extend(f"recorded {name:<40}{value:>14.6g}"
                 for name, value in recorded_values(layers, counters).items())
    notes.append(f"spans: {len(trace['spans'])} at {trace['bindings']} bindings, self times "
                 f"{sum(span_self):.3f} s of a {run.wall_s:.3f} s process -> {spans_path}")
    return Result(runs, metrics, notes)


# -- entry point -------------------------------------------------------------------


def digest_notes(bench: Bench) -> list[str]:
    """At the default seed, compare every report with its recorded digest."""
    if bench.seed != DEFAULT_SEED or bench.reference is None:
        return []
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    expected = recorded.get(bench.workload.name, {})
    return [f"digest {bench.workload.name} {name}: "
            f"{'match' if expected.get(name) == found else 'DIFFERS from recorded'}"
            for name, found in bench.reference.items()]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "roadgame" / "__init__.py").is_file():
        print(f"error: {root} holds no src/roadgame to benchmark", file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    try:
        measure = traced if args.trace else end_to_end
        result = measure(bench, args.seconds)
        result.notes.extend(digest_notes(bench))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    workload = bench.workload
    workers = 1 if args.trace else workload.workers
    print(f"workload {workload.name} seed {args.seed}: {workload.rounds} rounds, "
          f"workers {workers}, BLAS threads {bench.blas_threads(workers)} of {bench.cpus} cpus")
    for note in result.notes:
        print(note)
    failed = sum(1 for run in result.runs if run.problems)
    for problem in result.problems + [p for run in result.runs for p in run.problems]:
        print(f"FAILED: {problem}")
    correct = failed == 0 and not result.problems
    print(json.dumps({"correct": correct, "attempted": len(result.runs), "failed": failed,
                      "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
