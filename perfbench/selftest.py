"""Self-test of the benchmark on tiny configs; takes about a minute.

Usage, from the repository root: python3 perfbench/selftest.py

Runs every workload's code path, traced and untraced, on a 4x4 grid (a
32-node two-cluster city for bypass-matrix) with one round seed, and
checks that each metric named in BENCHMARK.json is printed with its unit,
that a deliberately corrupted report is counted as a failure, and that
the benchmark refuses a directory without the program.
"""

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

import run
import workloads
from workloads import Workload

SEED = 1   # not the default seed: the tiny inputs have no recorded digests


def tiny(workload: Workload) -> Workload:
    """A seconds-long version of the workload that runs the same code paths."""
    if workload.name == "bypass-matrix":
        config = {"network_kind": "two_cluster", "cluster_size_a": "16",
                  "cluster_size_b": "16", "bridges": "2", "bypass_count": "2",
                  "fleet_couriers": "4", "fleet_stops": "2", "k": "5",
                  "defenses": ",".join(workload.defenses), "workers": "2"}
    else:
        config = {"grid_rows": "4", "grid_cols": "4", "fleet_couriers": "3",
                  "fleet_stops": "2", "k": "5",
                  **{key: value for key, value in workload.config.items()
                     if key in ("defenses", "nested_plans", "workers")}}
    counts = (1, 3, 5) if workload.is_sweep else ()
    if counts:
        config["attacker_counts"] = ",".join(str(k) for k in counts)
    return Workload(name=workload.name, command=workload.command, config=config,
                    default_fleet_seed=0, default_seeds=(0,), attacks=workload.attacks,
                    defenses=workload.defenses, attacker_counts=counts)


def bench(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                         "--trace", str(trace)])
    if code != 0:
        raise AssertionError(f"{workload} trace {trace}: exit code {code}\n{out.getvalue()}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def corrupt(workload: Workload, out_dir: Path, value: str) -> Path:
    """Put ``value`` in place of the first late fraction of the run's main report."""
    name, column = (("sweep_attackers.csv", "late_frac") if workload.is_sweep
                    else ("payoff_matrix.csv", "payoff_mean"))
    path = out_dir / name
    lines = path.read_text(encoding="utf-8").splitlines()
    header, cells = lines[0].split(","), lines[1].split(",")
    cells[header.index(column)] = value
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out_dir


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    run.WORKLOADS = {name: tiny(w) for name, w in workloads.WORKLOADS.items()}

    for name in run.WORKLOADS:
        for trace in (0, 1):
            result = bench(name, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
            printed = {key: value["unit"] for key, value in result["metrics"].items()}
            assert printed == expected[trace], (name, trace, sorted(printed))
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        print(f"ok   {name}: every metric printed with its unit")

    check = run.check_reports
    try:
        for name, value in zip(run.WORKLOADS, ("1.5", "nan", "oops")):
            run.check_reports = (lambda workload, out_dir, seed, value=value:
                                 check(workload, corrupt(workload, out_dir, value), seed))
            result = bench(name, 1)
            assert not result["correct"] and result["failed"] == result["attempted"] >= 1, result
            print(f"ok   {name}: a report with late fraction {value!r} counts as a failed run")
    finally:
        run.check_reports = check

    payoff = [{"attack": a, "defense": d, "payoff_mean": str(v)} for a, d, v in
              (("betweenness", "shortest", 0.906), ("random", "shortest", 0.047),
               ("betweenness", "mixnet", 0.375))]
    assert workloads.headline_problems(payoff) == []
    payoff[2]["payoff_mean"] = "0.5"
    assert len(workloads.headline_problems(payoff)) == 1
    print("ok   the bypass-city headline check passes the seed values and fails a weak mixnet")

    clean = {"routing.failed_walks": 0}
    assert run.trace_problems([0.5, 1.4], 2.0, clean) == []
    assert len(run.trace_problems([0.5, 0.5], 2.0, clean)) == 1
    assert len(run.trace_problems([0.5, 1.4], 2.0, {"routing.failed_walks": 1})) == 1
    print("ok   a trace that misses part of the process or abandons a walk is a failure")

    empty = Path(".perfbench_work") / "selftest-empty"
    empty.mkdir(parents=True, exist_ok=True)
    here = Path.cwd()
    os.chdir(empty)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            assert run.main(["--workload", "grid-matrix", "--seed", "0", "--seconds", "1",
                             "--trace", "0"]) != 0
    finally:
        os.chdir(here)
        shutil.rmtree(empty)
    print("ok   a directory without src/roadgame is refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
