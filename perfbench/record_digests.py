"""Record the SHA-256 of every report each workload writes at the default seed.

Usage, from the repository root: python3 perfbench/record_digests.py

run.py compares later runs at the default seed with these digests and
reports each report by name, so an intended output change shows up and
an unintended one is not silent.  Re-record only when a change to the
program's output is intended.
"""

import json
import shutil
import sys
from pathlib import Path

from run import HERE, Bench
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    recorded = {}
    for workload in WORKLOADS.values():
        bench = Bench(Path.cwd().resolve(), workload, DEFAULT_SEED)
        try:
            config = bench.write_config("config.txt", workload.workers)
            run, = bench.cli_runs(config, workload.workers, 0.0)
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        if run.problems:
            print(f"{workload.name}: {run.problems}", file=sys.stderr)
            return 1
        recorded[workload.name] = bench.reference
        print(f"{workload.name}: {run.wall_s:.1f} s")
    (HERE / "digests.json").write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
