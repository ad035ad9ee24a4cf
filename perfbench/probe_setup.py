"""Pay the CLI's set-up cost once and exit: import, config parse, network and fleet.

Usage: python3 perfbench/probe_setup.py CONFIG

The parent times this process from spawn to exit, so interpreter start-up
is included, as it is for a user of the CLI.
"""

import sys
from pathlib import Path

import roadgame.cli
from roadgame.experiment import ExperimentConfig


def main(config: str) -> int:
    source = Path.cwd().resolve() / "src" / "roadgame"
    if Path(roadgame.cli.__file__).resolve().parent != source:
        print(f"error: roadgame imported from {roadgame.cli.__file__}, not {source}",
              file=sys.stderr)
        return 3
    cfg = ExperimentConfig.from_file(config)
    net = cfg.build_network()
    cfg.build_fleet(net)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
