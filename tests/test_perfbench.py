import importlib.util
import sys
from pathlib import Path

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"


def test_traced_benchmark_targets_resolve():
    # the traced benchmark run wraps each target by name after importing the
    # CLI; a renamed or deleted one makes every traced run fail
    spec = importlib.util.spec_from_file_location("perfbench_traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    import roadgame.cli  # noqa: F401  (the targets are looked up after this import)
    targets = [(module, attr) for module, attr, *_ in traced_cli.targets(traced_cli.Tracer())]
    missing = [(module, attr) for module, attr in targets
               if not callable(getattr(sys.modules.get(module), attr, None))]
    assert missing == []
