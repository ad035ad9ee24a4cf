"""The experiment runner's analysis stage, dispatched to a recording pool.

``FreshWorkerPool`` runs every task in this process, but each on a
scenario built anew, as a freshly started pool worker would see it; so
a round task finds in its network's memo only the analysis stage's
entries.
"""

import concurrent.futures
import functools
import multiprocessing
from collections import Counter
from dataclasses import replace

import pytest

import roadgame.analysis as analysis
import roadgame.attacks as attacks
import roadgame.experiment as experiment
from roadgame.attacks import ATTACK_STRATEGIES, PARTITION_STRATEGIES
from roadgame.cli import main as cli_main
from roadgame.errors import ConvergenceError, DomainError
from roadgame.experiment import ExperimentConfig, _run_rows
from roadgame.network import memoised

CFG = ExperimentConfig(
    network_kind="two_cluster", cluster_size_a=16, cluster_size_b=16, bridges=2,
    edge_time_s=60.0, fleet_couriers=4, fleet_stops=2, fleet_slack_s=400.0,
    k=3, seeds=(0, 1), workers=3)

# every function that computes an analysis, bound in the modules that call it
DETECTORS = ("_betweenness_sums", "_eigenvector_scores", "mixing_partition",
             "flow_partition", "agglomerative_modularity", "spectral_bisect")


class FreshWorkerPool:
    instances: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.maps: list[tuple[str, list]] = []
        self.stage: list[str | None] = [None]
        self.shut_down = False
        FreshWorkerPool.instances.append(self)

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.maps.append((fn.__name__, tasks))
        results = []
        for task in tasks:
            experiment._scenario.cache_clear()
            self.stage[0] = fn.__name__
            try:
                results.append(fn(task))
            finally:
                self.stage[0] = None
        return iter(results)

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


@pytest.fixture()
def recorded(monkeypatch):
    """(pools, detector calls as (stage, detector)) of the runs made in the test."""
    FreshWorkerPool.instances = []
    calls = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FreshWorkerPool)

    def stage():
        pools = FreshWorkerPool.instances
        return pools[-1].stage[0] if pools else None

    for name in DETECTORS:
        original = getattr(analysis, name)
        # a memoised detector is counted inside its memo, so only computations count
        inner = getattr(original, "__wrapped__", original)

        @functools.wraps(inner)  # memo keys follow the function's name
        def counting(*args, _name=name, _inner=inner, **kwargs):
            calls.append((stage(), _name))
            return _inner(*args, **kwargs)
        patched = counting if inner is original else memoised(counting)
        for module in (analysis, attacks, experiment):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, patched)
    yield FreshWorkerPool.instances, calls
    experiment._scenario.cache_clear()


_KINDS = {"_betweenness_sums": "betweenness", "_partition_for": "partition",
          "_eigenvector_scores": "eigenvector"}


def _dispatched(pool) -> list[tuple]:
    """The analysis tasks ``(cfg, fn, args)`` as (kind, argument) pairs."""
    return [(_KINDS[fn.__name__], args[0] if args else None)
            for name, tasks in pool.maps if name == "_analysis_task" for _, fn, args in tasks]


@pytest.mark.parametrize("attacks, defenses", [
    (ATTACK_STRATEGIES, ("shortest", "inverse", "mixnet")),
    (("random",), ("shortest",)),
    (("random", "degree"), ("shortest", "mixnet")),
    (("eigen_c",), ("shortest",)),
    (("betweenness",), ("inverse",)),
    (("infomap", "eigen_mod"), ("mixnet",)),
], ids=["all", "random-shortest", "degree", "eigen_c", "inverse", "partitions"])
def test_stage_dispatches_each_needed_analysis_once(recorded, attacks, defenses):
    pools, calls = recorded
    cfg = replace(CFG, attacks=attacks, defenses=defenses)
    experiment._scenario.cache_clear()
    rows = _run_rows(cfg, "matrix")
    [pool] = pools
    assert pool.shut_down
    net, _ = experiment._scenario(cfg)
    dispatched = _dispatched(pool)

    partitions = [a for a in attacks if a in PARTITION_STRATEGIES]
    needs_betweenness = bool(partitions) or "betweenness" in attacks or "inverse" in defenses
    needs_eigenvector = "eigen_c" in attacks or "inverse" in defenses
    kinds = Counter(kind for kind, _ in dispatched)
    assert kinds == Counter({"betweenness": cfg.workers if needs_betweenness else 0,
                             "partition": len(partitions),
                             "eigenvector": int(needs_eigenvector)}) - Counter()
    assert sorted(arg for kind, arg in dispatched if kind == "partition") == sorted(partitions)
    # the chunks partition the sources: every node is a source exactly once
    sources = [s for kind, chunk in dispatched if kind == "betweenness" for s in chunk]
    assert sorted(sources) == (list(range(net.num_nodes)) if needs_betweenness else [])
    # the dense-array detectors come first, so free workers take one each,
    # and the chunks next
    dense = [("partition", a) for a in partitions if a in ("botgrep", "eigen_mod")]
    chunks = cfg.workers if needs_betweenness else 0
    assert dispatched[:len(dense)] == dense
    after = dispatched[len(dense):len(dense) + chunks]
    assert [kind for kind, _ in after] == ["betweenness"] * chunks

    # each task ran its one detector; the parent and the round tasks ran none
    by_stage = Counter(stage for stage, _ in calls)
    assert set(by_stage) <= {"_analysis_task"}
    assert by_stage["_analysis_task"] == len(dispatched)
    assert [name for name, _ in pool.maps] == ["_analysis_task", "_rounds_task"]
    assert len(pool.maps[1][1]) == len(defenses) * len(cfg.seeds)

    experiment._scenario.cache_clear()
    assert rows == _run_rows(replace(cfg, workers=1), "matrix")


def test_round_tasks_carry_only_the_leaf_analyses(recorded):
    # rankings and inverse weights are built from these in each process
    pools, _ = recorded
    experiment._scenario.cache_clear()
    _run_rows(CFG, "matrix")
    [pool] = pools
    name, tasks = pool.maps[1]
    assert name == "_rounds_task"
    for *_, entries in tasks:
        assert sorted((fn.__name__, args) for fn, args, _ in entries) == sorted(
            [("_betweenness_scores", ()), ("_eigenvector_scores", ())]
            + [("_partition_for", (attack,)) for attack in PARTITION_STRATEGIES])


def test_one_worker_runs_the_stage_in_process(recorded):
    pools, calls = recorded
    experiment._scenario.cache_clear()
    _run_rows(replace(CFG, workers=1), "matrix")
    assert pools == []
    assert Counter(name for _, name in calls) == Counter(
        {"_betweenness_sums": 1, "_eigenvector_scores": 1, "mixing_partition": 1,
         "flow_partition": 1, "agglomerative_modularity": 2, "spectral_bisect": 1})


SMALL_CFG = """\
network_kind = two_cluster
cluster_size_a = 16
cluster_size_b = 16
bridges = 2
edge_time_s = 60
fleet_couriers = 4
fleet_stops = 2
fleet_slack_s = 400
attacks = betweenness,eigen_c
defenses = shortest
seeds = 0,1
workers = 2
"""


def _failing_eigenvector(net):
    raise ConvergenceError("eigenvector power iteration did not converge", residual=1.0)


def _failing_rounds(*args):
    raise DomainError("no round could be played")


@pytest.mark.parametrize("failing", ["round", "analysis"])
def test_an_error_in_a_pool_task_exits_1_and_leaves_no_worker(tmp_path, capsys, monkeypatch,
                                                              failing):
    # pool workers fork from this process, so they see the patched function
    config = tmp_path / "cfg.txt"
    config.write_text(SMALL_CFG)
    if failing == "round":
        # every round task fails on the pool, after the analysis stage
        monkeypatch.setattr(experiment, "run_rounds", _failing_rounds)
        message = "error: no round could be played"
    else:
        monkeypatch.setattr(experiment, "_eigenvector_scores", _failing_eigenvector)
        message = "error: eigenvector power iteration did not converge"
    experiment._scenario.cache_clear()
    code = cli_main(["--config", str(config), "--out", str(tmp_path / "out"), "matrix"])
    experiment._scenario.cache_clear()
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip() == message
    assert multiprocessing.active_children() == []
