import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings, strategies as st

import roadgame.experiment as experiment
import roadgame.simulate as simulate
from roadgame.attacks import ATTACK_STRATEGIES
from roadgame.cli import ANALYZE_METHODS, main as cli_main
from roadgame.errors import ParseError, ValidationError
from roadgame.experiment import (DEFAULT_ATTACKER_COUNTS, DEFAULT_SEEDS,
                                 DEFAULT_WINDOW_MULTIPLIERS, ExperimentConfig,
                                 emit_reports, run_matrix, run_sweep)
from roadgame.network import save_network
from roadgame.routing import DEFENSE_STRATEGIES
from roadgame.synth import generate_city

SMALL_CFG = """\
network_kind = two_cluster
cluster_size_a = 16
cluster_size_b = 16
bridges = 2
edge_time_s = 60
fleet_couriers = 5
fleet_stops = 2
fleet_slack_s = 400
fleet_seed = 11
attacks = betweenness,random
defenses = shortest,mixnet
k = 3
seeds = 0,1
"""


def run_cli(args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "roadgame.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", max_size=8)


def _field_values(name: str, default):
    """Values of one config field that pass ExperimentConfig validation."""
    if name in ("attacks", "defenses"):
        choices = ATTACK_STRATEGIES if name == "attacks" else DEFENSE_STRATEGIES
        return st.lists(st.sampled_from(choices), min_size=1, unique=True).map(tuple)
    if name == "seeds":
        return st.lists(st.integers(), min_size=1, unique=True).map(tuple)
    if name == "window_multipliers":
        return st.lists(st.floats(min_value=1.0, allow_infinity=False),
                        min_size=1, unique=True).map(tuple)
    if name == "attacker_counts":
        return st.lists(st.integers(min_value=1), min_size=1, unique=True).map(tuple)
    if name in _POSITIVE_KEYS:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if name == "fleet_stop_prefixes":
        return st.lists(_TEXT.filter(bool)).map(tuple)
    if name == "k":
        return st.integers(min_value=1)
    if name == "workers":  # not part of the resolved lines
        return st.just(default)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    return _TEXT


# float keys whose value must be > 0
_POSITIVE_KEYS = ("edge_time_s", "geo_radius_m", "ambush_delay_s", "fleet_slack_s")

# every float key and float-list key of the config
_FLOAT_KEYS = [f.name for f in fields(ExperimentConfig)
               if isinstance(f.default, float)
               or (isinstance(f.default, tuple) and f.default and isinstance(f.default[0], float))]


def _configs():
    return st.fixed_dictionaries(
        {f.name: _field_values(f.name, f.default) for f in fields(ExperimentConfig)}
    ).map(lambda kwargs: ExperimentConfig(**kwargs))


@pytest.fixture()
def small_cfg_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(SMALL_CFG)
    return path


class TestConfig:
    def test_defaults_follow_baseline_protocol(self):
        cfg = ExperimentConfig()
        assert cfg.k == 30
        assert cfg.ambush_delay_s == 600.0
        assert cfg.window_multipliers == DEFAULT_WINDOW_MULTIPLIERS
        assert cfg.window_multipliers[0] == 1.0 and cfg.window_multipliers[-1] == 3.5
        assert cfg.attacker_counts == DEFAULT_ATTACKER_COUNTS == (1, 5, 10, 20, 30, 40, 50)
        assert len(DEFAULT_SEEDS) == 10
        assert cfg.attacks == ATTACK_STRATEGIES
        assert cfg.defenses == ("shortest", "inverse", "mixnet")

    def test_parse_file(self, small_cfg_file):
        cfg = ExperimentConfig.from_file(small_cfg_file)
        assert cfg.attacks == ("betweenness", "random")
        assert cfg.seeds == (0, 1)
        assert cfg.k == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("warp_speed = 9\n")
        with pytest.raises(ParseError):
            ExperimentConfig.from_file(path)

    def test_validation(self):
        with pytest.raises(ValidationError):
            ExperimentConfig(k=0)
        with pytest.raises(ValidationError):
            ExperimentConfig(attacks=("betweenness", "nonsense"))
        with pytest.raises(ValidationError):
            ExperimentConfig(window_multipliers=(0.5,))

    def test_hash_changes_iff_field_changes(self):
        base = ExperimentConfig()
        assert base.config_hash() == ExperimentConfig().config_hash()
        changed = ExperimentConfig(k=31)
        assert changed.config_hash() != base.config_hash()
        # execution knob: no semantic difference
        pooled = ExperimentConfig(workers=4)
        assert pooled.config_hash() == base.config_hash()

    @pytest.mark.parametrize("key, values", [
        ("attacks", ("random", "degree", "random")),
        ("defenses", ("shortest", "shortest")),
        ("seeds", (0, 0)),
        ("window_multipliers", (1.0, 1.5, 1.0)),
        ("attacker_counts", (5, 1, 5)),
    ])
    def test_duplicate_list_entries_rejected(self, key, values):
        with pytest.raises(ValidationError, match=f"{key} lists {values[0]!r}"):
            ExperimentConfig(**{key: values})

    @pytest.mark.parametrize("line, key", [("seeds = 0,0", "seeds"),
                                           ("attacks = random,random", "attacks")])
    def test_duplicate_entries_exit_1_without_traceback(self, tmp_path, line, key):
        # seeds = 0,0 used to halve the cell mean; attacks = random,random
        # used to add an all-zero row that fed the LP
        path = tmp_path / "dup.txt"
        path.write_text(SMALL_CFG + line + "\n")
        result = run_cli(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert f"error: {key} lists" in result.stderr

    def test_non_numeric_value_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("attacks = random\nk = thirty\n")
        with pytest.raises(ParseError) as exc:
            ExperimentConfig.from_file(path)
        assert str(exc.value) == f"{path}:2: invalid value for k: 'thirty'"
        result = run_cli(["--config", str(path), "gen-city"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_non_finite_float_is_parse_error(self, tmp_path, capsys, key):
        # nan used to fall back to a default or fail far downstream, and inf ran
        path = tmp_path / "bad.txt"
        for text in ("nan", "inf", "-inf", "1e400", "1, nan"):  # 1e400 parses to inf
            path.write_text(f"{key} = {text}\n")
            message = f"{path}:1: invalid value for {key}: {text!r}"
            with pytest.raises(ParseError) as exc:
                ExperimentConfig.from_file(path)
            assert str(exc.value) == message
        assert cli_main(["--config", str(path), "gen-city"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_non_finite_float_rejected_in_code(self, key):
        # the parser refuses these texts, but a config built in code hashed them
        is_list = isinstance(getattr(ExperimentConfig(), key), tuple)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError,
                               match=re.escape(f"{key} must be finite, got {bad!r}")):
                ExperimentConfig(**{key: (1.0, bad) if is_list else bad})

    @pytest.mark.parametrize("key", _POSITIVE_KEYS)
    def test_non_positive_value_names_the_key(self, tmp_path, capsys, key):
        # edge_time_s = -5 used to fail as "edge 'nh00x00' length_m must be ..."
        for value in (0.0, -5.0):
            with pytest.raises(ValidationError,
                               match=re.escape(f"{key} must be > 0, got {value!r}")):
                ExperimentConfig(**{key: value})
        path = tmp_path / "bad.txt"
        path.write_text(f"{key} = -5\n")
        assert cli_main(["--config", str(path), "gen-city"]) == 1
        assert capsys.readouterr().err == f"error: {key} must be > 0, got -5.0\n"

    @pytest.mark.parametrize("key, axis", [("attacker_counts", "attackers"),
                                           ("window_multipliers", "window")])
    def test_empty_sweep_list_exits_1_without_traceback(self, tmp_path, key, axis):
        # an empty list used to pass validation and crash run_sweep with a KeyError
        path = tmp_path / "empty.txt"
        path.write_text(SMALL_CFG + f"{key} =\n")
        result = run_cli(["--config", str(path), "--out", str(tmp_path / "o"),
                          "sweep", "--axis", axis])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert f"error: {key} must be nonempty" in result.stderr

    def test_boolean_typo_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nested_plans = flase\n")
        with pytest.raises(ParseError, match=r":1: invalid value for nested_plans: 'flase'"):
            ExperimentConfig.from_file(path)
        for text, value in (("true", True), ("OFF", False), ("1", True), ("no", False)):
            assert ExperimentConfig.from_mapping({"nested_plans": text}).nested_plans is value

    def test_non_utf8_config_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"# caf\xc3\xa9\nnetwork_kind = gr\xe9d\n")
        with pytest.raises(ParseError, match=r"latin1\.txt:2: not UTF-8 text \(byte 0xe9\)"):
            ExperimentConfig.from_file(path)

    @settings(max_examples=150, deadline=None)
    @given(cfg=_configs())
    @example(cfg=ExperimentConfig(attacks=("random", "degree"), seeds=(3, 4, 5),
                                  fleet_stop_prefixes=("b", "a")))
    @example(cfg=ExperimentConfig(edge_time_s=60.123456789012))
    @example(cfg=ExperimentConfig(window_multipliers=(1.0, 1.0000000001)))
    def test_roundtrip_through_lines(self, cfg):
        raw = {key.strip(): value.strip() for key, _, value in
               (line.partition("=") for line in cfg.resolved_lines())}
        again = ExperimentConfig.from_mapping(raw)
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_floats_beyond_nine_digits_change_the_hash(self):
        # nine significant digits alone would render both as 60.1234568
        a = ExperimentConfig(edge_time_s=60.123456789012)
        b = ExperimentConfig(edge_time_s=60.1234567891)
        assert a.config_hash() != b.config_hash()
        assert "edge_time_s = 60.123456789012" in a.resolved_lines()
        # nine significant digits stay the rendering whenever they are exact
        assert "edge_time_s = 60" in ExperimentConfig().resolved_lines()
        assert "window_multipliers = 1,1.25,1.5,1.75,2,2.25,2.5,2.75,3,3.25,3.5" in (
            ExperimentConfig().resolved_lines())


class TestRunMatrix:
    def test_shape_and_metrics(self, small_cfg_file):
        cfg = ExperimentConfig.from_file(small_cfg_file)
        result = run_matrix(cfg)
        assert result.payoff.payoff.shape == (2, 2)
        assert len(result.cell_metrics) == 2 * 2 * 2
        assert 0.0 <= result.mixed.value <= 1.0

    def test_window_sweep_at_one_matches_matrix(self, small_cfg_file):
        cfg = ExperimentConfig.from_file(small_cfg_file)
        cfg = ExperimentConfig.from_mapping(
            {key.strip(): value.strip() for key, _, value in
             (line.partition("=") for line in cfg.resolved_lines())} |
            {"window_multipliers": "1.0"})
        rows = run_sweep(cfg, "window")
        result = run_matrix(cfg)
        for row in rows:
            attack, defense, _, mult, seed, late = row[:6]
            assert mult == 1.0
            assert late == result.cell_metrics[(attack, defense, seed)].late_fraction

    def test_default_strategy_lists_give_9x3_matrix(self, tmp_path):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text(
            "network_kind = two_cluster\ncluster_size_a = 16\ncluster_size_b = 16\n"
            "bridges = 2\nedge_time_s = 60\nfleet_couriers = 4\nfleet_stops = 2\n"
            "fleet_slack_s = 400\nk = 4\nseeds = 0\n")
        cfg = ExperimentConfig.from_file(cfg_path)
        result = run_matrix(cfg)
        out = tmp_path / "out"
        emit_reports(cfg, out, matrix=result)
        rows = (out / "payoff_matrix.csv").read_text().splitlines()
        assert len(rows) == 1 + 9 * 3
        assert (out / "critical_delays.csv").read_text().count("\n") == 1 + 9 * 3

    def test_emit_reports_shapes(self, small_cfg_file, tmp_path):
        cfg = ExperimentConfig.from_file(small_cfg_file)
        result = run_matrix(cfg)
        window_rows = run_sweep(cfg, "window")
        out = tmp_path / "out"
        emit_reports(cfg, out, matrix=result, window_rows=window_rows)
        payoff = (out / "payoff_matrix.csv").read_text().splitlines()
        assert payoff[0] == "attack,defense,payoff_mean,payoff_std,n"
        assert len(payoff) == 1 + 2 * 2
        critical = (out / "critical_delays.csv").read_text().splitlines()
        assert len(critical) == 1 + 2 * 2
        sweep = (out / "sweep_window.csv").read_text().splitlines()
        assert len(sweep) == 1 + len(window_rows)
        # header-only file for the sweep that did not run
        attackers = (out / "sweep_attackers.csv").read_text().splitlines()
        assert len(attackers) == 1
        manifest = (out / "manifest.txt").read_text()
        assert f"config_hash = {cfg.config_hash()}" in manifest

    def test_routes_planned_once_per_defense_seed_courier(self, small_cfg_file,
                                                          monkeypatch):
        calls = []
        original = simulate.plan_route

        def counting(net, card, strategy, seed=0):
            calls.append((strategy, card.courier_id, seed))
            return original(net, card, strategy, seed=seed)

        monkeypatch.setattr(simulate, "plan_route", counting)
        cfg = ExperimentConfig.from_file(small_cfg_file)
        run_matrix(cfg)
        # 2 defenses x 2 seeds x 5 couriers, each planned exactly once
        assert len(calls) == 2 * 2 * 5
        assert Counter(calls).most_common(1)[0][1] == 1
        assert Counter(strategy for strategy, _, _ in calls) == {"shortest": 10, "mixnet": 10}

    def test_pool_is_capped_at_the_task_count(self, small_cfg_file, monkeypatch):
        # the fork start method forks every worker at the first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(experiment, "ProcessPoolExecutor", RecordingPool)
        assert experiment._map_tasks(abs, [-1, -2], workers=64) == [1, 2]
        assert experiment._map_tasks(abs, [-1, -2, -3], workers=2) == [1, 2, 3]
        cfg = replace(ExperimentConfig.from_file(small_cfg_file), workers=64)
        run_matrix(cfg)  # 2 defenses x 2 seeds
        assert sizes == [2, 2, 4]


class TestCliCommands:
    @pytest.mark.parametrize("command", [
        ("matrix",), ("sweep", "--axis", "attackers"), ("sweep", "--axis", "window")],
        ids=["matrix", "sweep-attackers", "sweep-window"])
    def test_matrix_determinism_across_workers(self, small_cfg_file, tmp_path, command):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        r1 = run_cli(["--config", str(small_cfg_file), "--out", str(out1),
                      "--workers", "1", *command])
        r2 = run_cli(["--config", str(small_cfg_file), "--out", str(out2),
                      "--workers", "2", *command])
        assert r1.returncode == 0 and r2.returncode == 0, r1.stderr + r2.stderr
        for name in ("payoff_matrix.csv", "equilibria.csv", "critical_delays.csv",
                     "sweep_window.csv", "sweep_attackers.csv", "manifest.txt"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_attack_subcommand(self, small_cfg_file, tmp_path):
        out = tmp_path / "o"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(out),
                          "attack", "--strategy", "greedy_mod", "--k", "2"])
        assert result.returncode == 0, result.stderr
        lines = (out / "attack_greedy_mod.csv").read_text().splitlines()
        assert lines == ["edge_id", "xbridge0", "xbridge1"]

    def test_analyze_subcommand(self, small_cfg_file, tmp_path):
        out = tmp_path / "o"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(out),
                          "analyze", "--method", "eigen_mod"])
        assert result.returncode == 0, result.stderr
        lines = (out / "partition_eigen_mod.csv").read_text().splitlines()
        assert lines[0] == "node_id,community"
        assert len(lines) == 33
        labels = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
        assert len(set(labels.values())) == 2

    @pytest.mark.parametrize("method", ANALYZE_METHODS)
    def test_analyze_writes_the_partition_the_attack_cuts(self, tmp_path, method):
        # botgrep must use the attack's fixed k-means seed here too, not a
        # round seed
        net = ExperimentConfig().build_network()
        assert cli_main(["--out", str(tmp_path), "analyze", "--method", method]) == 0
        rows = (tmp_path / f"partition_{method}.csv").read_text().splitlines()[1:]
        label = dict(row.split(",") for row in rows)
        cut = {eid for eid in net.edge_ids
               if label[net.edges[eid].u] != label[net.edges[eid].v]}
        assert cut
        assert cli_main(["--out", str(tmp_path), "attack", "--strategy", method,
                         "--k", str(len(cut))]) == 0
        attacked = (tmp_path / f"attack_{method}.csv").read_text().splitlines()[1:]
        assert set(attacked) == cut

    def test_gen_city_and_files_network(self, small_cfg_file, tmp_path):
        out = tmp_path / "city"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(out), "gen-city"])
        assert result.returncode == 0, result.stderr
        cfg2 = tmp_path / "cfg2.txt"
        cfg2.write_text(
            "network_kind = files\n"
            f"nodes_file = {out / 'nodes.csv'}\n"
            f"edges_file = {out / 'edges.csv'}\n")
        result2 = run_cli(["--config", str(cfg2), "--out", str(tmp_path / "o2"),
                           "attack", "--strategy", "betweenness", "--k", "2"])
        assert result2.returncode == 0, result2.stderr

    def test_simulate_subcommand(self, small_cfg_file, tmp_path):
        out = tmp_path / "sim"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(out),
                          "simulate", "--attack", "betweenness", "--defense", "shortest"])
        assert result.returncode == 0, result.stderr
        lines = (out / "round_metrics.csv").read_text().splitlines()
        assert lines[0] == ("attack,defense,k,M,window_mult,late_frac,"
                            "crit_frac_of_late,mean_tour_s,p95_tour_s,ambushes")
        assert len(lines) == 3  # one row per seed
        # each round row is the sweep's row at window_mult 1 without its seed column
        sweep = tmp_path / "sweep"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(sweep),
                          "sweep", "--axis", "window"])
        assert result.returncode == 0, result.stderr
        at_one = {}
        for line in (sweep / "sweep_window.csv").read_text().splitlines()[1:]:
            cols = line.split(",")
            if cols[4] == "1":
                at_one[(cols[0], cols[1], int(cols[5]))] = cols[:5] + cols[6:]
        for seed, line in zip((0, 1), lines[1:]):
            assert line.split(",") == at_one[("betweenness", "shortest", seed)]

    def test_synth_subcommand(self, tmp_path):
        city = tmp_path / "base"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("network_kind = grid\ngrid_rows = 5\ngrid_cols = 5\n"
                       "fleet_couriers = 3\nfleet_stops = 2\nfleet_slack_s = 600\n")
        r = run_cli(["--config", str(cfg), "--out", str(city), "gen-city"])
        assert r.returncode == 0, r.stderr
        # base cards live on the same grid
        from roadgame.synth import make_fleet, write_jobcards
        from roadgame.network import load_network
        net = load_network(city / "nodes.csv", city / "edges.csv")
        write_jobcards(make_fleet(net, 3, 2, 600.0, seed=1), city / "cards.csv")
        out = tmp_path / "synth"
        r2 = run_cli(["--config", str(cfg), "--out", str(out), "synth",
                      "--base-nodes", str(city / "nodes.csv"),
                      "--base-edges", str(city / "edges.csv"),
                      "--base-cards", str(city / "cards.csv")])
        assert r2.returncode == 0, r2.stderr
        cards = (out / "synthetic_cards.csv").read_text().splitlines()
        legs = (out / "synthetic_legs.csv").read_text().splitlines()
        assert cards[0] == "courier_id,seq,node_id,window_start_s,window_end_s"
        assert legs[0] == "courier_id,seq,base_leg_s,synth_leg_s,tolerance_used"
        assert len(legs) == 1 + 3 * 2

    def test_sweep_subcommand(self, small_cfg_file, tmp_path):
        out = tmp_path / "sweep"
        result = run_cli(["--config", str(small_cfg_file), "--out", str(out),
                          "--nested-plans", "sweep", "--axis", "attackers"])
        assert result.returncode == 0, result.stderr
        lines = (out / "sweep_attackers.csv").read_text().splitlines()
        # 2 attacks x 2 defenses x 2 seeds x 7 default counts
        assert len(lines) == 1 + 2 * 2 * 2 * 7

    def test_output_dir_config_field_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("network_kind = grid\ngrid_rows = 3\ngrid_cols = 3\n"
                       f"output_dir = {tmp_path / 'from_config'}\n")
        r = run_cli(["--config", str(cfg), "gen-city"])
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "from_config" / "nodes.csv").exists()
        r2 = run_cli(["--config", str(cfg), "--out", str(tmp_path / "flag"), "gen-city"])
        assert r2.returncode == 0, r2.stderr
        assert (tmp_path / "flag" / "edges.csv").exists()

    @pytest.mark.parametrize("line", ["edge_time_s = 1e300", "fleet_day_start_s = 1e308",
                                      "fleet_slack_s = 1e-300"])
    def test_vanishing_slack_exits_1_naming_the_slack(self, tmp_path, line):
        # used to stop with "stop 'n00x05': window start must precede window end"
        path = tmp_path / "cfg.txt"
        path.write_text(line + "\n")
        result = run_cli(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert re.search(r"^error: fleet slack \S+ s .* arrival time \S+ s", result.stderr)

    @pytest.mark.parametrize("command", [["matrix"], ["sweep", "--axis", "window"],
                                         ["--nested-plans", "sweep", "--axis", "attackers"]])
    def test_overflowing_clock_runs_without_warnings(self, tmp_path, command):
        # two ambushes of 1e308 s overflow a tour clock to +inf; numpy used to
        # print an overflow RuntimeWarning for it
        path = tmp_path / "cfg.txt"
        path.write_text(SMALL_CFG + "ambush_delay_s = 1e308\n")
        out = tmp_path / "o"
        result = run_cli(["--config", str(path), "--out", str(out), *command])
        assert (result.returncode, result.stderr) == (0, "")
        assert not any("nan" in f.read_text() for f in out.iterdir())

    def test_error_paths_exit_nonzero(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("network_kind = files\n")
        result = run_cli(["--config", str(bad), "--out", str(tmp_path / "x"),
                          "gen-city"])
        assert result.returncode == 1
        assert "error" in result.stderr


@pytest.mark.parametrize("case", ["config", "nodes_file", "edges_file", "jobcards_file",
                                  "out_under_file", "out_is_file"])
def test_file_errors_exit_1_naming_the_path(tmp_path, capsys, case):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    cfg = tmp_path / "cfg.txt"
    save_network(generate_city("grid", rows=2, cols=2, edge_time_s=60.0),
                 tmp_path / "nodes.csv", tmp_path / "edges.csv")
    files = {"nodes_file": tmp_path / "nodes.csv", "edges_file": tmp_path / "edges.csv"}
    missing = tmp_path / "missing.csv"
    if case in files:
        files[case] = missing
    lines = ["network_kind = files", f"nodes_file = {files['nodes_file']}",
             f"edges_file = {files['edges_file']}"]
    command = ["gen-city"]
    if case == "jobcards_file":
        lines += ["fleet_kind = file", f"jobcards_file = {missing}"]
        command = ["simulate", "--attack", "random", "--defense", "shortest"]
    cfg.write_text("\n".join(lines) + "\n")
    out = {"out_under_file": afile / "sub", "out_is_file": afile}.get(case, tmp_path / "o")
    config = tmp_path / "nope.txt" if case == "config" else cfg
    assert cli_main(["--config", str(config), "--out", str(out), *command]) == 1
    path = {"config": config, "out_under_file": out, "out_is_file": out}.get(case, missing)
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("name, row, field", [
    ("nodes.csv", 2, "x"), ("nodes.csv", 2, "y"),
    ("edges.csv", 2, "length_m"), ("edges.csv", 2, "speed_mps"),
    ("cards.csv", 2, "window_start_s"),  # the warehouse row's day start
    ("cards.csv", 3, "window_start_s"), ("cards.csv", 3, "window_end_s")])
def test_non_finite_input_field_exits_1_naming_it(tmp_path, capsys, name, row, field):
    # an inf or nan day start used to write nan tour times and exit 0, an inf
    # window end was accepted, and a nan coordinate or inf length was refused
    # without the file and line
    net = generate_city("grid", rows=2, cols=2, edge_time_s=60.0)
    save_network(net, tmp_path / "nodes.csv", tmp_path / "edges.csv")
    (tmp_path / "cards.csv").write_text(
        "courier_id,seq,node_id,window_start_s,window_end_s\n"
        f"c0,0,{net.node_ids[0]},0,\n"
        f"c0,1,{net.node_ids[-1]},0,100000\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"network_kind = files\nnodes_file = {tmp_path / 'nodes.csv'}\n"
                   f"edges_file = {tmp_path / 'edges.csv'}\n"
                   f"fleet_kind = file\njobcards_file = {tmp_path / 'cards.csv'}\n")
    path = tmp_path / name
    lines = path.read_text().splitlines()
    column = lines[0].split(",").index(field)
    for text in ("inf", "-inf", "nan", "1e400"):  # 1e400 parses to inf
        cells = lines[row - 1].split(",")
        cells[column] = text
        path.write_text("\n".join(lines[:row - 1] + [",".join(cells)] + lines[row:]) + "\n")
        assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                         "simulate", "--attack", "random", "--defense", "shortest"]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}:{row}: {field} must be finite, got {text!r}\n")


@pytest.mark.parametrize("method", ["botgrep", "infomap"])
def test_analyze_is_byte_identical_across_blas_threads(tmp_path, method):
    # a 16x16 grid makes P^t large enough for OpenBLAS to split the work
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("network_kind = grid\ngrid_rows = 16\ngrid_cols = 16\n")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        result = run_cli(["--config", str(cfg), "--out", str(out), "analyze", "--method", method],
                         env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
        outputs.append((out / f"partition_{method}.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # no scipy module at all: importing any of it costs set-up time and memory
    code = (
        "import sys, roadgame.cli\n"
        "loaded = [sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]\n"
        f"for method in {ANALYZE_METHODS!r}:\n"
        f"    assert roadgame.cli.main(['--out', {str(tmp_path)!r}, 'analyze', '--method', method]) == 0\n"
        "    loaded.append(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(loaded)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr([[]] * (len(ANALYZE_METHODS) + 1))
