import concurrent.futures
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import fields, replace
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import roadgame.experiment as experiment
import roadgame.simulate as simulate
from roadgame.attacks import ATTACK_STRATEGIES
from roadgame.cli import ANALYZE_METHODS, main as cli_main
from roadgame.errors import DomainError, ParseError, ValidationError
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

# The 128-node bypass city's matrix dispatches every kind of analysis task.
# Its sources' path counts reach 79,200, so most 1/sigma floors are
# inexact; on SMALL_CFG at 3 workers the chunks' largest path counts differ
# (80, 80 and 32), so the merge must take the largest for the error bound.
BYPASS128_CFG = """\
network_kind = two_cluster
cluster_size_a = 64
cluster_size_b = 64
bridges = 2
edge_time_s = 20
bypass_count = 6
bypass_time_s = 300
fleet_couriers = 8
fleet_stops = 3
fleet_slack_s = 1800
fleet_warehouse = a00x00
fleet_stop_prefixes = b,a
k = 12
seeds = 0,1
"""


def run_cli(args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "roadgame.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


_TEXT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_./-", max_size=8)
_SEEDS = st.integers(0, 2**64 - 1)


def _field_values(name: str, default):
    """Values of one config field that pass ExperimentConfig validation."""
    if name in ("attacks", "defenses"):
        choices = ATTACK_STRATEGIES if name == "attacks" else DEFENSE_STRATEGIES
        return st.lists(st.sampled_from(choices), min_size=1, unique=True).map(tuple)
    if name == "seeds":
        return st.lists(_SEEDS, min_size=1, unique=True).map(tuple)
    if name == "network_kind":
        return st.sampled_from(("files", "grid", "geometric", "two_cluster"))
    if name == "fleet_kind":
        return st.sampled_from(("file", "random"))
    if name in ("nodes_file", "edges_file", "jobcards_file"):  # set for every kind
        return _TEXT.filter(bool)
    if name in ("city_seed", "fleet_seed"):
        return _SEEDS
    if name in ("bridge_time_s", "bypass_time_s"):  # < 0 picks the default, 0 is refused
        return st.floats(allow_nan=False, allow_infinity=False).filter(bool)
    if name == "window_multipliers":
        return st.lists(st.floats(min_value=1.0, allow_infinity=False),
                        min_size=1, unique=True).map(tuple)
    if name == "attacker_counts":
        return st.lists(st.integers(min_value=1), min_size=1, unique=True).map(tuple)
    if name in _POSITIVE_KEYS:
        return st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    if name == "fleet_stop_prefixes":
        return st.lists(_TEXT.filter(bool)).map(tuple)
    if name in _INT_LOWER_BOUNDS:
        return st.integers(min_value=_INT_LOWER_BOUNDS[name])
    if name == "workers":  # not part of the resolved lines
        return st.just(default)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return st.floats(allow_nan=False, allow_infinity=False)
    return _TEXT


# int keys with a lower bound
_INT_LOWER_BOUNDS = {"k": 1, "bypass_count": 0, "grid_rows": 2, "grid_cols": 2, "geo_n": 2,
                     "cluster_size_a": 4, "cluster_size_b": 4, "bridges": 1,
                     "fleet_couriers": 1, "fleet_stops": 1}

# float keys whose value must be > 0
_POSITIVE_KEYS = ("edge_time_s", "geo_radius_m", "geo_side_m", "ambush_delay_s",
                  "fleet_slack_s")

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
        lines = [line if text.startswith(f"{key} =") else text
                 for text in SMALL_CFG.splitlines()]
        assert line in lines
        path.write_text("\n".join(lines) + "\n")
        result = run_cli(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"])
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert f"error: {path}:{lines.index(line) + 1}: {key} lists" in result.stderr

    def test_repeated_key_is_parse_error(self, tmp_path):
        # the later value used to win silently
        path = tmp_path / "repeat.txt"
        path.write_text("k = 30\n# a comment\nattacks = random\nk = 40\n")
        with pytest.raises(ParseError) as exc:
            ExperimentConfig.from_file(path)
        assert str(exc.value) == f"{path}:4: config key 'k' repeats line 1"
        result = run_cli(["--config", str(path), "--out", str(tmp_path / "o"), "gen-city"])
        assert result.returncode == 1
        assert result.stderr == f"error: {path}:4: config key 'k' repeats line 1\n"

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
        assert capsys.readouterr().err == f"error: {path}:1: {key} must be > 0, got -5.0\n"

    def test_negative_bypass_count_names_the_key(self, tmp_path, capsys):
        # a 16+16 city with 1 bridge and bypass_count = -1 used to get 2 bypasses
        with pytest.raises(ValidationError, match="bypass_count must be >= 0, got -1"):
            ExperimentConfig(bypass_count=-1)
        path = tmp_path / "bad.txt"
        path.write_text("network_kind = two_cluster\nbridges = 1\nbypass_count = -1\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "gen-city"]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: bypass_count must be >= 0, got -1\n"

    @pytest.mark.parametrize("key", ["bridge_time_s", "bypass_time_s"])
    def test_zero_crossing_time_names_the_key(self, tmp_path, capsys, key):
        # 0 used to give the default, which only < 0 is documented to give
        message = f"{key} must be > 0, or < 0 for the default, got 0"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ExperimentConfig(**{key: 0.0})
        path = tmp_path / "bad.txt"
        path.write_text(f"network_kind = two_cluster\nbypass_count = 1\n{key} = 0\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "gen-city"]) == 1
        assert capsys.readouterr().err == f"error: {path}:3: {message}\n"
        assert not (tmp_path / "o").exists()
        for value in (-1.0, 0.5):  # a negative time still means the default
            ExperimentConfig(**{key: value})

    @pytest.mark.parametrize("key, seed", [("seeds", 2**64), ("seeds", -1),
                                           ("city_seed", 2**64), ("fleet_seed", -1)])
    def test_seed_outside_64_bits_names_the_key(self, tmp_path, capsys, key, seed):
        # seeds = 0,2**64 used to pass the repeat check and play one round twice
        message = f"{key} must be in [0, 2**64), got {seed}"
        path = tmp_path / "bad.txt"
        path.write_text(f"{key} = {'0,' if key == 'seeds' else ''}{seed}\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: {message}\n"
        assert not (tmp_path / "o").exists()
        ExperimentConfig(seeds=(0, 2**64 - 1), city_seed=2**64 - 1, fleet_seed=2**64 - 1)

    def test_seed_flag_outside_64_bits_exits_1(self, tmp_path, capsys):
        assert cli_main(["--seed", str(2**64), "--out", str(tmp_path / "o"), "matrix"]) == 1
        assert capsys.readouterr().err == f"error: seeds must be in [0, 2**64), got {2**64}\n"

    @pytest.mark.parametrize("line, message", [
        ("network_kind = gred", "unknown network_kind 'gred'"),
        ("fleet_kind = files", "unknown fleet_kind 'files'"),
        ("network_kind = files", "network_kind=files needs nodes_file and edges_file"),
        ("fleet_kind = file", "fleet_kind=file needs jobcards_file"),
        ("k = 0", "k must be >= 1"),
        ("workers = 0", "workers must be >= 1"),
        ("window_multipliers = 0.5", "window multipliers must be >= 1"),
        ("attacker_counts = 0", "attacker counts must be >= 1"),
        ("attacks = random,nonsense", "unknown attack strategy 'nonsense'"),
        ("defenses = shortest,nonsense", "unknown defense strategy 'nonsense'"),
        ("defenses = mixnet,shortest,mixnet", "defenses lists 'mixnet' more than once"),
        ("city_seed = 18446744073709551616",
         "city_seed must be in [0, 2**64), got 18446744073709551616"),
        ("grid_cols = 1", "grid_cols must be >= 2, got 1"),
        ("geo_n = 1", "geo_n must be >= 2, got 1"),
        ("cluster_size_a = 1", "cluster_size_a must be >= 4, got 1"),
        ("cluster_size_b = 3", "cluster_size_b must be >= 4, got 3"),
        ("bridges = 0", "bridges must be >= 1, got 0"),
    ])
    def test_refused_entry_is_placed_at_its_line(self, tmp_path, capsys, line, message):
        # unknown kinds used to pass the load and fail in the builders, and
        # every refusal of a parsed value was printed without its place
        path = tmp_path / "bad.txt"
        path.write_text(f"grid_rows = 4\n# a comment\n\nfleet_couriers = 3\n{line}\n"
                        "fleet_stops = 2\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "gen-city"]) == 1
        assert capsys.readouterr().err == f"error: {path}:5: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, message", [
        ("grid_rows = 0", "grid_rows must be >= 2, got 0"),
        ("fleet_couriers = 0", "fleet_couriers must be >= 1, got 0"),
        ("fleet_stops = 0", "fleet_stops must be >= 1, got 0"),
    ])
    def test_builder_bound_is_placed_at_its_line(self, tmp_path, capsys, line, message):
        # the builders refused these with no place and no key
        path = tmp_path / "bad.txt"
        path.write_text(f"{line}\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line, command, message", [
        ("k = 200", ["matrix"], "k must be in [1, 112], got 200"),
        ("k = 200", ["sweep", "--axis", "window"], "k must be in [1, 112], got 200"),
        ("k = 200", ["simulate", "--attack", "degree", "--defense", "shortest"],
         "k must be in [1, 112], got 200"),
        ("attacker_counts = 1,500", ["sweep", "--axis", "attackers"],
         "attacker_counts must be in [1, 112], got 500"),
        ("fleet_warehouse = zz", ["matrix"], "unknown warehouse node 'zz'"),
        ("fleet_stop_prefixes = zz", ["matrix"],
         "no node other than the warehouse 'n03x03' has an id starting with 'zz'"),
        # the grid's central node is the warehouse, so its own id leaves no stop
        ("fleet_stop_prefixes = n,n03x03", ["simulate", "--attack", "degree", "--defense",
                                            "shortest"],
         "no node other than the warehouse 'n03x03' has an id starting with 'n03x03'"),
    ])
    def test_network_bound_is_placed_before_any_analysis(self, tmp_path, capsys, monkeypatch,
                                                          line, command, message):
        # these were refused unplaced, k only after the whole analysis stage
        def no_analysis(*args):
            raise AssertionError("an analysis ran")
        monkeypatch.setattr(experiment, "_analysis_stage", no_analysis)
        path = tmp_path / "bad.txt"
        path.write_text(f"fleet_couriers = 3\n{line}\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), *command]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_network_bound_of_a_default_has_no_place(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("grid_rows = 2\ngrid_cols = 2\n")
        assert cli_main(["--config", str(path), "--out", str(tmp_path / "o"), "matrix"]) == 1
        assert capsys.readouterr().err == "error: k must be in [1, 4], got 30\n"

    def test_first_bad_line_in_file_order_is_reported(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("grid_rows = 4\nk = thirty\nnetwork_kind = gred\nseeds\n")
        with pytest.raises(ParseError) as exc:
            ExperimentConfig.from_file(path)
        assert str(exc.value) == f"{path}:2: invalid value for k: 'thirty'"
        assert exc.value.key == "k"

    def test_refusals_outside_a_file_have_no_place(self, tmp_path, capsys):
        for kwargs in ({"network_kind": "gred"}, {"fleet_kind": "files"},
                       {"network_kind": "files", "nodes_file": "n.csv"},
                       {"fleet_kind": "file"}):
            with pytest.raises(ValidationError) as exc:
                ExperimentConfig(**kwargs)
            assert exc.value.key == next(iter(kwargs))
        with pytest.raises(ValidationError, match="^k must be >= 1$") as exc:
            ExperimentConfig.from_mapping({"grid_rows": "4", "k": "0"})
        assert exc.value.key == "k"
        path = tmp_path / "cfg.txt"
        path.write_text("grid_rows = 4\n")
        assert cli_main(["--config", str(path), "--workers", "0", "--out", str(tmp_path / "o"),
                         "matrix"]) == 1
        assert capsys.readouterr().err == "error: workers must be >= 1\n"

    def test_help_epilog_lists_every_key_and_parses_back_to_the_defaults(self, tmp_path,
                                                                          capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        epilog = capsys.readouterr().out.partition("config keys")[2].splitlines()[1:]
        path = tmp_path / "defaults.txt"
        path.write_text("\n".join(epilog) + "\n")
        assert "  workers = 1" in epilog
        assert len(epilog) == len(fields(ExperimentConfig))
        assert ExperimentConfig.from_file(path) == ExperimentConfig()

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
        line = len(SMALL_CFG.splitlines()) + 1
        assert f"error: {path}:{line}: {key} must be nonempty" in result.stderr

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
        for attack, defense, _, mult, seed, metrics in rows:
            assert mult == 1.0
            assert metrics.late_fraction == result.cell_metrics[attack, defense, seed].late_fraction

    def test_window_sweep_rescores_once_per_task_and_multiplier(self, monkeypatch):
        # each (defense, seed) task rescores all its rounds in one call per multiplier
        calls = Counter()

        def counted(rounds, multiplier):
            calls[len(rounds)] += 1
            return simulate.reclassify_with_windows(rounds, multiplier)

        monkeypatch.setattr(experiment, "reclassify_with_windows", counted)
        cfg = ExperimentConfig()
        assert len(run_sweep(cfg, "window")) == 2970
        assert calls == {len(cfg.attacks): 330}

    def test_matrix_axis_rows_are_the_cells_in_attack_major_order(self, small_cfg_file):
        cfg = ExperimentConfig.from_file(small_cfg_file)
        result = run_matrix(cfg)
        rows = run_sweep(cfg, "matrix")
        cells = [(a, d, s) for a in cfg.attacks for d in cfg.defenses for s in cfg.seeds]
        assert rows == [(a, d, cfg.k, 1.0, s, result.cell_metrics[a, d, s])
                        for a, d, s in cells]
        assert result.payoff.per_seed.tolist() == [
            [[result.cell_metrics[a, d, s].late_fraction for s in cfg.seeds]
             for d in cfg.defenses] for a in cfg.attacks]
        with pytest.raises(DomainError, match="unknown sweep axis 'cells'"):
            run_sweep(cfg, "cells")

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

    @pytest.mark.parametrize("workers, changes, size", [
        (64, {}, 32),                                  # one betweenness chunk per node
        (3, {}, 3),
        (64, {"attacks": ("random",)}, 4),              # 2 defenses x 2 seeds, no analysis
        (64, {"attacks": ("random",), "seeds": (0,)}, 2),
        (64, {"attacks": ("random",), "defenses": ("shortest",), "seeds": (0,)}, None),
    ], ids=["chunks", "workers", "rounds", "two-rounds", "one-task-in-process"])
    def test_pool_is_capped_at_the_task_count(self, small_cfg_file, monkeypatch,
                                              workers, changes, size):
        # the larger of the analysis stage's and the round stage's task counts;
        # the fork start method forks every worker at the first submit
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, tasks):
                return map(fn, tasks)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = replace(ExperimentConfig.from_file(small_cfg_file), workers=workers, **changes)
        run_matrix(cfg)
        assert sizes == ([] if size is None else [size])


class TestCliCommands:
    @pytest.mark.parametrize("config, command", [
        (SMALL_CFG, ("matrix",)), (SMALL_CFG, ("sweep", "--axis", "attackers")),
        (SMALL_CFG, ("sweep", "--axis", "window")),
        (SMALL_CFG, ("simulate", "--attack", "betweenness", "--defense", "mixnet")),
        (BYPASS128_CFG, ("matrix",)),
        (BYPASS128_CFG, ("simulate", "--attack", "botgrep", "--defense", "inverse"))],
        ids=["matrix", "sweep-attackers", "sweep-window", "simulate",
             "bypass128-matrix", "bypass128-simulate"])
    def test_matrix_determinism_across_workers(self, tmp_path, config, command):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        runs = {}
        for workers in ("1", "2", "3"):
            out = tmp_path / f"r{workers}"
            result = run_cli(["--config", str(cfg), "--out", str(out),
                              "--workers", workers, *command])
            assert result.returncode == 0, result.stderr
            runs[workers] = result.stdout, {p.name: p.read_bytes() for p in out.iterdir()}
        assert runs["1"] == runs["2"] == runs["3"]

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

    def test_ids_that_need_quoting_come_back_from_attack_and_analyze(self, tmp_path):
        # both used to join fields by hand: "e,0" and 'c"q' came out unquoted
        (tmp_path / "nodes.csv").write_text('node_id,x,y\n"a,1",0,0\nb,1,0\n"c""q",2,0\n')
        (tmp_path / "edges.csv").write_text('edge_id,u,v,length_m,speed_mps\n'
                                            '"e,0","a,1",b,10,1\n"e""1",b,"c""q",10,1\n')
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"network_kind = files\nnodes_file = {tmp_path / 'nodes.csv'}\n"
                       f"edges_file = {tmp_path / 'edges.csv'}\n")
        out = tmp_path / "out"
        run = ["--config", str(cfg), "--out", str(out)]
        assert cli_main([*run, "attack", "--strategy", "betweenness", "--k", "2"]) == 0

        def rows(name):
            with open(out / name, newline="", encoding="utf-8") as fh:
                return list(csv.reader(fh))
        assert rows("attack_betweenness.csv") == [["edge_id"], ['e"1'], ["e,0"]]
        for method in ANALYZE_METHODS:
            assert cli_main([*run, "analyze", "--method", method]) == 0
            assert [row[0] for row in rows(f"partition_{method}.csv")] == [
                "node_id", "a,1", "b", 'c"q']

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


def test_no_output_file_holds_a_carriage_return(small_cfg_file, tmp_path):
    # every file goes through one writer with "\n" line ends; gen-city and
    # synth used to end their lines in "\r\n"
    from roadgame.network import load_network
    from roadgame.synth import make_fleet, write_jobcards
    run = ["--config", str(small_cfg_file), "--out"]
    base = tmp_path / "gen-city"
    assert cli_main([*run, str(base), "gen-city"]) == 0
    write_jobcards(make_fleet(load_network(base / "nodes.csv", base / "edges.csv"), 3, 2, 600.0),
                   base / "cards.csv")
    for name, command in [
            ("matrix", ["matrix"]), ("window", ["sweep", "--axis", "window"]),
            ("attackers", ["sweep", "--axis", "attackers"]),
            ("simulate", ["simulate", "--attack", "betweenness", "--defense", "mixnet"]),
            ("attack", ["attack", "--strategy", "greedy_mod", "--k", "2"]),
            ("analyze", ["analyze", "--method", "greedy_mod"]),
            ("synth", ["synth", "--base-nodes", str(base / "nodes.csv"),
                       "--base-edges", str(base / "edges.csv"),
                       "--base-cards", str(base / "cards.csv")])]:
        assert cli_main([*run, str(tmp_path / name), *command]) == 0
    written = sorted(path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*.*")
                     if path.parent != tmp_path)
    assert len(written) == 26  # 25 command outputs and the base cards
    assert [name for name in written if b"\r" in (tmp_path / name).read_bytes()] == []


@pytest.mark.parametrize("case", ["config", "nodes_file", "edges_file", "jobcards_file",
                                  "out_under_file", "out_is_file", "no_node_rows"])
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
    if case == "no_node_rows":  # used to load as an empty network
        files["nodes_file"].write_text("node_id,x,y\n")
    cfg.write_text("\n".join(lines) + "\n")
    out = {"out_under_file": afile / "sub", "out_is_file": afile}.get(case, tmp_path / "o")
    config = tmp_path / "nope.txt" if case == "config" else cfg
    assert cli_main(["--config", str(config), "--out", str(out), *command]) == 1
    path = {"config": config, "out_under_file": out, "out_is_file": out,
            "no_node_rows": files["nodes_file"]}.get(case, missing)
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_job_card_stop_off_the_network_names_the_file_and_courier(tmp_path, capsys):
    cards = tmp_path / "cards.csv"
    cards.write_text("courier_id,seq,node_id,window_start_s,window_end_s\n"
                     "c0,0,n00x00,,\nc0,1,nope,0,600\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"grid_rows = 2\ngrid_cols = 2\nfleet_kind = file\njobcards_file = {cards}\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "simulate", "--attack", "random", "--defense", "shortest"]) == 1
    assert capsys.readouterr().err == (
        f"error: {cards}: courier 'c0': job card stop 'nope' is not in the network\n")


def test_synth_base_card_stop_off_the_base_network_names_the_file_and_courier(tmp_path,
                                                                             capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("grid_rows = 2\ngrid_cols = 2\n")
    base = tmp_path / "base"
    assert cli_main(["--config", str(cfg), "--out", str(base), "gen-city"]) == 0
    cards = base / "cards.csv"
    cards.write_text("courier_id,seq,node_id,window_start_s,window_end_s\n"
                     "c0,0,n00x00,,\nc0,1,n01x01,0,600\n"
                     "c1,0,n00x00,,\nc1,1,nope,0,600\n")
    capsys.readouterr()
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"), "synth",
                     "--base-nodes", str(base / "nodes.csv"),
                     "--base-edges", str(base / "edges.csv"),
                     "--base-cards", str(cards)]) == 1
    assert capsys.readouterr().err == (
        f"error: {cards}: courier 'c1': job card stop 'nope' is not in the network\n")


@pytest.mark.parametrize("command", [["matrix"], ["simulate", "--attack", "random",
                                                    "--defense", "shortest"],
                                     ["sweep", "--axis", "window"],
                                     ["sweep", "--axis", "attackers"]],
                         ids=["matrix", "simulate", "sweep-window", "sweep-attackers"])
def test_one_node_network_exits_1_naming_the_empty_stop_pool(tmp_path, capsys, command):
    # make_fleet used to die in numpy with "ValueError: high <= 0"
    (tmp_path / "nodes.csv").write_text("node_id,x,y\nsolo,0,0\n")
    (tmp_path / "edges.csv").write_text("edge_id,u,v,length_m,speed_mps\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"network_kind = files\nnodes_file = {tmp_path / 'nodes.csv'}\n"
                   f"edges_file = {tmp_path / 'edges.csv'}\n")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "o"), *command]) == 1
    assert capsys.readouterr().err == (
        "error: no node other than the warehouse 'solo' has an id starting with ''\n")


def test_edgeless_network_with_inverse_defense_exits_1_without_traceback(tmp_path):
    # the inverse weights divided by the edge count: ZeroDivisionError
    (tmp_path / "nodes.csv").write_text("node_id,x,y\nsolo,0,0\n")
    (tmp_path / "edges.csv").write_text("edge_id,u,v,length_m,speed_mps\n")
    (tmp_path / "cards.csv").write_text("courier_id,seq,node_id,window_start_s,window_end_s\n"
                                        "c0,0,solo,,\nc0,1,solo,0,600\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"network_kind = files\nnodes_file = {tmp_path / 'nodes.csv'}\n"
                   f"edges_file = {tmp_path / 'edges.csv'}\nfleet_kind = file\n"
                   f"jobcards_file = {tmp_path / 'cards.csv'}\nk = 1\n")
    result = run_cli(["--config", str(cfg), "--out", str(tmp_path / "o"),
                      "simulate", "--attack", "degree", "--defense", "inverse"])
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr == "error: the network has no edges to attack\n"


_LENGTH_TEXT = st.sampled_from(["5e-324", "1e-300", "1", "60", "1e300"])
_EXTREME = ["5e-324", "1e-300", "1", "60", "600", "1e300"]
_CARDS = ("courier_id,seq,node_id,window_start_s,window_end_s\n"
          "c0,0,n0,,\nc0,1,n1,0,600\nc1,0,n1,1e300,\nc1,1,n0,1e300,1e301\n")


@st.composite
def _city(draw):
    """Config keys of a tiny network: ``files`` (the drawn node and edge
    files) or a generated grid, geometric or two-cluster city."""
    kind = draw(st.sampled_from(["files", "files", "grid", "geometric", "two_cluster"]))
    keys = {"network_kind": kind, "city_seed": str(draw(st.integers(0, 3)))}
    if kind == "grid":
        keys.update(grid_rows=str(draw(st.integers(1, 3))), grid_cols=str(draw(st.integers(1, 3))))
    elif kind == "geometric":
        keys.update(geo_n=str(draw(st.integers(1, 6))),
                    geo_radius_m=draw(st.sampled_from(["1", "400", "2000"])))
    elif kind == "two_cluster":
        keys.update(cluster_size_a=str(draw(st.integers(3, 6))),
                    cluster_size_b=str(draw(st.integers(3, 6))),
                    bridges=str(draw(st.integers(0, 3))),
                    bypass_count=str(draw(st.integers(-2, 3))))
    return keys


@st.composite
def _fuzz_cases(draw):
    """A network of 0-5 nodes, as files with extreme lengths and speeds or
    as a tiny generated city, a small config for it, and the strategies
    the commands name."""
    names = [f"n{i}" for i in range(draw(st.integers(0, 5)))]
    chain = list(zip(names, names[1:]))  # mostly kept, so most networks are connected
    pairs = [pair for pair in combinations(names, 2)
             if (draw(st.integers(0, 9)) > 0 if pair in chain else draw(st.booleans()))]
    nodes = ["node_id,x,y"] + [f"{v},{i},0" for i, v in enumerate(names)]
    edges = ["edge_id,u,v,length_m,speed_mps"] + [
        f"e{i},{u},{v},{draw(_LENGTH_TEXT)},{draw(_LENGTH_TEXT)}"
        for i, (u, v) in enumerate(pairs)]

    def items(elements, max_size):
        return ",".join(draw(st.lists(elements, min_size=1, max_size=max_size, unique=True)))

    config = {
        **draw(_city()),
        "attacks": items(st.sampled_from(ATTACK_STRATEGIES), 3),
        "defenses": items(st.sampled_from(DEFENSE_STRATEGIES), 2),
        "k": str(draw(st.integers(1, 2))),
        "ambush_delay_s": draw(st.sampled_from(_EXTREME + ["nan"])),
        "fleet_slack_s": draw(st.sampled_from(_EXTREME + ["inf"])),
        "fleet_day_start_s": draw(st.sampled_from(["0", "-1e300", "1e300"])),
        "fleet_kind": draw(st.sampled_from(["random", "file"])),
        "fleet_couriers": str(draw(st.integers(1, 3))),
        "fleet_stops": str(draw(st.integers(1, 3))),
        "fleet_warehouse": draw(st.sampled_from(["auto"] * 4 + ["n0", "n4"])),
        "fleet_stop_prefixes": draw(st.sampled_from(["", "n1", "n2,n0"])),
        "window_multipliers": items(st.sampled_from(["1", "1.5", "1e300"]), 2),
        "attacker_counts": items(st.sampled_from(["1", "2", "6"]), 2),
        "seeds": str(draw(st.integers(0, 3))),
        "nested_plans": draw(st.sampled_from(["true", "false"])),
    }
    strategies = (draw(st.sampled_from(ATTACK_STRATEGIES)), str(draw(st.integers(1, 4))),
                  draw(st.sampled_from(DEFENSE_STRATEGIES)),
                  draw(st.sampled_from(ANALYZE_METHODS)))
    return "\n".join(nodes) + "\n", "\n".join(edges) + "\n", config, strategies


_SMALL_CONFIG = {"network_kind": "files", "fleet_couriers": "2", "fleet_stops": "2",
                 "seeds": "0"}


@settings(max_examples=150, deadline=None)
@given(case=_fuzz_cases())
@example(case=("node_id,x,y\n", "edge_id,u,v,length_m,speed_mps\n", _SMALL_CONFIG,
               ("random", "1", "shortest", "botgrep")))
@example(case=("node_id,x,y\nn0,0,0\n", "edge_id,u,v,length_m,speed_mps\n", _SMALL_CONFIG,
               ("betweenness", "1", "mixnet", "infomap")))
@example(case=("node_id,x,y\n", "edge_id,u,v,length_m,speed_mps\n",
               {**_SMALL_CONFIG, "network_kind": "two_cluster", "bridges": "1",
                "bypass_count": "-1"},
               ("random", "1", "shortest", "botgrep")))
def test_every_command_on_tiny_networks_exits_0_or_1_quietly(case):
    nodes, edges, config, (attack, attack_k, defense, method) = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "nodes.csv").write_text(nodes)
        (tmp / "edges.csv").write_text(edges)
        (tmp / "cards.csv").write_text(_CARDS)
        files = {"nodes_file": tmp / "nodes.csv", "edges_file": tmp / "edges.csv",
                 "jobcards_file": tmp / "cards.csv"}
        (tmp / "cfg.txt").write_text(
            "".join(f"{key} = {value}\n" for key, value in {**files, **config}.items()))
        commands = [["simulate", "--attack", attack, "--defense", defense], ["matrix"],
                    ["sweep", "--axis", "window"], ["sweep", "--axis", "attackers"],
                    ["attack", "--strategy", attack, "--k", attack_k],
                    ["analyze", "--method", method], ["gen-city"],
                    ["synth", "--base-nodes", str(tmp / "nodes.csv"),
                     "--base-edges", str(tmp / "edges.csv"),
                     "--base-cards", str(tmp / "cards.csv")]]
        for i, command in enumerate(commands):
            out = tmp / f"out{i}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["--config", str(tmp / "cfg.txt"), "--out", str(out), *command])
            assert code in (0, 1), command
            assert not caught, (command, [str(w.message) for w in caught])
            if code == 0:
                for path in out.iterdir():
                    assert not re.search(r"\bnan\b", path.read_text()), (command, path.name)
            if code == 0 and command == ["gen-city"] and config["network_kind"] == "two_cluster":
                bypasses = re.findall(r"^xbypass", (out / "edges.csv").read_text(), re.M)
                assert len(bypasses) == int(config["bypass_count"])


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


@pytest.mark.parametrize("method", ["botgrep", "infomap", "eigen_mod"])
def test_analyze_is_byte_identical_across_blas_threads(tmp_path, method):
    # a 16x16 grid makes P^t large enough for OpenBLAS to split the work;
    # eigen_mod's eigendecomposition runs on one thread either way
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
    # no scipy module at all: importing any of it costs set-up time and memory,
    # and the matrix game is solved without it; nor numpy.ma, which
    # np.percentile and np.unique import (about 10 ms and 0.6 MB); nor, on
    # one worker, the process-pool machinery (about 17 ms and 1.2 MB)
    commands = [["analyze", "--method", method] for method in ANALYZE_METHODS]
    commands += [["matrix"], ["simulate", "--attack", "betweenness", "--defense", "inverse"],
                 ["--seed", "0", "sweep", "--axis", "window"],
                 ["--seed", "0", "sweep", "--axis", "attackers"]]
    code = (
        "import sys, roadgame.cli\n"
        "def unwanted():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m.split('.')[0] in ('scipy', 'multiprocessing')\n"
        "                  or m.split('.')[:2] == ['numpy', 'ma'] or m == 'concurrent.futures.process')\n"
        "loaded = [unwanted()]\n"
        f"for command in {commands!r}:\n"
        f"    assert roadgame.cli.main(['--out', {str(tmp_path)!r}, '--workers', '1', *command]) == 0\n"
        "    loaded.append(unwanted())\n"
        "print(loaded)\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == repr([[]] * (len(commands) + 1))
