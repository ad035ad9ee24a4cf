import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import closed_form_2x2_value
from roadgame.errors import DomainError, ValidationError
from roadgame.experiment import ExperimentConfig, run_matrix
from roadgame.game import MIXED, PURE, find_pure_nash, solve_zero_sum
from roadgame.simulate import run_round_details

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
SADDLE = np.array([[3.0, 1.0], [5.0, 2.0]])


class TestSolveZeroSum:
    def test_matching_pennies(self):
        eq = solve_zero_sum(PENNIES, epsilon=1e-6)
        assert eq.value == pytest.approx(0.0, abs=1e-9)
        assert eq.attacker_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
        assert eq.defender_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
        assert eq.kind == MIXED

    def test_2x2_closed_form(self):
        m = np.array([[3.0, 1.0], [0.0, 2.0]])
        eq = solve_zero_sum(m, epsilon=1e-6)
        assert eq.value == pytest.approx(closed_form_2x2_value(3, 1, 0, 2), abs=1e-9)
        assert eq.value == pytest.approx(1.5, abs=1e-9)
        assert eq.attacker_strategy == pytest.approx([0.5, 0.5], abs=1e-9)
        assert eq.defender_strategy == pytest.approx([0.25, 0.75], abs=1e-9)

    def test_saddle_matrix_agrees_with_pure_search(self):
        saddles = find_pure_nash(SADDLE)
        assert saddles == [(1, 1)]
        eq = solve_zero_sum(SADDLE, epsilon=1e-6)
        assert eq.value == pytest.approx(SADDLE[1, 1], abs=1e-9)
        assert eq.kind == PURE
        assert int(np.argmax(eq.attacker_strategy)) == 1
        assert int(np.argmax(eq.defender_strategy)) == 1

    def test_certificate_recomputable_from_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.random((4, 5))
            eq = solve_zero_sum(m, epsilon=1e-6)
            lower = float((eq.attacker_strategy @ m).min())
            upper = float((m @ eq.defender_strategy).max())
            assert lower >= eq.value - eq.epsilon - 1e-12
            assert upper <= eq.value + eq.epsilon + 1e-12
            assert abs(max(0.5 * (upper - lower), 0.0) - eq.epsilon) <= 1e-12

    def test_strategies_are_distributions(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            eq = solve_zero_sum(rng.random((3, 3)), epsilon=1e-6)
            for vec in (eq.attacker_strategy, eq.defender_strategy):
                assert (vec >= 0).all()
                assert abs(float(vec.sum()) - 1.0) <= 1e-9

    def test_negation_with_role_swap_flips_value(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = rng.random((3, 4))
            v = solve_zero_sum(m, epsilon=1e-6).value
            v_swapped = solve_zero_sum(-m.T, epsilon=1e-6).value
            assert v_swapped == pytest.approx(-v, abs=2e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
                    min_size=9, max_size=9))
    def test_value_within_pure_envelope(self, entries):
        m = np.array(entries).reshape(3, 3)
        eq = solve_zero_sum(m, epsilon=1e-6)
        maximin = m.min(axis=1).max()
        minimax = m.max(axis=0).min()
        assert maximin - 1e-9 <= eq.value <= minimax + 1e-9

    def test_epsilon_validation(self):
        with pytest.raises(DomainError):
            solve_zero_sum(PENNIES, epsilon=0.0)

    def test_matrix_validation(self):
        with pytest.raises(DomainError):
            solve_zero_sum(np.zeros((0, 0)))

    @pytest.mark.parametrize("solver", [solve_zero_sum, find_pure_nash])
    @pytest.mark.parametrize("matrix, cell", [
        ([[math.nan, 1.0], [0.0, 1.0]], "(0, 0)"),
        ([[math.inf, 1.0], [0.0, 1.0]], "(0, 0)"),
        ([[0.0, 1.0], [1.0, -math.inf]], "(1, 1)"),
    ])
    def test_non_finite_payoff_names_first_bad_cell(self, solver, matrix, cell):
        # unchecked, nan escaped linprog as a bare ValueError, and
        # find_pure_nash gave [] for nan and the false saddle [(0, 1)] for inf
        with pytest.raises(DomainError, match=re.escape(f"cell {cell} is not finite")):
            solver(matrix)

    def test_uncertifiable_tolerance_reports_best_achieved(self):
        from roadgame.errors import SolverError
        m = np.random.default_rng(1).random((50, 60))
        baseline = solve_zero_sum(m, epsilon=1e-6)
        assert baseline.epsilon > 0  # LP rounding leaves a certifiable gap
        with pytest.raises(SolverError) as exc:
            solve_zero_sum(m, epsilon=baseline.epsilon / 10)
        assert exc.value.achieved_epsilon == baseline.epsilon


class TestFindPureNash:
    def test_matching_pennies_has_none(self):
        assert find_pure_nash(PENNIES) == []
        assert find_pure_nash(np.array([[1.0, 0.0], [0.0, 1.0]])) == []

    def test_constant_matrix_single_cell(self):
        assert find_pure_nash(np.array([[0.7]])) == [(0, 0)]

    def test_ties_are_all_reported(self):
        m = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert find_pure_nash(m) == [(0, 0), (0, 1)]


def planted_config(**keys) -> ExperimentConfig:
    """Config whose network is the ``planted32`` fixture, 600 s ambushes."""
    return ExperimentConfig(**{"network_kind": "two_cluster", "cluster_size_a": 16,
                               "cluster_size_b": 16, "bridges": 2, "edge_time_s": 60.0,
                               "ambush_delay_s": 600.0, **keys})


class TestRunMatrixPayoff:
    def test_single_cell_equals_round_metric(self, planted32):
        cfg = planted_config(fleet_couriers=4, fleet_stops=2, fleet_slack_s=500.0,
                             fleet_seed=1, attacks=("random",), defenses=("shortest",),
                             k=2, seeds=(7,))
        pm = run_matrix(cfg).payoff
        fleet = cfg.build_fleet(planted32)
        direct = run_round_details(planted32, fleet, "random", "shortest", 2, 600.0, 7)
        assert pm.payoff[0, 0] == direct.metrics.late_fraction
        assert pm.per_seed.shape == (1, 1, 1)

    def test_bridge_attack_dominates_random_on_planted(self):
        cfg = planted_config(fleet_couriers=6, fleet_stops=2, fleet_slack_s=500.0,
                             fleet_seed=2, fleet_warehouse="a01x00",
                             fleet_stop_prefixes=("b",), attacks=("betweenness", "random"),
                             defenses=("shortest",), k=2, seeds=tuple(range(6)))
        pm = run_matrix(cfg).payoff
        assert pm.payoff[0, 0] >= pm.payoff[1, 0]

    def test_cell_depends_only_on_its_seed(self):
        keys = dict(fleet_couriers=3, fleet_stops=2, fleet_slack_s=500.0, fleet_seed=3,
                    attacks=("random",), defenses=("mixnet",), k=3)
        alone = run_matrix(planted_config(seeds=(5,), **keys)).payoff
        paired = run_matrix(planted_config(seeds=(4, 5), **keys)).payoff
        assert alone.per_seed[0, 0, 0] == paired.per_seed[0, 0, 1]

    def test_entries_in_unit_interval(self):
        cfg = planted_config(fleet_couriers=3, fleet_stops=2, fleet_slack_s=500.0,
                             fleet_seed=4, attacks=("degree", "eigen_c"),
                             defenses=("shortest", "inverse"), k=2, seeds=(0, 1))
        pm = run_matrix(cfg).payoff
        assert ((pm.payoff >= 0) & (pm.payoff <= 1)).all()

    def test_validation(self):
        with pytest.raises(ValidationError):
            planted_config(attacks=(), defenses=("shortest",))
        with pytest.raises(ValidationError):
            planted_config(attacks=("random",), defenses=("shortest",), seeds=())

    def test_unavoidable_bridge_yields_pure_nash_in_dominant_row(self):
        cfg = planted_config(bridges=1, fleet_couriers=6, fleet_stops=2,
                             fleet_slack_s=400.0, fleet_seed=1, fleet_warehouse="a01x00",
                             fleet_stop_prefixes=("b",),
                             attacks=("betweenness", "random", "degree"),
                             defenses=("shortest", "inverse", "mixnet"), k=1,
                             seeds=(0, 1, 2))
        result = run_matrix(cfg)
        # one bridge, one attacker on it: every defense loses everything
        assert (result.payoff.payoff[0] == 1.0).all()
        saddles = result.pure_equilibria
        assert saddles and all(i == 0 for i, _ in saddles)
        assert result.mixed.value == pytest.approx(1.0, abs=1e-6)
