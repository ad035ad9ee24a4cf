"""Ambush-interdiction games on road networks: attacks, defenses, simulation."""

import os as _os

# Before any submodule loads numpy: OpenBLAS reads this once, as it loads, and
# its idle helper threads then spin for 2**24 cycles (a few ms) instead of
# 2**28 (about 0.1 s of a core) before they sleep; see roadgame.blas.  A
# value the caller set wins.
_os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "24")

from .analysis import (CentralityScores, Partition, agglomerative_modularity,
                       centrality, flow_partition, map_equation_codelength,
                       mixing_partition, mixing_transition_matrix, modularity,
                       partition_cutset, spectral_bisect)
from .attacks import (ATTACK_STRATEGIES, AttackPlan, empty_attack_plan,
                      select_attack_edges, strategy_edge_ranking)
from .errors import (ConvergenceError, DomainError, ParseError, RoadGameError,
                     SolverError, ValidationError)
from .experiment import ExperimentConfig, emit_reports, run_matrix, run_sweep
from .game import Equilibrium, PayoffMatrix, find_pure_nash, solve_zero_sum
from .network import (Edge, Node, RoadNetwork, conductance,
                      edge_disjoint_paths, load_network, save_network,
                      shortest_path)
from .routing import (DEFENSE_STRATEGIES, RoutePlan, inverse_centrality_scores,
                      plan_route)
from .simulate import (JobCard, RoundMetrics, Stop, TourResult,
                       apply_window_multiplier, metrics_from_tours,
                       reclassify_with_windows, run_round_details, run_rounds,
                       run_tour)
from .synth import (TraceTolerance, generate_city, make_fleet, parse_jobcards,
                    synthesize_traces, write_jobcards, write_leg_audit)

__all__ = [name for name in dir() if not name.startswith("_")]
