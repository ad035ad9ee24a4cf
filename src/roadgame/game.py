"""The payoff-matrix type and zero-sum equilibrium computation.

``experiment.run_matrix`` fills the matrix from simulated rounds.

The attacker picks rows and maximises expected late fraction; the
defender picks columns and minimises it.  Mixed equilibria come from a
linear program, but the returned tolerance is always re-certified from
the returned strategy vectors rather than trusted from the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError

PURE = "pure"
MIXED = "mixed"

_ONE_HOT_TOL = 1e-9


@dataclass(frozen=True)
class PayoffMatrix:
    """Expected late fraction per (attack, defense) cell.

    ``per_seed`` keeps the individual round outcomes (attacks x defenses
    x seeds) so confidence intervals can be reported downstream.
    """

    attacks: tuple[str, ...]
    defenses: tuple[str, ...]
    payoff: np.ndarray
    per_seed: np.ndarray


@dataclass(frozen=True)
class Equilibrium:
    kind: str
    attacker_strategy: np.ndarray
    defender_strategy: np.ndarray
    value: float
    epsilon: float


def _as_matrix(matrix) -> np.ndarray:
    if isinstance(matrix, PayoffMatrix):
        return np.asarray(matrix.payoff, dtype=float)
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2 or out.size == 0:
        raise DomainError("payoff matrix must be 2-D and nonempty")
    return out


def find_pure_nash(matrix) -> list[tuple[int, int]]:
    """All saddle cells: column maxima that are also row minima (ties kept)."""
    a = _as_matrix(matrix)
    col_max = a.max(axis=0)
    row_min = a.min(axis=1)
    saddles = []
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            if a[i, j] == col_max[j] and a[i, j] == row_min[i]:
                saddles.append((i, j))
    return saddles


def _solve_maximin(a: np.ndarray) -> np.ndarray:
    """LP for the row player's maximin mixed strategy of matrix ``a``."""
    from scipy.optimize import linprog  # loading it costs most of the CLI's import time
    m, n = a.shape
    # variables: x_0..x_{m-1}, v ; maximise v s.t. A^T x >= v, sum x = 1
    c = np.zeros(m + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-a.T, np.ones((n, 1))])
    b_ub = np.zeros(n)
    a_eq = np.zeros((1, m + 1))
    a_eq[0, :m] = 1.0
    b_eq = np.ones(1)
    bounds = [(0.0, None)] * m + [(None, None)]
    result = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                     bounds=bounds, method="highs")
    if not result.success:
        raise SolverError(f"linear program failed: {result.message}")
    x = np.maximum(result.x[:m], 0.0)
    return x / x.sum()


def solve_zero_sum(matrix, epsilon: float = 1e-6) -> Equilibrium:
    """Mixed-strategy solution with a certified epsilon guarantee.

    The guarantee min_j x^T A e_j >= v - eps and max_i e_i^T A y <= v + eps
    is recomputed from the returned vectors; failure to certify within
    the requested tolerance raises with the best achieved epsilon.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    a = _as_matrix(matrix)
    x = _solve_maximin(a)
    y = _solve_maximin(-a.T)
    lower = float((x @ a).min())
    upper = float((a @ y).max())
    value = 0.5 * (lower + upper)
    achieved = max(0.5 * (upper - lower), 0.0)
    if achieved > epsilon:
        raise SolverError(
            f"could not certify tolerance {epsilon:g}; achieved {achieved:g}",
            achieved_epsilon=achieved)
    kind = PURE if (x.max() >= 1 - _ONE_HOT_TOL and y.max() >= 1 - _ONE_HOT_TOL) else MIXED
    return Equilibrium(kind, x, y, value, achieved)
