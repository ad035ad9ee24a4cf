"""The payoff-matrix type and zero-sum equilibrium computation.

``experiment.run_matrix`` fills the matrix from simulated rounds.

The attacker picks rows and maximises expected late fraction; the
defender picks columns and minimises it.  Equilibria are solved exactly:
each float payoff is read as the rational it is, and a small
``Fraction`` simplex returns the exact optimal strategies and value.  A
degenerate game (tied or several optimal strategies) reports the first
optimal basis that Bland's lowest-index rule reaches, with the columns
in config order: the defenses, then one slack per attack.  The strategies
are then rounded to floats, and the reported value and tolerance are
re-certified from those float vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, SolverError

if TYPE_CHECKING:
    from fractions import Fraction

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
        matrix = matrix.payoff
    out = np.asarray(matrix, dtype=float)
    if out.ndim != 2 or out.size == 0:
        raise DomainError("payoff matrix must be 2-D and nonempty")
    bad = np.argwhere(~np.isfinite(out))
    if len(bad):
        i, j = bad[0]
        raise DomainError(f"payoff matrix cell ({i}, {j}) is not finite: {out[i, j]}")
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


def exact_equilibrium(a: np.ndarray) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Exact optimal strategies ``(x, y)`` and value of the game ``a``.

    Every entry is read exactly as a ``Fraction`` and shifted by ``s`` so
    that it is >= 1.  A dense-tableau simplex solves the defender's LP
    ``max 1'w  s.t.  (A + s) w <= 1, w >= 0`` from the feasible origin, so
    there is no phase 1; Bland's lowest-index rule picks the entering
    column (defenses, then one slack per attack) and breaks min-ratio ties
    by the lowest basic index, so it cannot cycle.  ``y = w / sum(w)``,
    ``x`` is the slack columns' reduced costs normalised the same way, and
    the value is ``1 / sum(w) - s``.
    """
    from fractions import Fraction  # it loads decimal; runs that solve no game skip both
    m, n = a.shape
    shift = 1 - Fraction(a.min())
    one, zero = Fraction(1), Fraction(0)
    rows = [[Fraction(v) + shift for v in a[i]]
            + [one if k == i else zero for k in range(m)] + [one] for i in range(m)]
    cost = [-one] * n + [zero] * (m + 1)   # reduced costs, then the objective
    basis = list(range(n, n + m))
    while (enter := next((j for j in range(n + m) if cost[j] < 0), None)) is not None:
        # bounded: (A + s) > 0 caps every w_j, so some entry in the column is positive
        _, _, r = min((row[-1] / row[enter], basis[i], i)
                      for i, row in enumerate(rows) if row[enter] > 0)
        pivot = rows[r]
        scale = pivot[enter]
        pivot[:] = [v / scale for v in pivot]
        for row in (*rows[:r], *rows[r + 1:], cost):
            factor = row[enter]
            if factor:
                row[:] = [v - factor * p for v, p in zip(row, pivot)]
        basis[r] = enter
    total = cost[-1]
    w = [zero] * n
    for i, var in enumerate(basis):
        if var < n:
            w[var] = rows[i][-1]
    return [u / total for u in cost[n:n + m]], [wj / total for wj in w], 1 / total - shift


def solve_zero_sum(matrix, epsilon: float = 1e-6) -> Equilibrium:
    """Mixed-strategy solution with a certified epsilon guarantee.

    The guarantee min_j x^T A e_j >= v - eps and max_i e_i^T A y <= v + eps
    is recomputed from the returned vectors; failure to certify within
    the requested tolerance raises with the best achieved epsilon.

    The solve is exact (see ``exact_equilibrium``), and its cost grows
    with the size of the game and the bit length of its entries: a 9x5
    game, the largest the CLI builds, takes milliseconds; random float
    games take about 1 s at 20x20, 5 s at 30x30 and a minute at 50x60.
    """
    if not epsilon > 0:
        raise DomainError("epsilon must be > 0")
    a = _as_matrix(matrix)
    exact_x, exact_y, _ = exact_equilibrium(a)
    x = np.array(exact_x, dtype=float)
    y = np.array(exact_y, dtype=float)
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
