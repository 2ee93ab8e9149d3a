"""Dense LP solver in the single normal form used by every relaxation here:

    maximize c.x   subject to   A x <= b,  x >= 0,  b >= 0,

with ``c`` of shape (n,), ``A`` of shape (r, n) and ``b`` of shape (r,), all
float numpy arrays from the builder to the solver.

Every right-hand side the package builds (capacities, expected or realized
demands, truncated expectations, per-step probabilities) is nonnegative, so
``x = 0`` is feasible and the slack basis starts a one-phase tableau simplex.
Pivoting is Dantzig (most negative reduced cost) until a run of degenerate
pivots suggests cycling, then Bland's rule, whose termination guarantee makes
the solver total on degenerate inputs.  The problems this package builds are
small and dense (tens to a few hundred variables), so no sparsity or
factorization machinery is attempted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

#: reduced costs within this of zero count as optimal
RC_TOL = 1e-9
#: pivot elements smaller than this are treated as zero
PIVOT_TOL = 1e-10
#: objective progress below this marks a pivot as degenerate
DEGENERATE_TOL = 1e-12

_MAX_PIVOTS = 200_000


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective.x s.t. rows.x <= rhs, x >= 0, with rhs >= 0.

    ``objective`` (n,), ``rows`` (r, n) and ``rhs`` (r,) are float arrays;
    sequences are coerced once here.  The arrays may be shared and read-only,
    so nothing downstream writes into them.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        objective = np.asarray(self.objective, dtype=float).reshape(-1)
        rhs = np.asarray(self.rhs, dtype=float).reshape(-1)
        n = objective.size
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0 and rows.ndim == 1:  # no rows at all
            rows = rows.reshape(0, n)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError(f"rows of shape {rows.shape} do not have {n} coefficients each")
        if rows.shape[0] != rhs.size:
            raise ValueError(f"{rows.shape[0]} rows but {rhs.size} rhs entries")
        valid = np.isfinite(rhs) & (rhs >= 0)
        if not np.all(valid):
            idx = int(np.argmin(valid))
            raise ValueError(f"rhs[{idx}] = {rhs[idx]} is not finite and nonnegative")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: LpStatus
    values: np.ndarray  # (n,) float
    objective_value: float
    basis: tuple[int, ...] = field(default=())

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class _Tableau:
    """Row-0-is-objective simplex tableau over columns [vars | slacks | rhs]."""

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, lp.num_rows
        self.T = np.hstack([lp.rows, np.eye(m), lp.rhs.reshape(-1, 1)])
        self.basis = [n + r for r in range(m)]
        # reduced costs z_j - c_j; the slack basis costs nothing
        self.cost = np.zeros(n + m + 1)
        self.cost[:n] = -lp.objective
        self.degenerate_run = 0
        self.bland = False
        self.bland_after = max(20, 5 * (n + m))

    def _entering(self) -> int:
        rc = self.cost[:-1]
        if self.bland:
            for j in range(rc.size):
                if rc[j] < -RC_TOL:
                    return j
            return -1
        candidates = np.where(rc < -RC_TOL)[0]
        if candidates.size == 0:
            return -1
        return int(candidates[np.argmin(rc[candidates])])

    def _leaving(self, col: int) -> int:
        column = self.T[:, col]
        rhs = self.T[:, -1]
        best = -1
        best_ratio = np.inf
        for r in range(self.T.shape[0]):
            a = column[r]
            if a > PIVOT_TOL:
                ratio = rhs[r] / a
                if ratio < best_ratio - 1e-12 or (
                    abs(ratio - best_ratio) <= 1e-12
                    and (best == -1 or self.basis[r] < self.basis[best])
                ):
                    best_ratio = ratio
                    best = r
        return best

    def _pivot(self, row: int, col: int) -> None:
        piv = self.T[row, col]
        self.T[row] /= piv
        factors = self.T[:, col].copy()
        factors[row] = 0.0
        self.T -= np.outer(factors, self.T[row])
        gain = self.cost[col] * self.T[row, -1]
        self.cost = self.cost - self.cost[col] * self.T[row]
        self.basis[row] = col
        if abs(gain) <= DEGENERATE_TOL:
            self.degenerate_run += 1
            if self.degenerate_run >= self.bland_after:
                self.bland = True
        else:
            self.degenerate_run = 0
            self.bland = False

    def run(self) -> bool:
        """Pivot to optimality; False when a column has no leaving row."""
        for _ in range(_MAX_PIVOTS):
            col = self._entering()
            if col == -1:
                return True
            row = self._leaving(col)
            if row == -1:
                return False
            self._pivot(row, col)
        raise RuntimeError("simplex exceeded the pivot budget")

    def primal(self, num_cols: int) -> np.ndarray:
        x = np.zeros(num_cols)
        for r, b in enumerate(self.basis):
            if b < num_cols:
                x[b] = self.T[r, -1]
        return x


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve to an optimal basic solution, or report the LP unbounded.

    One simplex phase from the slack basis, which the nonnegative right-hand
    side makes feasible.  With no rows any improving column is unbounded;
    with no variables the slack basis is optimal at once.
    """
    n = lp.num_vars
    tab = _Tableau(lp)
    if not tab.run():
        return LpSolution(LpStatus.UNBOUNDED, np.zeros(n), np.inf)
    x = tab.primal(n)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=x,
        objective_value=float(lp.objective @ x),
        basis=tuple(int(bv) for bv in tab.basis),
    )


def check_feasible(lp: LinearProgram, values: Sequence[float], tol: float = 1e-9) -> bool:
    """Whether a candidate point satisfies ``x >= 0`` and ``rows @ x <= rhs``."""
    x = np.asarray(values, dtype=float)
    return bool(np.all(x >= -tol) and np.all(lp.rows @ x <= lp.rhs + tol))


def format_tableau(lp: LinearProgram, names: Sequence[str]) -> str:
    """Plain-text dump of the LP: objective row, then constraint rows."""
    lines = ["max " + " + ".join(f"{c:g}*{v}" for c, v in zip(lp.objective, names))]
    lines.append("subject to")
    for row, b in zip(lp.rows, lp.rhs):
        terms = " + ".join(f"{a:g}*{v}" for a, v in zip(row, names) if a != 0) or "0"
        lines.append(f"  {terms} <= {b:g}")
    lines.append("  " + ", ".join(names) + " >= 0")
    return "\n".join(lines)


def solution_to_csv(names: Sequence[str], sol: LpSolution) -> str:
    """CSV export: one (variable name, value) row per variable."""
    lines = ["variable,value"]
    for name, v in zip(names, sol.values):
        lines.append(f"{name},{float(v)!r}")
    return "\n".join(lines) + "\n"
