"""Dense LP solver in the single normal form used by every relaxation here:

    maximize c.x   subject to   A x <= b,  x >= 0,

with ``c`` of shape (n,), ``A`` of shape (r, n) and ``b`` of shape (r,), all
float numpy arrays from the builder to the solver.

Two-phase tableau simplex.  Pivoting is Dantzig (most negative reduced cost)
until a run of degenerate pivots suggests cycling, then Bland's rule, whose
termination guarantee makes the solver total on degenerate inputs.  The
problems this package builds are small and dense (tens to a few hundred
variables), so no sparsity or factorization machinery is attempted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence

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
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """max objective.x s.t. rows.x <= rhs, x >= 0 (all rows are <=).

    ``objective`` (n,), ``rows`` (r, n) and ``rhs`` (r,) are float arrays;
    sequences are coerced once here.  The arrays may be shared and read-only,
    so nothing downstream writes into them.
    """

    objective: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    var_names: Optional[tuple[str, ...]] = None

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
        if not np.all(np.isfinite(rhs)):
            idx = int(np.argmin(np.isfinite(rhs)))
            raise ValueError(f"rhs[{idx}] = {rhs[idx]} is not finite")
        if self.var_names is not None and len(self.var_names) != n:
            raise ValueError("var_names length mismatch")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def name(self, j: int) -> str:
        if self.var_names is not None:
            return self.var_names[j]
        return f"x{j}"


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
    """Row-0-is-objective simplex tableau over columns [vars | slacks | arts]."""

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, basis: list[int]):
        self.T = np.hstack([rows, rhs.reshape(-1, 1)])
        self.basis = basis
        self.cost = np.zeros(self.T.shape[1])
        self.degenerate_run = 0
        self.bland = False
        self.bland_after = max(20, 5 * rows.shape[1])

    def set_objective(self, cost: np.ndarray) -> None:
        # reduced costs: z_j - c_j for the current basis
        self.cost = np.zeros(self.T.shape[1])
        self.cost[: cost.size] = -cost
        for r, b in enumerate(self.basis):
            if abs(self.cost[b]) > 0:
                self.cost = self.cost - self.cost[b] * self.T[r]
        self.degenerate_run = 0
        self.bland = False

    def _entering(self, allowed: np.ndarray) -> int:
        rc = self.cost[:-1]
        if self.bland:
            for j in range(rc.size):
                if allowed[j] and rc[j] < -RC_TOL:
                    return j
            return -1
        candidates = np.where(allowed & (rc < -RC_TOL))[0]
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

    def run(self, allowed: np.ndarray) -> str:
        for _ in range(_MAX_PIVOTS):
            col = self._entering(allowed)
            if col == -1:
                return "optimal"
            row = self._leaving(col)
            if row == -1:
                return "unbounded"
            self._pivot(row, col)
        raise RuntimeError("simplex exceeded the pivot budget")

    def objective_value(self) -> float:
        return float(self.cost[-1])

    def primal(self, num_cols: int) -> np.ndarray:
        x = np.zeros(num_cols)
        for r, b in enumerate(self.basis):
            if b < num_cols:
                x[b] = self.T[r, -1]
        return x


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve to an optimal basic solution, or report infeasible/unbounded.

    Rows with negative right-hand sides go through a phase-1 restart with
    artificial variables; the common all-nonnegative case starts from the
    slack basis directly.
    """
    n = lp.num_vars
    m = lp.num_rows
    c, b = lp.objective, lp.rhs
    if n == 0:
        feasible = bool(np.all(b >= -RC_TOL))
        status = LpStatus.OPTIMAL if feasible else LpStatus.INFEASIBLE
        return LpSolution(status=status, values=np.zeros(0), objective_value=0.0)
    if m == 0:
        # maximize over the nonnegative orthant with no constraints
        if np.any(c > RC_TOL):
            return LpSolution(LpStatus.UNBOUNDED, np.zeros(n), np.inf)
        return LpSolution(LpStatus.OPTIMAL, np.zeros(n), 0.0, ())

    # Standard form with one slack per row.  Rows with b < 0 are negated so
    # every rhs is nonnegative; their slack coefficient becomes -1 and an
    # artificial variable provides the starting basis entry.  The negation
    # happens in the fresh tableau, never in ``lp``'s own arrays.
    negative = b < 0
    art_rows = np.where(negative)[0]
    num_art = art_rows.size
    cols = n + m + num_art
    full = np.zeros((m, cols))
    full[:, :n] = lp.rows
    full[np.arange(m), n + np.arange(m)] = 1.0
    full[negative] *= -1.0
    full[art_rows, n + m + np.arange(num_art)] = 1.0
    b = np.where(negative, -b, b)
    basis = [n + r for r in range(m)]
    for k, r in enumerate(art_rows):
        basis[r] = n + m + k

    tab = _Tableau(full, b, basis)
    allowed = np.ones(cols, dtype=bool)

    if num_art:
        phase1 = np.zeros(cols)
        phase1[n + m :] = -1.0  # maximize -sum(artificials)
        tab.set_objective(phase1)
        tab.run(allowed)
        if tab.objective_value() < -1e-8:
            return LpSolution(LpStatus.INFEASIBLE, np.zeros(n), -np.inf)
        # pivot any lingering artificials out of the basis where possible
        for r, bvar in enumerate(tab.basis):
            if bvar >= n + m:
                for j in range(n + m):
                    if abs(tab.T[r, j]) > PIVOT_TOL:
                        tab._pivot(r, j)
                        break
        allowed[n + m :] = False

    phase2 = np.zeros(cols)
    phase2[:n] = c
    tab.set_objective(phase2)
    outcome = tab.run(allowed)
    if outcome == "unbounded":
        return LpSolution(LpStatus.UNBOUNDED, np.zeros(n), np.inf)

    x = tab.primal(n)
    value = float(c @ x)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=x,
        objective_value=value,
        basis=tuple(int(bv) for bv in tab.basis),
    )


def check_feasible(lp: LinearProgram, values: Sequence[float], tol: float = 1e-9) -> bool:
    """Whether a candidate point satisfies ``x >= 0`` and ``rows @ x <= rhs``."""
    x = np.asarray(values, dtype=float)
    return bool(np.all(x >= -tol) and np.all(lp.rows @ x <= lp.rhs + tol))


def format_tableau(lp: LinearProgram) -> str:
    """Plain-text dump of the LP: objective row, then constraint rows."""
    names = [lp.name(j) for j in range(lp.num_vars)]
    lines = ["max " + " + ".join(f"{c:g}*{v}" for c, v in zip(lp.objective, names))]
    lines.append("subject to")
    for row, b in zip(lp.rows, lp.rhs):
        terms = " + ".join(f"{a:g}*{v}" for a, v in zip(row, names) if a != 0) or "0"
        lines.append(f"  {terms} <= {b:g}")
    lines.append("  " + ", ".join(names) + " >= 0")
    return "\n".join(lines)


def solution_to_csv(lp: LinearProgram, sol: LpSolution) -> str:
    """CSV export: one (variable name, value) row per variable."""
    lines = ["variable,value"]
    for j, v in enumerate(sol.values):
        lines.append(f"{lp.name(j)},{float(v)!r}")
    return "\n".join(lines) + "\n"
