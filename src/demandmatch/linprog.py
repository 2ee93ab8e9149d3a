"""Dense LP solver in the single normal form used by every relaxation here:

    maximize c.x   subject to   A x <= b,  x >= 0,  b >= 0,

with ``c`` of shape (n,), ``A`` of shape (r, n) and ``b`` of shape (r,), all
float numpy arrays from the builder to the solver.

Every right-hand side the package builds (capacities, expected or realized
demands, truncated expectations, per-step probabilities) is nonnegative, so
``x = 0`` is feasible and the slack basis starts a one-phase tableau simplex.
Pivoting is Dantzig (most negative reduced cost) until a run of degenerate
pivots suggests cycling, then Bland's rule, whose termination guarantee makes
the solver total on degenerate inputs.  The problems are small, so no
factorization machinery is attempted.  The tableau is one augmented array
(reduced costs in row 0, basic values in column 0), so a pivot is one row
division and one rank-1 update: of the whole array for a tableau of at most
``_BLOCK_CELLS`` cells, and of each row with a nonzero entry in the entering
column, in place, for a larger one.

An optimal ``Tableau`` is reoptimized in place after ``add_row`` (a cutting
plane) or ``set_rhs`` (a new demand realization): both leave its basis dual
feasible, so ``reoptimize`` runs dual-simplex pivots until the basic values
are nonnegative again, then primal pivots, with the same pivot routine and
switch to Bland's rule in both phases.
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
#: basic values below minus this make the basis primal infeasible
FEAS_TOL = 1e-12

_MAX_PIVOTS = 200_000
#: tableaux of at most this many cells (128 KiB of floats) are updated whole;
#: a larger one row by row, skipping the rows the pivot leaves unchanged
_BLOCK_CELLS = 16_384


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    UNBOUNDED = "unbounded"


def _checked_rhs(rhs) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float).reshape(-1)
    valid = np.isfinite(rhs) & (rhs >= 0)
    if not valid.all():
        idx = int(np.argmin(valid))
        raise ValueError(f"rhs[{idx}] = {rhs[idx]} is not finite and nonnegative")
    return rhs


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
        rhs = _checked_rhs(self.rhs)
        n = objective.size
        rows = np.asarray(self.rows, dtype=float)
        if rows.size == 0 and rows.ndim == 1:  # no rows at all
            rows = rows.reshape(0, n)
        if rows.ndim != 2 or rows.shape[1] != n:
            raise ValueError(f"rows of shape {rows.shape} do not have {n} coefficients each")
        if rows.shape[0] != rhs.size:
            raise ValueError(f"{rows.shape[0]} rows but {rhs.size} rhs entries")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(slots=True)
class LpStats:
    """Pivot counts of one ``reoptimize`` call, kept by ``Tableau.run``."""

    primal_pivots: int = 0
    dual_pivots: int = 0
    #: pivots that moved the objective by at most ``DEGENERATE_TOL``
    degenerate_pivots: int = 0
    #: runs of degenerate pivots long enough to switch to Bland's rule
    bland_switches: int = 0


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: LpStatus
    values: np.ndarray  # (n,) float
    objective_value: float
    basis: tuple[int, ...] = field(default=())
    stats: LpStats = field(default_factory=LpStats)

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL


class Tableau:
    """Simplex tableau in one augmented array: row 0 holds the reduced costs
    ``cost`` and column 0 the basic values ``rhs``, around the constraint
    rows ``T`` over [vars | slacks], whose slack columns hold the basis
    inverse.  ``T``, ``rhs`` and ``cost`` are views, so a pivot is one row
    division and one rank-1 update.  Above ``_BLOCK_CELLS`` cells that update
    runs row by row, in place, over the rows whose entry in the entering
    column is nonzero.  The array is a view into a buffer with spare rows, so
    ``add_row`` rarely copies.
    """

    def __init__(self, lp: LinearProgram):
        n, m = lp.num_vars, lp.num_rows
        self.objective = lp.objective
        # the slack basis costs nothing
        self._buffer = np.zeros((m + 1, n + m + 1))
        self._view(self._buffer)
        self.T[:, :n], self.T[:, n:], self.rhs[:], self.cost[:n] = lp.rows, np.eye(m), lp.rhs, -lp.objective
        self.basis = [n + r for r in range(m)]
        self.bland_after = max(20, 5 * (n + m))

    def _view(self, aug: np.ndarray) -> None:
        self._aug, self.T, self.rhs, self.cost = aug, aug[1:, 1:], aug[1:, 0], aug[0, 1:]

    def add_row(self, a: np.ndarray, b: float) -> None:
        """Append ``a.x <= b`` with its slack basic; an optimal basis stays dual feasible."""
        a, b = np.asarray(a, dtype=float).reshape(-1), _checked_rhs([b])[0]
        if a.size != self.objective.size:
            raise ValueError(f"row has {a.size} coefficients, expected {self.objective.size}")
        r, cols = self.T.shape
        if r + 1 == self._buffer.shape[0]:
            # room for r + 1 more rows, each with its slack column
            self._buffer = np.zeros((2 * r + 2, cols + r + 2))
            self._buffer[: r + 1, : cols + 1] = self._aug
        self._view(self._buffer[: r + 2, : cols + 2])
        T = self.T
        T[r, : self.objective.size] = a
        T[r, cols] = 1.0
        # zero the new row on the basic columns, where T[:r] is an identity
        coef = T[r, self.basis]
        nz = np.nonzero(coef)[0]
        T[r] -= coef[nz] @ T[nz]
        self.rhs[r] = b - coef[nz] @ self.rhs[nz]
        self.basis.append(cols)

    def set_rhs(self, b) -> None:
        """Replace ``b``: the basic values become B^-1 b."""
        n, r, b = self.objective.size, len(self.basis), _checked_rhs(b)
        if b.size != r:
            raise ValueError(f"rhs has {b.size} entries, expected {r}")
        self.rhs[:] = self.T[:, n : n + r] @ b

    def _entering(self) -> int:
        rc = self.cost
        if not rc.size:
            return -1
        col = int((rc < -RC_TOL).argmax() if self.bland else rc.argmin())
        return col if rc[col] < -RC_TOL else -1

    def _leaving(self, column: np.ndarray) -> int:
        """Primal ratio test on the entering column's constraint rows: among
        the rows within 1e-12 of the minimum ratio, the one with the lowest
        basic index."""
        rows = np.nonzero(column > PIVOT_TOL)[0]
        if rows.size == 0:
            return -1
        ratios = self.rhs[rows] / column[rows]
        near = rows[ratios <= ratios.min() + 1e-12]
        if near.size == 1:
            return int(near[0])
        return int(min(near, key=self.basis.__getitem__))

    def _infeasible_row(self) -> int:
        """Dual leaving row: the most negative basic value (Bland: lowest basic index)."""
        if not self.rhs.size or self.rhs.min() >= -FEAS_TOL:
            return -1
        if self.bland:
            rows = np.nonzero(self.rhs < -FEAS_TOL)[0]
            return int(rows[np.argmin(np.asarray(self.basis)[rows])])
        return int(self.rhs.argmin())

    def _dual_entering(self, row: int) -> int:
        """Dual ratio test: the lowest column that keeps every reduced cost >= 0."""
        a = self.T[row]
        cols = np.nonzero(a < -PIVOT_TOL)[0]
        if cols.size == 0:
            return -1
        ratios = np.maximum(self.cost[cols], 0.0) / -a[cols]
        return int(cols[np.argmax(ratios <= ratios.min() + 1e-12)])

    def _pivot(self, row: int, col: int, factors: np.ndarray) -> None:
        """Pivot on (row, col); ``factors`` is a copy of the entering column
        of the augmented array taken before the pivot, and is overwritten."""
        A, r = self._aug, row + 1
        A[r] /= A[r, col + 1]
        factors[r] = 0.0
        prow = A[r]
        gain = factors[0] * prow[0]
        if A.size <= _BLOCK_CELLS:
            A -= np.outer(factors, prow)
        else:
            # only rows with a nonzero factor change
            scratch = np.empty_like(prow)
            for k in np.nonzero(factors)[0]:
                A[k] -= np.multiply(prow, factors[k], out=scratch)
        self.basis[row] = col
        if abs(gain) <= DEGENERATE_TOL:
            self.degenerate_run += 1
            self.stats.degenerate_pivots += 1
            if self.degenerate_run >= self.bland_after and not self.bland:
                self.bland = True
                self.stats.bland_switches += 1
        else:
            self.degenerate_run = 0
            self.bland = False

    def run(self) -> bool:
        """Dual pivots while a basic value is negative, then primal pivots to
        optimality; False when a column has no leaving row.  The LP is feasible
        (b >= 0), so a dual dead end or an exhausted budget raises RuntimeError.
        The call's pivot counts are left in a new ``stats`` record.
        """
        self.degenerate_run = 0
        self.bland = False
        stats = self.stats = LpStats()
        for _ in range(_MAX_PIVOTS):
            row = self._infeasible_row()
            if row == -1:
                break
            col = self._dual_entering(row)
            if col == -1:
                raise RuntimeError(f"row {row} has basic value {self.rhs[row]!r} and no entering column")
            self._pivot(row, col, self._aug[:, col + 1].copy())
            stats.dual_pivots += 1
        else:
            raise RuntimeError("dual simplex exceeded the pivot budget")
        for _ in range(_MAX_PIVOTS):
            col = self._entering()
            if col == -1:
                return True
            # one contiguous read of the entering column, for both the ratio
            # test and the update
            column = self._aug[:, col + 1].copy()
            row = self._leaving(column[1:])
            if row == -1:
                return False
            self._pivot(row, col, column)
            stats.primal_pivots += 1
        raise RuntimeError("simplex exceeded the pivot budget")

    def primal(self, num_cols: int) -> np.ndarray:
        """The basic solution over all columns, cut to the first ``num_cols``."""
        x = np.zeros(self.T.shape[1])
        x.put(self.basis, self.rhs)
        return x[:num_cols]


def reoptimize(tab: Tableau) -> LpSolution:
    """Optimal basic solution of the tableau's LP from its current basis: a
    warm reoptimization after ``add_row``/``set_rhs``, a cold solve when fresh."""
    n = tab.objective.size
    if not tab.run():
        return LpSolution(LpStatus.UNBOUNDED, np.zeros(n), np.inf, stats=tab.stats)
    x = tab.primal(n)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        values=x,
        objective_value=float(tab.objective @ x),
        basis=tuple(tab.basis),
        stats=tab.stats,
    )


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve to an optimal basic solution, or report the LP unbounded.

    One simplex phase from the slack basis, which the nonnegative right-hand
    side makes feasible.  With no rows any improving column is unbounded;
    with no variables the slack basis is optimal at once.
    """
    return reoptimize(Tableau(lp))


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
