"""The three LP relaxations.

* ``fluid``: uses only expected demands -- one demand row per type.
* ``truncated``: tightens every subset of resources ``S`` to the expected
  matchable mass ``E[min(D_j, sum_{i in S} k_i)]``.  Exponentially many rows,
  solved by cutting planes with a knapsack-DP separation oracle.
* ``conditional``: for stochastic horizons, per-step matching probabilities
  conditional on the horizon surviving to that step.

Variables are always flattened with type index fastest: ``x[i*m + j]`` for
the demand-vector LPs and ``y[((t-1)*n + i)*m + j]`` for the horizon LP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .demand import (
    CorrelDemandModel,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    StochasticHorizonModel,
)
from .linprog import LinearProgram, LpSolution, LpStatus, solve_lp

#: a subset-demand cut is violated when exceeded by more than this
CUT_TOL = 1e-9
#: safety cap on cutting-plane rounds
MAX_CUT_ROUNDS = 10_000


class UnsupportedDemandModel(TypeError):
    """Raised when an LP builder is handed the wrong demand model kind."""


def type_marginal(inst: Instance, j: int) -> DemandDistribution:
    """Marginal demand distribution of type ``j`` (independent or correlated)."""
    model = inst.demand
    if isinstance(model, (IndepDemandModel, CorrelDemandModel)):
        return model.marginal(j)
    raise UnsupportedDemandModel(
        "stochastic-horizon demand has no per-type marginal here; "
        "use the conditional LP"
    )


@functools.lru_cache(maxsize=8)
def _bipartite_rows(n: int, m: int, steps: int = 1) -> np.ndarray:
    """The capacity rows, then one demand row per (step, type).

    Variable ``((t-1)*n + i)*m + j`` is resource ``i`` serving type ``j`` at
    step ``t``; its column has a one in capacity row ``i`` and in demand row
    ``n + (t-1)*m + j``.  The matrix depends only on the shape, so it is
    cached and read-only, and every LP of that shape shares it.
    """
    t, i, j = np.indices((steps, n, m)).reshape(3, -1)
    var = np.arange(steps * n * m)
    rows = np.zeros((n + steps * m, steps * n * m))
    rows[i, var] = 1.0
    rows[n + t * m + j, var] = 1.0
    rows.setflags(write=False)
    return rows


def transportation_lp(inst: Instance, demand_rhs: Sequence[float]) -> LinearProgram:
    """The bipartite capacity/demand LP shared by the demand-vector relaxations.

    One row per resource caps its total matches at ``k_i``; one row per type
    caps that type's matches at ``demand_rhs[j]``.  The fluid LP, the
    subset-tightened LP's starting relaxation, and the per-realization
    offline optimum differ only in that right-hand side.
    """
    n, m = inst.n, inst.m
    return LinearProgram(
        objective=np.asarray(inst.rewards, dtype=float).reshape(-1),
        rows=_bipartite_rows(n, m),
        rhs=np.array([*inst.capacities, *demand_rhs], dtype=float),
    )


def build_fluid_lp(inst: Instance) -> LinearProgram:
    """Relaxation with capacity rows and expected-demand rows only."""
    if isinstance(inst.demand, StochasticHorizonModel):
        raise UnsupportedDemandModel(
            "fluid LP needs per-type demand means; use the conditional LP "
            "for stochastic horizons"
        )
    return transportation_lp(inst, [type_marginal(inst, j).mean() for j in range(inst.m)])


@dataclass(frozen=True)
class Cut:
    """One violated subset-demand constraint: sum_{i in S} x[i,j] <= rhs."""

    type_index: int
    subset: tuple[int, ...]
    rhs: float
    violation: float = 0.0


@dataclass
class CutPool:
    """Subset-demand rows accumulated by the cutting-plane loop."""

    cuts: list[Cut] = field(default_factory=list)
    _seen: set[tuple[int, tuple[int, ...]]] = field(default_factory=set)

    def add(self, cut: Cut) -> None:
        key = (cut.type_index, cut.subset)
        if key in self._seen:
            raise ValueError(f"duplicate cut for type {cut.type_index}, subset {cut.subset}")
        self._seen.add(key)
        self.cuts.append(cut)

    def __len__(self) -> int:
        return len(self.cuts)


def separation_oracle(
    x: Sequence[float], inst: Instance, tol: float = CUT_TOL
) -> Optional[Cut]:
    """Most-violated subset-demand cut for the candidate point, if any.

    For each type ``j`` and each capacity budget ``k`` up to the total
    capacity, a 0/1 knapsack over resources (weight ``k_i``, value
    ``x[i,j]``) finds the subset packing the most candidate mass under the
    budget; that mass is compared against ``E[min(D_j, k)]``.  The scan is
    O(m * n * total_capacity) plus the subset recoveries.
    """
    n, m = inst.n, inst.m
    caps = inst.capacities
    total_cap = sum(caps)
    best: Optional[Cut] = None
    for j in range(m):
        marginal = type_marginal(inst, j)
        values = [float(x[i * m + j]) for i in range(n)]
        # dp[c] = best value with weight <= c; take[i][c] marks item i chosen
        dp = np.zeros(total_cap + 1)
        take = np.zeros((n, total_cap + 1), dtype=bool)
        for i in range(n):
            w, v = caps[i], values[i]
            if v <= 0.0:
                continue
            upgraded = dp[: total_cap + 1 - w] + v
            better = upgraded > dp[w:]
            dp[w:] = np.where(better, upgraded, dp[w:])
            take[i, w:] = better
        for k in range(1, total_cap + 1):
            if float(dp[k]) - float(marginal.truncated_expectation(k)) <= tol:
                continue
            # The recovered subset may use less than the budget k, so its own
            # row bound E[min(D_j, sum_S k_i)] is at least as tight.
            subset = _recover_subset(take, caps, k)
            load = sum(values[i] for i in subset)
            bound = float(marginal.truncated_expectation(sum(caps[i] for i in subset)))
            violation = load - bound
            if violation > tol and (best is None or violation > best.violation):
                best = Cut(type_index=j, subset=subset, rhs=bound, violation=violation)
    return best


def _recover_subset(take: np.ndarray, caps: Sequence[int], budget: int) -> tuple[int, ...]:
    chosen: list[int] = []
    c = budget
    for i in range(take.shape[0] - 1, -1, -1):
        if take[i, c]:
            chosen.append(i)
            c -= caps[i]
    return tuple(sorted(chosen))


def enumerate_violated_cut(
    x: Sequence[float], inst: Instance, tol: float = CUT_TOL
) -> Optional[Cut]:
    """Brute-force check of all 2^n subsets; the oracle's test double."""
    n, m = inst.n, inst.m
    best: Optional[Cut] = None
    for j in range(m):
        marginal = type_marginal(inst, j)
        for mask in range(1, 1 << n):
            subset = tuple(i for i in range(n) if mask >> i & 1)
            load = sum(float(x[i * m + j]) for i in subset)
            cap = sum(inst.capacities[i] for i in subset)
            bound = float(marginal.truncated_expectation(cap))
            violation = load - bound
            if violation > tol and (best is None or violation > best.violation):
                best = Cut(type_index=j, subset=subset, rhs=bound, violation=violation)
    return best


@dataclass(frozen=True)
class TruncatedLpResult:
    solution: LpSolution
    pool: CutPool
    lp: LinearProgram
    rounds: int


def truncated_lp_base(inst: Instance) -> LinearProgram:
    """Starting relaxation: capacity rows plus the full-set demand row per type."""
    total_cap = sum(inst.capacities)
    return transportation_lp(
        inst, [type_marginal(inst, j).truncated_expectation(total_cap) for j in range(inst.m)]
    )


def build_truncated_lp(inst: Instance) -> TruncatedLpResult:
    """Cutting-plane solve of the subset-tightened relaxation.

    Alternates solve / separate, adding the most violated cut each round,
    until the oracle certifies feasibility.  Terminates because each (type,
    subset) pair is added at most once and there are finitely many; a cut
    the pool already holds means the loop is numerically stuck, and
    ``CutPool.add`` raises ``ValueError`` rather than accept the point.
    """
    lp = truncated_lp_base(inst)
    pool = CutPool()
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_CUT_ROUNDS:
            raise RuntimeError("cutting-plane loop exceeded the round budget")
        solution = solve_lp(lp)
        if solution.status is not LpStatus.OPTIMAL:
            return TruncatedLpResult(solution=solution, pool=pool, lp=lp, rounds=rounds)
        cut = separation_oracle(solution.values, inst)
        if cut is None:
            return TruncatedLpResult(solution=solution, pool=pool, lp=lp, rounds=rounds)
        pool.add(cut)
        row = np.zeros(lp.num_vars)
        row[[i * inst.m + cut.type_index for i in cut.subset]] = 1.0
        lp = LinearProgram(
            objective=lp.objective,
            rows=np.vstack([lp.rows, row]),
            rhs=np.append(lp.rhs, cut.rhs),
        )


def conditional_lp(model: StochasticHorizonModel, inst: Instance) -> LinearProgram:
    """Horizon LP: nmT variables y[t,i,j], capacity and per-step demand rows.

    The objective weights each step by the survival probability of the
    horizon; the capacity row is unweighted because it binds on the longest
    sample path.  A zero-step horizon gives no variables and the n capacity
    rows alone.
    """
    n, m = inst.n, inst.m
    probs = np.asarray(model.probs[: model.horizon], dtype=float).reshape(-1, m)
    steps = probs.shape[0]
    survival = np.array([float(model.total.survival(t)) for t in range(1, steps + 1)])
    return LinearProgram(
        objective=np.outer(survival, np.asarray(inst.rewards, dtype=float)).reshape(-1),
        rows=_bipartite_rows(n, m, steps),
        rhs=np.concatenate([inst.capacities, probs.reshape(-1)], dtype=float),
    )


def horizon_model_of(inst: Instance) -> StochasticHorizonModel:
    """The instance's horizon view (native, or converted from correlated)."""
    model = inst.demand
    if isinstance(model, StochasticHorizonModel):
        return model
    if isinstance(model, CorrelDemandModel):
        return model.to_horizon()
    raise UnsupportedDemandModel(
        "independent demand has no canonical horizon view"
    )
