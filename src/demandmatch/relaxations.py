"""The three LP relaxations.

* ``fluid``: uses only expected demands -- one demand row per type.
* ``truncated``: tightens every subset of resources ``S`` to the expected
  matchable mass ``E[min(D_j, sum_{i in S} k_i)]``.  Exponentially many rows,
  solved by cutting planes whose separation oracle sorts each type's column
  by density ``x[i,j] / k_i`` and checks its prefixes.
* ``conditional``: for stochastic horizons, per-step matching probabilities
  conditional on the horizon surviving to that step.

Variables are always flattened with type index fastest: ``x[i*m + j]`` for
the demand-vector LPs and ``y[((t-1)*n + i)*m + j]`` for the horizon LP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .demand import Instance, StochasticHorizonModel
from .linprog import LinearProgram, LpSolution, Tableau, reoptimize, solve_lp

#: a subset-demand cut is violated when exceeded by more than this
CUT_TOL = 1e-9
#: safety cap on cutting-plane rounds
MAX_CUT_ROUNDS = 10_000
#: the relaxations by name: expected demands, subset-tightened, conditional
RELAXATIONS = ("fluid", "trunc", "cond")


@functools.lru_cache(maxsize=64)
def _bipartite_rows(n: int, m: int, steps: int = 1) -> np.ndarray:
    """The capacity rows, then one demand row per (step, type).

    Variable ``((t-1)*n + i)*m + j`` is resource ``i`` serving type ``j`` at
    step ``t``; its column has a one in capacity row ``i`` and in demand row
    ``n + (t-1)*m + j``.  The matrix depends only on the shape, so it is
    cached and read-only, and every LP of that shape shares it.  A sweep of
    small instances cycles through some 50 shapes, hence room for 64.
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
    return transportation_lp(inst, [inst.demand.marginal(j).mean() for j in range(inst.m)])


@dataclass(frozen=True)
class Cut:
    """One violated subset-demand constraint: sum_{i in S} x[i,j] <= rhs."""

    type_index: int
    subset: tuple[int, ...]
    rhs: float
    violation: float = 0.0


def _expectation_table(inst: Instance) -> np.ndarray:
    """``float(E[min(D_j, k)])`` for every type ``j`` and ``k = 0..total capacity``."""
    total_cap = sum(inst.capacities)
    return np.array([inst.demand.marginal(j).truncated_expectation_table(total_cap) for j in range(inst.m)])


def _violated_cuts(x: Sequence[float], inst: Instance, table: np.ndarray) -> list[Cut]:
    """Each violated type's most violated subset-demand cut, in type order.

    Every column is sorted by density ``x[i,j] / k_i``, highest first (stable,
    so ties keep index order); each prefix of whole resources is compared
    against ``table[j, k(prefix)] = E[min(D_j, k(prefix))]``, and a violated
    type's cut is its first prefix of largest violation.  All types are
    sorted at once, in O(m * n log n).

    The prefixes are exact over all 2^n subsets, for any capacities.  Split
    each resource into ``k_i`` unit copies carrying ``x[i,j] / k_i`` each.  As
    ``h(k) = E[min(D_j, k)]`` depends only on the copy count, the most
    violated set of ``s`` copies is the ``s`` largest, so some prefix of the
    copies in density order is most violated.  A resource's copies share its
    density and sit next to each other in that order, and across one
    resource's block the violation is linear minus the concave ``h``, so
    convex: its maximum lies at an end of the block, a prefix of whole
    resources.
    """
    n, m = inst.n, inst.m
    caps = np.asarray(inst.capacities)
    xs = np.asarray(x, dtype=float).reshape(n, m)
    order = np.argsort(-(xs / caps[:, None]), axis=0, kind="stable")
    load = np.cumsum(np.take_along_axis(xs, order, axis=0), axis=0)
    bound = table[np.arange(m), np.cumsum(caps[order], axis=0)]
    violation = load - bound
    return [
        Cut(j, tuple(sorted(order[: k + 1, j].tolist())), float(bound[k, j]), float(violation[k, j]))
        for j, k in enumerate(np.argmax(violation, axis=0))
        if violation[k, j] > CUT_TOL
    ]


def separation_oracle(x: Sequence[float], inst: Instance) -> Optional[Cut]:
    """The most violated subset-demand cut, if any: the first maximum, in type order, of the per-type cuts."""
    return max(_violated_cuts(x, inst, _expectation_table(inst)), key=lambda c: c.violation, default=None)


def enumerate_violated_cut(x: Sequence[float], inst: Instance) -> Optional[Cut]:
    """Brute-force check of all 2^n subsets; the oracle's test double."""
    n, m = inst.n, inst.m
    best: Optional[Cut] = None
    for j in range(m):
        marginal = inst.demand.marginal(j)
        for mask in range(1, 1 << n):
            subset = tuple(i for i in range(n) if mask >> i & 1)
            load = sum(float(x[i * m + j]) for i in subset)
            cap = sum(inst.capacities[i] for i in subset)
            bound = float(marginal.truncated_expectation(cap))
            violation = load - bound
            if violation > CUT_TOL and (best is None or violation > best.violation):
                best = Cut(type_index=j, subset=subset, rhs=bound, violation=violation)
    return best


@dataclass(frozen=True)
class TruncatedLpResult:
    solution: LpSolution
    pool: tuple[Cut, ...]  # the cuts in the order they were added
    lp: LinearProgram
    rounds: int


def truncated_lp_base(inst: Instance) -> LinearProgram:
    """Starting relaxation: capacity rows plus the full-set demand row per type."""
    total_cap = sum(inst.capacities)
    return transportation_lp(
        inst, [inst.demand.marginal(j).truncated_expectation(total_cap) for j in range(inst.m)]
    )


def build_truncated_lp(inst: Instance) -> TruncatedLpResult:
    """Cutting-plane solve of the subset-tightened relaxation.

    Alternates solve / separate until the oracle certifies feasibility.  One
    tableau lives across the rounds: each round appends every violated type's
    most violated cut, in type order, as one block, and one dual-simplex
    reoptimization from the previous optimal basis handles them all.  The float
    ``E[min(D_j, k)]`` table is built once per solve, and ``lp`` once at the
    end from the base rows and the cuts.  Terminates because each (type,
    subset) pair is added at most once; a cut already added means the loop
    is numerically stuck, and raises ``ValueError``.
    """
    base = truncated_lp_base(inst)
    table = _expectation_table(inst)
    tab = Tableau(base)
    pool: list[Cut] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    blocks = []
    rounds = 0
    while True:
        rounds += 1
        if rounds > MAX_CUT_ROUNDS:
            raise RuntimeError("cutting-plane loop exceeded the round budget")
        solution = reoptimize(tab)
        cuts = _violated_cuts(solution.values, inst, table) if solution.is_optimal else []
        if not cuts:
            break
        for cut in cuts:
            if (cut.type_index, cut.subset) in seen:
                raise ValueError(f"duplicate cut for type {cut.type_index}, subset {cut.subset}")
            seen.add((cut.type_index, cut.subset))
        block = np.zeros((len(cuts), base.num_vars))
        for row, cut in zip(block, cuts):
            row[[i * inst.m + cut.type_index for i in cut.subset]] = 1.0
        tab.add_row(block, [cut.rhs for cut in cuts])
        pool.extend(cuts)
        blocks.append(block)
    lp = LinearProgram(
        objective=base.objective,
        rows=np.vstack([base.rows, *blocks]),
        rhs=np.append(base.rhs, [c.rhs for c in pool]),
    )
    return TruncatedLpResult(solution=solution, pool=tuple(pool), lp=lp, rounds=rounds)


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
    return inst.demand.to_horizon()


def solve_relaxation(name: str, inst: Instance) -> tuple[LinearProgram, LpSolution]:
    """The LP of the relaxation ``name`` (one of `RELAXATIONS`) for ``inst``
    and its solution; for ``trunc`` the final LP, every cut included."""
    if name == "trunc":
        result = build_truncated_lp(inst)
        return result.lp, result.solution
    if name not in RELAXATIONS:
        raise ValueError(f"unknown relaxation {name!r}; pick one of {RELAXATIONS}")
    lp = build_fluid_lp(inst) if name == "fluid" else conditional_lp(inst.demand.to_horizon(), inst)
    return lp, solve_lp(lp)
