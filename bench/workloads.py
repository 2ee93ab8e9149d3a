"""The benchmark's workloads: seeded instance sets and the program call timed
on each instance.

Every workload is a list of groups (ladder rungs or verification families).
A group makes its instances from ``default_rng((seed, group, index))``, so
the same seed always gives the same inputs and a group's instances do not
depend on the sizes of the other groups.  ``run`` is the only code inside
the timed region; it calls the program through module attributes, so the
tracer's wrappers see every call.  The correctness checks live in
``checks.py`` and run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from demandmatch import demand, experiments, linprog, oracles, policies, relaxations, rounding


@dataclass(frozen=True)
class Group:
    """One rung of a ladder or one family of a verification workload."""

    label: str
    kind: str  # selects the run, check and fingerprint functions
    count: int
    make: Callable[[np.random.Generator, int], Any]


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]


def _probs(rng: np.random.Generator, size: int) -> list[float]:
    """Random probability vector rounded to six digits, summing to one."""
    weights = rng.uniform(0.1, 1.0, size=size)
    probs = [float(np.round(w, 6)) for w in weights / weights.sum()]
    probs[int(np.argmax(probs))] += 1.0 - sum(probs)
    return probs


def _rewards(rng: np.random.Generator, n: int, m: int) -> tuple[tuple[float, ...], ...]:
    return tuple(tuple(float(np.round(rng.uniform(0, 10), 3)) for _ in range(m)) for _ in range(n))


def trunc_instance(rng: np.random.Generator, index: int, n: int, m: int = 10) -> demand.Instance:
    """Independent demand, ``n`` unit resources, ``m`` types; each type has
    3 support points in ``[0, max(3, n/5)]``.  (Mixing 2-4 points doubles
    the spread of the cutting-plane loop's round count between instances.)"""
    rewards = _rewards(rng, n, m)
    top = max(3, n // 5)
    dists = []
    for _ in range(m):
        values = sorted(rng.choice(top + 1, size=3, replace=False).tolist())
        dists.append(demand.DemandDistribution.from_pmf(dict(zip(values, _probs(rng, 3)))))
    return demand.Instance(
        rewards=rewards,
        capacities=(1,) * n,
        demand=demand.IndepDemandModel(per_type=tuple(dists)),
    )


def cond_instance(
    rng: np.random.Generator, index: int, horizon: int, n: int, m: int, capacity: int
) -> demand.Instance:
    """Stochastic horizon of at most ``horizon`` steps (four support points,
    the last one ``horizon``); rows sum to between 1/2 and 1."""
    rewards = _rewards(rng, n, m)
    ends = sorted(set(rng.choice(np.arange(1, horizon), size=3, replace=False).tolist()) | {horizon})
    total = demand.DemandDistribution.from_pmf(dict(zip(ends, _probs(rng, len(ends)))))
    rows = []
    for _ in range(horizon):
        weights = rng.uniform(0.0, 1.0, size=m)
        row = weights / weights.sum() * rng.uniform(0.5, 1.0)
        rows.append(tuple(float(np.round(p, 6)) for p in row))
    return demand.Instance(
        rewards=rewards,
        capacities=(capacity,) * n,
        demand=demand.StochasticHorizonModel(total=total, probs=tuple(rows)),
        arrival=demand.Arrival.RANDOM_ORDER,
    )


def _indep_instance(rng, capacities, supports) -> demand.Instance:
    """Independent demand with the given capacities and per-type support values."""
    dists = tuple(
        demand.DemandDistribution.from_pmf(dict(zip(values, _probs(rng, len(values))))) for values in supports
    )
    return demand.Instance(
        rewards=_rewards(rng, len(capacities), len(supports)),
        capacities=tuple(capacities),
        demand=demand.IndepDemandModel(per_type=dists),
    )


# The exact-verify families fix each instance's shape by its index, cycling
# through every shape, and draw only the numbers from the seed.  The cost of
# an oracle depends mostly on the shape (support size, number of orders,
# capacity states), so this keeps a pass's cost from varying between seeds
# while every shape, including the heavy tail, stays in every pass.

#: capacity vectors with total capacity at most 3
ADVERSARY_CAPACITIES = ((1,), (2,), (3,), (1, 1), (1, 2), (2, 1), (1, 1, 1))
#: per-type demand supports, demand at most 3 (so at most 9!/(3!3!3!) orders)
ADVERSARY_SUPPORTS = ((0, 2), (1, 3), (0, 1, 3), (1, 2), (0, 1, 2), (2, 3))


def prophet_instance(rng: np.random.Generator, index: int) -> demand.Instance:
    """Upper ``lp-ordering`` acceptance sizes: 2-4 resources of capacity 1-2,
    2-4 types, 2-4 support points in [0, 4] per type (up to 64 realizations)."""
    n, m, first = 2 + index % 3, 2 + index // 3 % 3, index // 9
    caps = [int(rng.integers(1, 3)) for _ in range(n)]
    supports = [sorted(rng.choice(5, size=2 + (first + j) % 3, replace=False).tolist()) for j in range(m)]
    return _indep_instance(rng, caps, supports)


def adversary_instance(rng: np.random.Generator, index: int) -> demand.Instance:
    """The ``adversarial-guarantee`` acceptance sizes with demand up to 3:
    total capacity at most 3, 1-3 types."""
    m = 1 + index % 3
    caps = ADVERSARY_CAPACITIES[index // 3 % len(ADVERSARY_CAPACITIES)]
    first = index // (3 * len(ADVERSARY_CAPACITIES))
    supports = [ADVERSARY_SUPPORTS[(first + j) % len(ADVERSARY_SUPPORTS)] for j in range(m)]
    return _indep_instance(rng, caps, supports)


def horizon_instance(rng: np.random.Generator, index: int) -> demand.Instance:
    """Horizons of 2, 4, 6 or 8 steps, 1-3 resources of capacity 1-3, 1-3
    types; the horizon may end at any step."""
    horizon, n, m = 2 + 2 * (index % 4), 1 + index // 4 % 3, 1 + index // 12 % 3
    caps = tuple(1 + (index // 36 + i) % 3 for i in range(n))
    total = demand.DemandDistribution.from_pmf(dict(enumerate(_probs(rng, horizon + 1))))
    rows = []
    for _ in range(horizon):
        weights = rng.uniform(0.0, 1.0, size=m)
        row = weights / weights.sum() * rng.uniform(0.5, 1.0)
        rows.append(tuple(float(np.round(p, 6)) for p in row))
    return demand.Instance(
        rewards=_rewards(rng, n, m),
        capacities=caps,
        demand=demand.StochasticHorizonModel(total=total, probs=tuple(rows)),
        arrival=demand.Arrival.RANDOM_ORDER,
    )


def audit_instance(rng: np.random.Generator, index: int, smallest: int, span: int):
    """A random rational feasible column with ``smallest + index % span``
    resources, and its demand law."""
    return experiments.random_feasible_column(rng, smallest + index % span)


# -- the timed program calls, one per group kind ---------------------------


def run_trunc(inst: demand.Instance) -> policies.IndepAdvPlan:
    return policies.plan_indep_adv_policy(inst)


def run_cond(inst: demand.Instance) -> policies.HorizonPlan:
    return policies.plan_horizon_policy(inst.demand, inst)


def run_prophet(inst: demand.Instance) -> dict:
    return {
        "off": oracles.expected_offline(inst).value,
        "trunc": relaxations.build_truncated_lp(inst).solution.objective_value,
        "fluid": linprog.solve_lp(relaxations.build_fluid_lp(inst)).objective_value,
    }


def run_adversary(inst: demand.Instance) -> dict:
    """Threshold plan plus the exact worst order of every demand realization."""
    plan = policies.plan_indep_adv_policy(inst)
    rows = []
    total = 0.0
    for counts, prob in demand.iter_demand_support(inst.demand):
        p = float(prob)
        if p <= 0.0 or sum(counts) == 0:
            continue
        order, value = oracles.worst_case_order(plan, demand.RealizedDemand(counts))
        rows.append((counts, p, order.types, value))
        total += p * value
    return {"plan": plan, "rows": rows, "value": total}


def run_horizon(inst: demand.Instance) -> dict:
    model = relaxations.horizon_model_of(inst)
    plan = policies.plan_horizon_policy(model, inst)
    return {
        "dp": oracles.optimal_online_dp(model, inst),
        "plan": plan,
        "value": oracles.horizon_policy_value(plan).value,
    }


def run_audit(inst) -> dict:
    """Stage-by-stage rounding with invariant checks, then the compact
    rounding and the expanded-support marginal check."""
    column, dist = inst
    n = len(column)
    state = rounding.RoundingState(dist, n, track_branches=True)
    problems = []
    for idx in range(n):
        state.advance(column[idx])
        problems.append(state.check_invariants())
    rd = rounding.typeround(column, dist)
    return {"problems": problems, "rd": rd, "report": rounding.verify_marginals(rd, column, dist)}


RUN: dict[str, Callable[[Any], Any]] = {
    "trunc": run_trunc,
    "cond": run_cond,
    "prophet": run_prophet,
    "adversary": run_adversary,
    "horizon": run_horizon,
    "audit": run_audit,
}


def fingerprint(kind: str, out: Any) -> tuple:
    """Values that must repeat exactly when the same instance runs again."""
    if kind == "trunc":
        return (out.lp_value, out.taus)
    if kind == "cond":
        return (out.lp_value, tuple(p.gamma for p in out.plans))
    if kind == "prophet":
        return (out["off"], out["trunc"], out["fluid"])
    if kind == "adversary":
        return (out["plan"].lp_value, out["value"])
    if kind == "horizon":
        return (out["dp"].value, out["plan"].lp_value, out["value"])
    return (tuple(len(p) for p in out["problems"]), out["report"].achieved)


# Group sizes: one pass takes 3-6 s on a 2-CPU Xeon VM, so a 24 s window
# holds four to eight passes.  The rungs that carry most of a pass have enough
# instances that its cost varies little between seeds (the cutting-plane
# loop's cost swings with its round count, which is why trunc-plan stops at
# n = 20; the rounding audit's with its branch count, which is why it stops at
# the n = 8 of ``verify-invariants``), and the median instance falls inside a
# middle rung.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "trunc-plan",
            (
                Group("trunc-n10", "trunc", 32, partial(trunc_instance, n=10)),
                Group("trunc-n15", "trunc", 48, partial(trunc_instance, n=15)),
                Group("trunc-n20", "trunc", 32, partial(trunc_instance, n=20)),
            ),
        ),
        Workload(
            "cond-plan",
            (
                Group("cond-T10", "cond", 4, partial(cond_instance, horizon=10, n=5, m=5, capacity=2)),
                Group("cond-T25", "cond", 8, partial(cond_instance, horizon=25, n=8, m=8, capacity=2)),
                Group("cond-T50", "cond", 2, partial(cond_instance, horizon=50, n=10, m=10, capacity=2)),
                Group("cond-T400", "cond", 1, partial(cond_instance, horizon=400, n=2, m=2, capacity=16)),
            ),
        ),
        Workload(
            "exact-verify",
            (
                Group("verify-prophet", "prophet", 216, prophet_instance),
                Group("verify-adversary", "adversary", 252, adversary_instance),
                Group("verify-horizon", "horizon", 1080, horizon_instance),
            ),
        ),
        Workload(
            "rounding-audit",
            (
                Group("audit-n1-4", "audit", 200, partial(audit_instance, smallest=1, span=4)),
                Group("audit-n5-6", "audit", 200, partial(audit_instance, smallest=5, span=2)),
                Group("audit-n7-8", "audit", 200, partial(audit_instance, smallest=7, span=2)),
            ),
        ),
    )
}


def make_instances(workload: Workload, seed: int, counts: dict[str, int] | None = None) -> list:
    """``(group, instance)`` pairs; ``counts`` overrides group sizes (tests)."""
    out = []
    for g_idx, group in enumerate(workload.groups):
        count = group.count if counts is None else counts.get(group.label, group.count)
        for idx in range(count):
            out.append((group, group.make(np.random.default_rng((seed, g_idx, idx)), idx)))
    return out


def warmup_instance(workload: Workload, seed: int):
    """An instance of the first group drawn from a stream the timed set never uses."""
    group = workload.groups[0]
    return group, group.make(np.random.default_rng((seed, len(workload.groups), 0)), 0)
