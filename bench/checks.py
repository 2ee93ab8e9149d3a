"""Correctness checks run on every workload output, outside the timed region.

Each check compares the program's output against a reference that shares as
little code with it as possible: LP values against HiGHS on LPs this module
builds from the instance itself, offline optima against a Hungarian
assignment, policy values against a second evaluation path.  A check
returns a list of problems, each prefixed with the name of the check that
fired; an empty list means the output is correct.  Values must agree to
``REL`` relative (absolute below one); exact-arithmetic outputs must agree
exactly.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.optimize import linprog as scipy_linprog
from scipy.sparse import coo_matrix

from demandmatch import oracles, relaxations

#: relative agreement required between an output and its reference
REL = 1e-9
#: slack allowed on the guarantees' inequalities (the acceptance gate's)
TOL = 1e-9
#: horizon plans whose exact capacity-state DP costs at most this many steps
#: are also valued by the oracle
DP_WORK_CAP = 10**6

_HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(1.0, abs(b))


def highs_max(c: Sequence[float], rows: Sequence[Sequence[int]], rhs: Sequence[float]):
    """max c.x s.t. sum_{v in rows[r]} x_v <= rhs[r], x >= 0, by HiGHS."""
    r_idx = [r for r, row in enumerate(rows) for _ in row]
    v_idx = [v for row in rows for v in row]
    a = coo_matrix((np.ones(len(v_idx)), (r_idx, v_idx)), shape=(len(rows), len(c))).tocsr()
    res = scipy_linprog(
        -np.asarray(c, dtype=float), A_ub=a, b_ub=np.asarray(rhs, dtype=float),
        bounds=(0, None), method="highs", options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -float(res.fun), res.x


def truncated_mean(dist, cap: int) -> float:
    """E[min(D, cap)] straight from the pmf."""
    return sum(float(p) * min(v, cap) for v, p in dist.items)


def _bipartite_rows(inst, demand_rhs: Sequence[float]):
    """Capacity rows per resource and demand rows per type, x[i*m + j]."""
    n, m = inst.n, inst.m
    rows = [[i * m + j for j in range(m)] for i in range(n)]
    rows += [[i * m + j for i in range(n)] for j in range(m)]
    rhs = [float(k) for k in inst.capacities] + list(demand_rhs)
    c = [float(inst.rewards[i][j]) for i in range(n) for j in range(m)]
    return c, rows, rhs


def truncated_reference(inst) -> float:
    """Cutting-plane loop on HiGHS with the program's separation oracle.

    Cut right-hand sides are recomputed here from the pmf, so only the
    choice of the violated subset comes from the program."""
    dists = inst.demand.per_type
    c, rows, rhs = _bipartite_rows(inst, [truncated_mean(d, inst.total_capacity) for d in dists])
    seen = set()
    for _ in range(relaxations.MAX_CUT_ROUNDS):
        value, x = highs_max(c, rows, rhs)
        cut = relaxations.separation_oracle(x, inst)
        if cut is None:
            return value
        key = (cut.type_index, cut.subset)
        if key in seen:
            raise RuntimeError(f"reference loop met the cut {key} twice")
        seen.add(key)
        rows.append([i * inst.m + cut.type_index for i in cut.subset])
        rhs.append(truncated_mean(dists[cut.type_index], sum(inst.capacities[i] for i in cut.subset)))
    raise RuntimeError("reference loop exceeded the round budget")


def fluid_reference(inst) -> float:
    c, rows, rhs = _bipartite_rows(inst, [truncated_mean(d, d.max_support) for d in inst.demand.per_type])
    return highs_max(c, rows, rhs)[0]


def _survival(dist, t: int):
    return sum((p for v, p in dist.items if v >= t), 0)


def conditional_reference(model, inst) -> float:
    """The horizon LP built from the model and solved by HiGHS."""
    n, m, horizon = inst.n, inst.m, model.horizon

    def vid(t: int, i: int, j: int) -> int:
        return ((t - 1) * n + i) * m + j

    c = [0.0] * (horizon * n * m)
    for t in range(1, horizon + 1):
        s = float(_survival(model.total, t))
        for i in range(n):
            for j in range(m):
                c[vid(t, i, j)] = s * float(inst.rewards[i][j])
    rows = [[vid(t, i, j) for t in range(1, horizon + 1) for j in range(m)] for i in range(n)]
    rhs = [float(k) for k in inst.capacities]
    for t in range(1, horizon + 1):
        for j in range(m):
            rows.append([vid(t, i, j) for i in range(n)])
            rhs.append(float(model.probs[t - 1][j]))
    return highs_max(c, rows, rhs)[0]


def offline_reference(inst, counts: Sequence[int]) -> float:
    """Max-weight matching of unit copies of resources to realized queries."""
    weights = np.array(
        [
            [float(inst.rewards[i][j]) for j, d in enumerate(counts) for _ in range(d)]
            for i, k in enumerate(inst.capacities)
            for _ in range(k)
        ]
    )
    if weights.size == 0:
        return 0.0
    r, c = linear_sum_assignment(weights, maximize=True)
    return float(weights[r, c].sum())


def threshold_reference(plan, order: Sequence[int]) -> float:
    """Expected threshold-policy reward along ``order``, by walking the order
    once for every combination of the types' routings."""
    rewards = plan.instance.rewards
    total = 0.0
    for combo in itertools.product(*(rd.branches() for rd in plan.routings)):
        prob = 1.0
        for _, p in combo:
            prob *= float(p)
        counters = [0] * plan.m
        available = [True] * plan.n
        collected = 0.0
        for j in order:
            counters[j] += 1
            target = combo[j][0].resource_at(counters[j])
            if target is not None and available[target] and rewards[target][j] >= plan.taus[target]:
                available[target] = False
                collected += float(rewards[target][j])
        total += prob * collected
    return total


def dp_table_value(model, inst, dp) -> float:
    """Value of following the DP's decision table, by a forward pass over
    capacity states."""
    states = {tuple(inst.capacities): 1.0}
    value = 0.0
    for t in range(1, model.horizon + 1):
        s_t = float(_survival(model.total, t))
        row = [float(p) for p in model.probs[t - 1]]
        idle = max(0.0, 1.0 - sum(row))
        nxt: dict[tuple[int, ...], float] = {}
        for caps, w in states.items():
            nxt[caps] = nxt.get(caps, 0.0) + w * idle
            for j, pick in enumerate(dp.table[(t, caps)]):
                after = caps
                if pick is not None:
                    value += s_t * w * row[j] * float(inst.rewards[pick][j])
                    after = caps[:pick] + (caps[pick] - 1,) + caps[pick + 1 :]
                nxt[after] = nxt.get(after, 0.0) + w * row[j]
        states = nxt
    return value


# -- one check per group kind ----------------------------------------------


def check_trunc(inst, plan) -> list[str]:
    problems = []
    ref = truncated_reference(plan.instance)
    if not close(plan.lp_value, ref):
        problems.append(f"lp-value: {plan.lp_value!r} vs HiGHS {ref!r}")
    flat = [v for row in plan.x for v in row]
    cut = relaxations.separation_oracle(flat, plan.instance)
    if cut is not None:
        problems.append(f"separation: planned x violates {cut}")
    for j, rd in enumerate(plan.routings):
        achieved = rd.marginals()
        err = max(abs(float(achieved[i]) - plan.x[i][j]) for i in range(plan.n))
        if err > REL:
            problems.append(f"marginals: type {j} routing misses its column by {err:.3e}")
    return problems


def check_cond(inst, plan) -> list[str]:
    problems = []
    model = plan.model
    ref = conditional_reference(model, inst)
    if not close(plan.lp_value, ref):
        problems.append(f"lp-value: {plan.lp_value!r} vs HiGHS {ref!r}")
    y = np.array(plan.y)  # (T, n, m)
    if y.size:
        over_cap = (y.sum(axis=(0, 2)) - np.array(inst.capacities, dtype=float)).max()
        probs = np.array([[float(p) for p in row] for row in model.probs])
        over_step = (y.sum(axis=1) - probs).max()
        surv = np.array([float(_survival(model.total, t)) for t in range(1, model.horizon + 1)])
        objective = float(np.einsum("t,tij,ij->", surv, y, np.array(inst.rewards, dtype=float)))
        if y.min() < 0 or max(over_cap, over_step) > TOL or not close(objective, plan.lp_value):
            problems.append(
                f"plan-y: excess {max(over_cap, over_step):.3e}, objective {objective!r} "
                f"vs LP value {plan.lp_value!r}"
            )
    dp_work = model.horizon * inst.n * inst.m * int(np.prod([k + 1 for k in inst.capacities]))
    if dp_work <= DP_WORK_CAP:
        exact = oracles.horizon_policy_value(plan).value
        if not close(plan.expected_value(), exact):
            problems.append(f"policy-value: closed form {plan.expected_value()!r} vs DP {exact!r}")
    return problems


def check_prophet(inst, out) -> list[str]:
    problems = []
    off = 0.0
    for combo in itertools.product(*(d.items for d in inst.demand.per_type)):
        prob = float(np.prod([float(p) for _, p in combo]))
        off += prob * offline_reference(inst, [v for v, _ in combo])
    references = (
        ("offline", "off", off),
        ("truncated", "trunc", truncated_reference(inst)),
        ("fluid", "fluid", fluid_reference(inst)),
    )
    for name, key, ref in references:
        if not close(out[key], ref):
            problems.append(f"{name}: {out[key]!r} vs reference {ref!r}")
    if out["off"] > out["trunc"] + TOL or out["trunc"] > out["fluid"] + TOL:
        problems.append(f"ordering: off {out['off']!r}, trunc {out['trunc']!r}, fluid {out['fluid']!r}")
    return problems


def check_adversary(inst, out) -> list[str]:
    problems = []
    plan = out["plan"]
    ref = truncated_reference(plan.instance)
    if not close(plan.lp_value, ref):
        problems.append(f"lp-value: {plan.lp_value!r} vs HiGHS {ref!r}")
    if out["value"] < plan.lp_value / 2 - TOL:
        problems.append(f"guarantee: worst-order value {out['value']!r} < half of {plan.lp_value!r}")
    for counts, _, order, value in out["rows"]:
        if sorted(order) != sorted(j for j, c in enumerate(counts) for _ in range(c)):
            problems.append(f"order: {order} does not interleave {counts}")
            continue
        ref = threshold_reference(plan, order)
        if not close(value, ref):
            problems.append(f"order-value: {value!r} vs routing enumeration {ref!r} on {order}")
    return problems


def check_horizon(inst, out) -> list[str]:
    problems = []
    dp, plan, value = out["dp"], out["plan"], out["value"]
    ref = conditional_reference(plan.model, inst)
    if not close(plan.lp_value, ref):
        problems.append(f"lp-value: {plan.lp_value!r} vs HiGHS {ref!r}")
    if not close(value, plan.expected_value()):
        problems.append(f"policy-value: DP {value!r} vs closed form {plan.expected_value()!r}")
    table = dp_table_value(plan.model, inst, dp)
    if not close(dp.value, table):
        problems.append(f"online-dp: {dp.value!r} vs its decision table's value {table!r}")
    if value < plan.lp_value / 2 - TOL or value > dp.value + TOL or dp.value > plan.lp_value + TOL:
        problems.append(f"guarantee: cond/2 <= policy {value!r} <= OPT {dp.value!r} <= cond {plan.lp_value!r} fails")
    return problems


def check_audit(inst, out) -> list[str]:
    problems = []
    column, dist = inst
    rd, report = out["rd"], out["report"]
    bad = [(stage, p) for stage, found in enumerate(out["problems"]) for p in found]
    if bad:
        problems.append(f"invariants: stage {bad[0][0]}: {bad[0][1]}")
    if not report.exact or tuple(report.achieved) != tuple(column):
        problems.append(f"verify-marginals: {report.achieved} vs column {column}")
    branches = rd.branches()
    if sum((p for _, p in branches), Fraction(0)) != 1:
        problems.append("branch-mass: branch probabilities do not sum to one")
    achieved = [Fraction(0)] * len(column)
    for routing, prob in branches:
        for rank, res in enumerate(routing.assignment, start=1):
            if res is not None:
                achieved[res] += prob * _survival(dist, rank)
    if achieved != list(column):
        problems.append(f"branch-marginals: {achieved} vs column {column}")
    if tuple(rd.marginals()) != tuple(column):
        problems.append(f"compact-marginals: {rd.marginals()} vs column {column}")
    return problems


CHECK = {
    "trunc": check_trunc,
    "cond": check_cond,
    "prophet": check_prophet,
    "adversary": check_adversary,
    "horizon": check_horizon,
    "audit": check_audit,
}
