"""Ground-truth computations used to verify every guarantee at desk scale.

Everything here trades speed for being *right*: offline optima via the
transportation LP, expectations by exhausting the demand support, the
optimal online policy by backward induction, policy values by exact
expectation over the policy's own randomness, and adversarial orders by
enumerating every interleaving.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .demand import (
    ArrivalSequence,
    Instance,
    RealizedDemand,
    StochasticHorizonModel,
    demand_support_size,
    iter_demand_support,
    iter_orders,
    order_count,
    sample_demand,
    trial_rng,
)
from .linprog import LpStatus, solve_lp
from .policies import HorizonPlan, IndepAdvPlan, run_threshold_trial
from .relaxations import transportation_lp

#: exact-expectation guardrails (keep the acceptance suite interactive)
SUPPORT_CAP = 10**6
ORDER_CAP = 10**5
STATE_CAP = 10**7


@dataclass(frozen=True)
class OracleValue:
    """A computed benchmark value, labelled by how it was obtained."""

    value: float
    mode: str  # "exact" or "monte-carlo"
    stderr: float = 0.0
    trials: int = 0

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "OracleValue":
        """Monte-Carlo estimate: the sample mean and its standard error."""
        trials = values.size
        stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
        return cls(value=float(values.mean()), mode="monte-carlo", stderr=stderr, trials=trials)


def offline_optimum(inst: Instance, d: Union[RealizedDemand, Sequence[int]]) -> float:
    """Max-weight offline matching for one demand realization.

    Solved as the transportation LP (capacity rows and realized-count rows);
    its constraint matrix is totally unimodular, so the LP value is attained
    by an integral matching.
    """
    counts = d.counts if isinstance(d, RealizedDemand) else tuple(d)
    if sum(counts) == 0:
        return 0.0
    solution = solve_lp(transportation_lp(inst, counts))
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"offline transportation LP did not solve: {solution.status}")
    return solution.objective_value


def expected_offline(
    inst: Instance,
    support_cap: int = SUPPORT_CAP,
    trials: int = 10**5,
    seed: int = 0,
) -> OracleValue:
    """E[offline optimum] over the demand law.

    Exact by support enumeration while the joint support fits under the cap;
    beyond that, a seeded Monte-Carlo estimate with its standard error.
    """
    if demand_support_size(inst.demand) <= support_cap:
        total = 0.0
        for counts, prob in iter_demand_support(inst.demand):
            p = float(prob)
            if p > 0.0:
                total += p * offline_optimum(inst, counts)
        return OracleValue(value=total, mode="exact")
    values = np.empty(trials)
    for t in range(trials):
        values[t] = offline_optimum(inst, sample_demand(inst.demand, trial_rng(seed, t)))
    return OracleValue.from_samples(values)


# ---------------------------------------------------------------------------
# optimal online policy for stochastic horizons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpResult:
    """Optimal online value plus the optimal decision table.

    ``table[(t, caps)][j]`` is the resource chosen when type ``j`` arrives at
    step ``t`` with remaining capacities ``caps`` (None means reject).
    """

    value: float
    table: dict[tuple[int, tuple[int, ...]], tuple[Optional[int], ...]]


def optimal_online_dp(
    model: StochasticHorizonModel, inst: Instance, state_cap: int = STATE_CAP
) -> DpResult:
    """Backward induction over remaining capacities and the current step.

    The decision-maker observes only the arrival count (not absolute time)
    and the fact that the horizon has survived; continuation is weighted by
    the one-step survival odds Pr[D > t | D >= t].
    """
    n = inst.n
    horizon = model.horizon
    cap_space = 1
    for k in inst.capacities:
        cap_space *= k + 1
    if cap_space * max(horizon, 1) > state_cap:
        raise ValueError(
            f"state space {cap_space} x {horizon} exceeds the cap {state_cap}"
        )
    states = list(itertools.product(*(range(k + 1) for k in inst.capacities)))
    value_next: dict[tuple[int, ...], float] = {caps: 0.0 for caps in states}
    table: dict[tuple[int, tuple[int, ...]], tuple[Optional[int], ...]] = {}
    for t in range(horizon, 0, -1):
        s_t = float(model.total.survival(t))
        s_next = float(model.total.survival(t + 1))
        continue_odds = s_next / s_t if s_t > 0 else 0.0
        row = model.probs[t - 1]
        no_query = float(model.no_query_mass(t))
        value_here: dict[tuple[int, ...], float] = {}
        for caps in states:
            cont = continue_odds * value_next[caps]
            total = no_query * cont
            actions: list[Optional[int]] = []
            for j, p in enumerate(row):
                pj = float(p)
                best = cont
                pick: Optional[int] = None
                for i in range(n):
                    if caps[i] > 0:
                        reduced = caps[:i] + (caps[i] - 1,) + caps[i + 1 :]
                        gain = float(inst.rewards[i][j]) + continue_odds * value_next[reduced]
                        if gain > best + 1e-12:
                            best = gain
                            pick = i
                actions.append(pick)
                total += pj * best
            value_here[caps] = total
            table[(t, caps)] = tuple(actions)
        value_next = value_here
    start = tuple(inst.capacities)
    opening = float(model.total.survival(1))
    return DpResult(value=opening * value_next[start], table=table)


# ---------------------------------------------------------------------------
# exact evaluation of the threshold policy
# ---------------------------------------------------------------------------


def threshold_value_for_order(plan: IndepAdvPlan, order: Sequence[int]) -> float:
    """Exact expected reward of the threshold policy along one arrival order.

    The expectation over the policy's routing randomness factorizes per
    resource: a resource collects the reward of the first *qualifying*
    arrival routed to it.  Within a type the routing targets distinct ranks,
    so delivery events are mutually exclusive; across types the routings are
    independent.  Walking the order position by position and tracking, per
    resource, each type's accumulated qualifying-delivery probability gives
    the exact value in O(len(order) * n * m).
    """
    n, m = plan.n, plan.m
    q = [plan.routings[j].rank_probs() for j in range(m)]
    qualifies = [[plan.qualifies(i, j) for j in range(m)] for i in range(n)]
    delivered = [[0.0] * m for _ in range(n)]  # qualifying mass seen so far
    counters = [0] * m
    value = 0.0
    for j in order:
        counters[j] += 1
        rank = counters[j]
        for i in range(n):
            if not qualifies[i][j]:
                continue
            p_deliver = float(q[j][i][rank - 1]) if rank <= plan.routings[j].length else 0.0
            if p_deliver <= 0.0:
                continue
            blocked = 1.0
            for other in range(m):
                if other != j:
                    blocked *= 1.0 - delivered[i][other]
            value += float(plan.instance.rewards[i][j]) * p_deliver * blocked
            delivered[i][j] += p_deliver
    return value


def worst_case_order(
    plan: IndepAdvPlan, d: RealizedDemand, order_cap: int = ORDER_CAP
) -> tuple[ArrivalSequence, float]:
    """Adversarial interleaving for one realization: exhaustive minimum.

    The adversary knows the realization and the policy but not its coins, so
    it minimizes the coin-expected value.  Ties break on the first order in
    lexicographic enumeration, keeping the result deterministic.
    """
    count = order_count(d)
    if count > order_cap:
        raise ValueError(f"|S(d)| = {count} exceeds the enumeration cap {order_cap}")
    best_order: Optional[tuple[int, ...]] = None
    best_value = float("inf")
    for order in iter_orders(d):
        value = threshold_value_for_order(plan, order)
        if value < best_value - 1e-15:
            best_value = value
            best_order = order
    if best_order is None:  # no arrivals at all
        return ArrivalSequence(types=()), 0.0
    return ArrivalSequence(types=best_order), best_value


def exact_policy_value(
    plan: Union[IndepAdvPlan, HorizonPlan],
    order: str = "worst",
    support_cap: int = SUPPORT_CAP,
    order_cap: int = ORDER_CAP,
    trials: int = 10**5,
    seed: int = 0,
) -> OracleValue:
    """Expected policy value over the policy's own randomness.

    Threshold plans: exact when the demand support fits the cap (each
    realization's order set is enumerated and minimized under ``worst`` or
    averaged under ``random``); otherwise Monte-Carlo over demand
    realizations with the per-realization order handling unchanged.
    Horizon plans: always exact (the arrival process is part of the model,
    so ``order`` is ignored).
    """
    if isinstance(plan, HorizonPlan):
        return horizon_policy_value(plan)
    if order not in ("worst", "random"):
        raise ValueError(f"order must be 'worst' or 'random', got {order!r}")
    model = plan.instance.demand

    def value_for(counts: tuple[int, ...]) -> float:
        d = RealizedDemand(counts)
        if sum(counts) == 0:
            return 0.0
        if order == "worst":
            return worst_case_order(plan, d, order_cap)[1]
        total = 0.0
        norm = 0
        for arrival in iter_orders(d):
            total += threshold_value_for_order(plan, arrival)
            norm += 1
            if norm > order_cap:
                raise ValueError(f"|S(d)| exceeds the enumeration cap {order_cap}")
        return total / norm

    if demand_support_size(model) <= support_cap:
        total = 0.0
        for counts, prob in iter_demand_support(model):
            p = float(prob)
            if p > 0.0:
                total += p * value_for(counts)
        return OracleValue(value=total, mode="exact")

    cache: dict[tuple[int, ...], float] = {}
    values = np.empty(trials)
    for trial in range(trials):
        counts = sample_demand(model, trial_rng(seed, trial)).counts
        if counts not in cache:
            cache[counts] = value_for(counts)
        values[trial] = cache[counts]
    return OracleValue.from_samples(values)


def mc_policy_value(
    plan: IndepAdvPlan,
    trials: int,
    seed: int = 0,
    order: str = "worst",
    order_cap: int = ORDER_CAP,
) -> OracleValue:
    """Monte-Carlo threshold-policy value with full path simulation.

    Samples the demand, picks the arrival order (the exact adversarial one,
    cached per realization, or a uniform shuffle), samples the routings, and
    walks the path.  Converges to the exact value as trials grow.
    """
    from .demand import sample_random_order

    model = plan.instance.demand
    worst_orders: dict[tuple[int, ...], tuple[int, ...]] = {}
    values = np.empty(trials)
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        d = sample_demand(model, rng)
        if order == "worst":
            if d.counts not in worst_orders:
                worst_orders[d.counts] = worst_case_order(plan, d, order_cap)[0].types
            path = worst_orders[d.counts]
        else:
            path = sample_random_order(d, rng).types
        values[trial] = run_threshold_trial(plan, path, rng)
    return OracleValue.from_samples(values)


# ---------------------------------------------------------------------------
# exact evaluation of the horizon policy
# ---------------------------------------------------------------------------


def horizon_policy_value(plan: HorizonPlan) -> OracleValue:
    """Exact horizon-policy value by a forward pass over capacity states.

    Independent of the plan's own closed-form accounting: the joint law of
    remaining capacities is pushed through every step, splitting on the
    arriving type, the routing coin, and the acceptance coin.
    """
    inst = plan.instance
    model = plan.model
    n, m = inst.n, inst.m
    states: dict[tuple[int, ...], float] = {tuple(inst.capacities): 1.0}
    value = 0.0
    for t in range(1, plan.horizon + 1):
        s_t = float(model.total.survival(t))
        row = model.probs[t - 1]
        nxt: dict[tuple[int, ...], float] = {}

        def push(caps: tuple[int, ...], w: float) -> None:
            if w > 0.0:
                nxt[caps] = nxt.get(caps, 0.0) + w

        for caps, w in states.items():
            moved = 0.0  # probability mass that accepts (consumes capacity)
            for j in range(m):
                pj = float(row[j])
                if pj <= 0.0:
                    continue
                for i in range(n):
                    if caps[i] == 0:
                        continue
                    rho = plan.routing_prob(t, i, j)
                    if rho <= 0.0:
                        continue
                    accept = pj * rho * plan.plans[i].accept_probs[t - 1]
                    if accept > 0.0:
                        value += s_t * w * accept * float(inst.rewards[i][j])
                        push(caps[:i] + (caps[i] - 1,) + caps[i + 1 :], w * accept)
                        moved += accept
            push(caps, w * (1.0 - moved))
        states = nxt
    return OracleValue(value=value, mode="exact")
