"""Ground-truth computations used to verify every guarantee at desk scale.

Everything here trades speed for being *right*: offline optima via the
transportation LP, expectations by exhausting the demand support, the
optimal online policy by backward induction, policy values by exact
expectation over the policy's own randomness, and adversarial orders by
enumerating every interleaving.  The interleavings are walked depth first,
valuing each shared prefix once; the worst-order search skips a prefix whose
value already fails to beat the best order, which is exact whenever values
cannot fall along an order (checked on every call, else nothing is skipped).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .demand import (
    ArrivalSequence,
    DemandModel,
    Instance,
    RealizedDemand,
    StochasticHorizonModel,
    demand_support_size,
    iter_demand_support,
    order_count,
    sample_demand,
    sample_random_order,
    trial_rng,
)
from .linprog import LpStatus, Tableau, reoptimize, solve_lp
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
    def monte_carlo(
        cls, draw: Callable[[np.random.Generator], float], trials: int, seed: int
    ) -> "OracleValue":
        """Sample mean and standard error of ``draw(trial_rng(seed, t))`` over
        trials ``t``: the one place that draws the seeded trial streams."""
        if trials < 1:
            raise ValueError(f"a Monte-Carlo estimate needs at least one trial, got {trials}")
        values = np.empty(trials)
        for t in range(trials):
            values[t] = draw(trial_rng(seed, t))
        stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
        return cls(value=float(values.mean()), mode="monte-carlo", stderr=stderr, trials=trials)


def _over_demand(
    model: DemandModel,
    value_of: Callable[[tuple[int, ...]], float],
    support_cap: int,
    trials: int,
    seed: int,
) -> OracleValue:
    """E[value_of(counts)] over the demand law: exact by enumerating a support
    that fits the cap, a seeded Monte-Carlo estimate beyond it."""
    if demand_support_size(model) <= support_cap:
        total = 0.0
        for counts, prob in iter_demand_support(model):
            p = float(prob)
            if p > 0.0:
                total += p * value_of(counts)
        return OracleValue(value=total, mode="exact")
    return OracleValue.monte_carlo(
        lambda rng: value_of(sample_demand(model, rng).counts), trials, seed
    )


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
    Either way one transportation tableau serves the whole instance: each
    realization only sets its counts as the demand rhs and reoptimizes from
    the previous optimal basis by dual simplex.
    """
    tab = Tableau(transportation_lp(inst, [0] * inst.m))

    def offline(counts: Sequence[int]) -> float:
        tab.set_rhs([*inst.capacities, *counts])
        solution = reoptimize(tab)
        if solution.status is not LpStatus.OPTIMAL:
            raise RuntimeError(f"offline transportation LP did not solve: {solution.status}")
        return solution.objective_value

    return _over_demand(inst.demand, offline, support_cap, trials, seed)


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
    rewards = [[float(r) for r in col] for col in zip(*inst.rewards)]  # [j][i]
    moves = {
        caps: [(i, caps[:i] + (caps[i] - 1,) + caps[i + 1 :]) for i in range(n) if caps[i] > 0]
        for caps in states
    }
    value_next: dict[tuple[int, ...], float] = {caps: 0.0 for caps in states}
    table: dict[tuple[int, tuple[int, ...]], tuple[Optional[int], ...]] = {}
    for t in range(horizon, 0, -1):
        s_t = float(model.total.survival(t))
        s_next = float(model.total.survival(t + 1))
        continue_odds = s_next / s_t if s_t > 0 else 0.0
        probs = [float(p) for p in model.probs[t - 1]]
        no_query = float(model.no_query_mass(t))
        value_here: dict[tuple[int, ...], float] = {}
        for caps in states:
            cont = continue_odds * value_next[caps]
            total = no_query * cont
            ahead = [(i, continue_odds * value_next[reduced]) for i, reduced in moves[caps]]
            actions: list[Optional[int]] = []
            for pj, r in zip(probs, rewards):
                best = cont
                pick: Optional[int] = None
                for i, later in ahead:
                    gain = r[i] + later
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


#: per resource an arrival reaches: ``(i, r[i][j] * p, delivered before, after)``
_Step = list[tuple[int, float, float, float]]


def _step_table(plan: IndepAdvPlan, counts: Sequence[int]) -> list[list[_Step]]:
    """``table[j][rank-1]``: each resource ``i`` that type ``j`` qualifies for
    and that is routed the rank with probability ``p > 0``, and the mass of
    type ``j`` delivered to ``i``, summed in rank order, around that rank."""
    table: list[list[_Step]] = []
    for j, count in enumerate(counts):
        rd, mass = plan.routings[j], [0.0] * plan.n
        quals = [i for i in range(plan.n) if plan.qualifies(i, j)]
        table.append([])
        for rank in range(count):
            step = []
            for i in quals if rank < rd.length else ():
                p = float(rd.rank_probs[i][rank])
                if p > 0.0:
                    before, mass[i] = mass[i], mass[i] + p
                    step.append((i, float(plan.instance.rewards[i][j]) * p, before, mass[i]))
            table[j].append(step)
    return table


def _advance(step: _Step, delivered: list[list[float]], j: int, value: float) -> float:
    """One arrival of type ``j``: each resource it reaches adds its reward times
    the delivery probability times the chance no other type was delivered
    there first, then records the delivered mass."""
    for i, rp, _, after in step:
        row = delivered[i]
        blocked = 1.0
        for other, mass in enumerate(row):
            if other != j:
                blocked *= 1.0 - mass
        value += rp * blocked
        row[j] = after
    return value


def _search_orders(
    plan: IndepAdvPlan, counts: Sequence[int], order_cap: int, worst: bool
) -> tuple[tuple[int, ...], float]:
    """The worst order (the first below the best so far by more than 1e-15)
    and its value, or ``()`` and the mean value over all orders: one
    depth-first walk over the distinct orders in lexicographic order, with an
    explicit stack, that values each shared prefix once."""
    count = order_count(RealizedDemand(tuple(counts)))
    if count > order_cap:
        raise ValueError(f"|S(d)| = {count} exceeds the enumeration cap {order_cap}")
    table = _step_table(plan, counts)
    # Every increment ``rp * blocked`` is >= 0 when every ``rp`` is (Instance
    # rejects negative rewards) and every ``1 - delivered`` is, which holds
    # when every delivered mass the table can set is at most one.  Float
    # addition of a nonnegative term never decreases a sum, so a prefix's
    # value is then a lower bound on every completion's value, and a prefix
    # that already fails ``< best - 1e-15`` cannot lead to a new best:
    # skipping it is exact.
    prune = worst and all(
        rp >= 0.0 and after <= 1.0 for steps in table for step in steps for _, rp, _, after in step
    )
    delivered = [[0.0] * plan.m for _ in range(plan.n)]
    remaining = list(counts)
    depth = sum(counts)
    prefix: list[int] = []
    best, best_order, total = float("inf"), (), 0.0
    stack = [[0.0, 0]]  # per prefix length: the prefix's value, the next type to try
    while True:
        frame = stack[-1]
        value, j = frame
        while j < len(remaining) and remaining[j] == 0:
            j += 1
        if j < len(remaining):
            frame[1] = j + 1
            step = table[j][counts[j] - remaining[j]]
            after = _advance(step, delivered, j, value)
            if not prune or after < best - 1e-15:  # the safe bound above
                remaining[j] -= 1
                prefix.append(j)
                stack.append([after, 0])
                continue
        else:
            stack.pop()
            if len(prefix) == depth:
                if not worst:
                    total += value
                elif value < best - 1e-15:
                    best, best_order = value, tuple(prefix)
            if not prefix:
                break
            j = prefix.pop()
            remaining[j] += 1
            step = table[j][counts[j] - remaining[j]]
        for i, _, before, _ in step:
            delivered[i][j] = before
    return (best_order, best) if worst else ((), total / count)


def worst_case_order(
    plan: IndepAdvPlan, d: RealizedDemand, order_cap: int = ORDER_CAP
) -> tuple[ArrivalSequence, float]:
    """Adversarial interleaving for one realization: exhaustive minimum.

    The adversary knows the realization and the policy but not its coins, so
    it minimizes the coin-expected value.  Ties break on the first order in
    lexicographic enumeration, keeping the result deterministic.
    """
    order, value = _search_orders(plan, d.counts, order_cap, worst=True)
    return ArrivalSequence(types=order), value


def exact_policy_value(
    plan: IndepAdvPlan,
    order: str = "worst",
    support_cap: int = SUPPORT_CAP,
    order_cap: int = ORDER_CAP,
    trials: int = 10**5,
    seed: int = 0,
) -> OracleValue:
    """Expected threshold-policy value over the policy's own randomness.

    Each realization's order set is enumerated and minimized under ``worst``
    or averaged under ``random``.  The expectation over the demand law is
    exact while the support fits the cap and Monte-Carlo beyond it, with each
    distinct realization evaluated once.  Horizon plans have their exact
    value in :func:`horizon_policy_value`.
    """
    if order not in ("worst", "random"):
        raise ValueError(f"order must be 'worst' or 'random', got {order!r}")

    def value_for(counts: tuple[int, ...]) -> float:
        return _search_orders(plan, counts, order_cap, worst=order == "worst")[1]

    return _over_demand(
        plan.instance.demand, functools.cache(value_for), support_cap, trials, seed
    )


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
    if order not in ("worst", "random"):
        raise ValueError(f"order must be 'worst' or 'random', got {order!r}")

    @functools.cache
    def worst_path(d: RealizedDemand) -> tuple[int, ...]:
        return worst_case_order(plan, d, order_cap)[0].types

    def draw(rng: np.random.Generator) -> float:
        d = sample_demand(plan.instance.demand, rng)
        path = worst_path(d) if order == "worst" else sample_random_order(d, rng).types
        return run_threshold_trial(plan, path, rng)

    return OracleValue.monte_carlo(draw, trials, seed)


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
    rewards = [[float(r) for r in row] for row in inst.rewards]
    value = 0.0
    for t in range(1, plan.horizon + 1):
        s_t = float(model.total.survival(t))
        row = [float(p) for p in model.probs[t - 1]]
        route = plan.route[t - 1].tolist()  # [i][j]
        accepts = [p.accept_probs[t - 1] for p in plan.plans]
        arcs = [  # (resource, chance it accepts, reward) for each arrival type in turn
            (i, row[j] * route[i][j] * accepts[i], rewards[i][j])
            for j in range(m) if row[j] > 0.0 for i in range(n) if route[i][j] > 0.0
        ]
        nxt: dict[tuple[int, ...], float] = {}

        def push(caps: tuple[int, ...], w: float) -> None:
            if w > 0.0:
                nxt[caps] = nxt.get(caps, 0.0) + w

        for caps, w in states.items():
            moved = 0.0  # probability mass that accepts (consumes capacity)
            for i, accept, reward in arcs:
                if caps[i] > 0 and accept > 0.0:
                    value += s_t * w * accept * reward
                    push(caps[:i] + (caps[i] - 1,) + caps[i + 1 :], w * accept)
                    moved += accept
            push(caps, w * (1.0 - moved))
        states = nxt
    return OracleValue(value=value, mode="exact")
