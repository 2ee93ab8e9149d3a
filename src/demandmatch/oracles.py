"""Ground-truth computations used to verify every guarantee at desk scale.

Everything here trades speed for being *right*: offline optima via the
transportation LP, expectations by exhausting the demand support, the
optimal online policy by backward induction, policy values by exact
expectation over the policy's own randomness, and adversarial orders by an
exact search over every interleaving.  That search is one forward pass over
the count vectors below the realization: an arrival's gain depends only on
the counts it arrives at, so the least value at each vector (or the mean,
for uniformly random orders) carries forward exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .demand import (
    Arrival,
    ArrivalSequence,
    DemandModel,
    Instance,
    RealizedDemand,
    StochasticHorizonModel,
    iter_demand_support,
    sample_demand,
    sample_random_order,
    trial_rng,
)
from .linprog import FEAS_TOL, LpStatus, Tableau, reoptimize
from .policies import HorizonPlan, IndepAdvPlan, run_threshold_trial
from .relaxations import transportation_lp

#: exact-expectation guardrails (keep the acceptance suite interactive), read at
#: call time: a larger demand support is sampled, a larger online DP refused
SUPPORT_CAP = 10**6
STATE_CAP = 10**7


@dataclass(frozen=True)
class OracleValue:
    """A computed benchmark value, labelled by how it was obtained."""

    value: float
    mode: str  # "exact" or "monte-carlo"
    stderr: float = 0.0
    trials: int = 0

    @classmethod
    def monte_carlo(cls, draw: Callable[[np.random.Generator], float], trials: int, seed: int) -> "OracleValue":
        """Sample mean and standard error of ``draw(trial_rng(seed, t))`` over trials ``t``."""
        return cls._of_trials([draw(trial_rng(seed, t)) for t in range(trials)], trials)

    @classmethod
    def _of_trials(cls, values: Sequence[float], trials: int) -> "OracleValue":
        if trials < 1:
            raise ValueError(f"a Monte-Carlo estimate needs at least one trial, got {trials}")
        stderr = float(np.std(values, ddof=1) / np.sqrt(trials)) if trials > 1 else float("inf")
        return cls(value=float(np.mean(values)), mode="monte-carlo", stderr=stderr, trials=trials)


def _over_demand(
    model: DemandModel,
    values_of: Callable[[list[tuple[int, ...]]], Sequence[float]],
    trials: int,
    seed: int,
) -> OracleValue:
    """E[value] over the demand law, where ``values_of`` values a list of
    realized counts at once: exact by enumerating a support that fits
    ``SUPPORT_CAP``, a seeded Monte-Carlo estimate beyond it, with every
    trial's counts drawn from its ``trial_rng`` stream before any is valued."""
    if model.support_size() <= SUPPORT_CAP:
        support = [(c, p) for c, prob in iter_demand_support(model) if (p := float(prob)) > 0.0]
        total = 0.0
        for (_, p), value in zip(support, values_of([c for c, _ in support])):
            total += p * value
        return OracleValue(value=total, mode="exact")
    draws = [sample_demand(model, trial_rng(seed, t)).counts for t in range(trials)]
    return OracleValue._of_trials(values_of(draws), trials)


def _offline_values(inst: Instance, realizations: Sequence[Sequence[int]]) -> list[float]:
    """The offline optimum of ``inst`` for each realized count vector, priced
    by basis on one tableau.  The first unpriced realization is set as the
    demand rhs and reoptimized from the last optimal basis (a fresh tableau's
    first solve is cold).  Reduced costs do not depend on the rhs, so that
    basis is optimal for every pending realization whose basic values
    ``B^-1 b`` are all >= -FEAS_TOL: one product prices them all."""
    tab = Tableau(transportation_lp(inst, [0] * inst.m))
    n = tab.objective.size
    rhs = np.array([(*inst.capacities, *counts) for counts in realizations], dtype=float)
    values = [0.0] * len(rhs)
    pending = np.arange(len(rhs))
    while pending.size:
        first, pending = pending[0], pending[1:]
        tab.set_rhs(rhs[first])
        solution = reoptimize(tab)
        if solution.status is not LpStatus.OPTIMAL:
            raise RuntimeError(f"offline transportation LP did not solve: {solution.status}")
        values[first] = solution.objective_value
        basic = rhs[pending] @ tab.T[:, n:].T
        optimal = (basic >= -FEAS_TOL).all(axis=1)
        basis = np.array(tab.basis)
        # contiguous rows of x, so each dot sums in the order reoptimize's does
        x = np.zeros((int(optimal.sum()), n))
        x[:, basis[basis < n]] = basic[optimal][:, basis < n]
        for k, xk in zip(pending[optimal], x):
            values[k] = float(tab.objective @ xk)
        pending = pending[~optimal]
    return values


def offline_optimum(inst: Instance, d: RealizedDemand) -> float:
    """Max-weight offline matching for one demand realization.

    Solved as the transportation LP (capacity rows and realized-count rows)
    on a fresh tableau of ``inst``; its constraint matrix is totally
    unimodular, so the LP value is attained by an integral matching.
    """
    if len(d.counts) != inst.m:
        raise ValueError(f"the realization has {len(d.counts)} types but the instance has {inst.m}")
    return _offline_values(inst, [d.counts])[0]


def expected_offline(inst: Instance, trials: int = 10**5, seed: int = 0) -> OracleValue:
    """E[offline optimum] over the demand law.

    Exact by support enumeration while the joint support fits under the cap;
    beyond that, a seeded Monte-Carlo estimate with its standard error.  Each
    optimal basis prices every realization it is optimal for, and only the
    first of the rest is reoptimized (the draws are all made first).
    """
    return _over_demand(inst.demand, lambda batch: _offline_values(inst, batch), trials, seed)


# ---------------------------------------------------------------------------
# optimal online policy for stochastic horizons
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DpResult:
    """Optimal online value plus the optimal decision table, built on first read.

    ``table[(t, caps)][j]`` is the resource chosen when type ``j`` arrives at
    step ``t`` with remaining capacities ``caps`` (None means reject); the first
    read reruns the induction on ``model`` and ``instance``.  Equality and
    ``repr`` read ``value`` only.
    """

    value: float
    model: StochasticHorizonModel = field(repr=False, compare=False)
    instance: Instance = field(repr=False, compare=False)

    @functools.cached_property
    def table(self) -> dict[tuple[int, tuple[int, ...]], tuple[Optional[int], ...]]:
        table: dict = {}
        _online_dp(self.model, self.instance, table)
        return table


def _capacity_lattice(capacities: Sequence[int]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every remaining-capacity vector, in ``itertools.product`` order, and
    each resource's mixed-radix stride: using a unit of resource ``i`` from
    the state at index ``s`` leads to the state at ``s - stride[i]``.  The
    full capacities are the last state."""
    strides = [1] * len(capacities)
    for i in range(len(capacities) - 1, 0, -1):
        strides[i - 1] = strides[i] * (capacities[i] + 1)
    return list(itertools.product(*(range(k + 1) for k in capacities))), strides


def optimal_online_dp(model: StochasticHorizonModel, inst: Instance) -> DpResult:
    """Backward induction over remaining capacities and the current step.

    The decision-maker observes only the arrival count (not absolute time)
    and the fact that the horizon has survived; continuation is weighted by
    the one-step survival odds Pr[D > t | D >= t].  Each step's values are a
    list over the integer-indexed capacity lattice of `_capacity_lattice`.
    The result's decision table is built when it is first read.
    """
    return DpResult(_online_dp(model, inst, None), model, inst)


def _online_dp(model: StochasticHorizonModel, inst: Instance, table: Optional[dict]) -> float:
    """`optimal_online_dp`'s value, recording each state's choices in ``table`` if given."""
    horizon = model.horizon
    cap_space = math.prod(k + 1 for k in inst.capacities)
    if cap_space * max(horizon, 1) > STATE_CAP:
        raise ValueError(f"state space {cap_space} x {horizon} exceeds the cap {STATE_CAP}")
    states, strides = _capacity_lattice(inst.capacities)
    rewards = [[float(r) for r in col] for col in zip(*inst.rewards)]  # [j][i]
    # per state: (resource, index of the state after using one of its units)
    arcs = [[(i, s - stride) for i, stride in enumerate(strides) if caps[i] > 0] for s, caps in enumerate(states)]
    value_next = [0.0] * len(states)
    for t in range(horizon, 0, -1):
        s_t = float(model.total.survival(t))
        s_next = float(model.total.survival(t + 1))
        continue_odds = s_next / s_t if s_t > 0 else 0.0
        probs = [float(p) for p in model.probs[t - 1]]
        no_query = float(model.no_query_mass(t))
        conts = [continue_odds * v for v in value_next]  # each state's value from the next step on
        value_next = []
        for caps, moves, cont in zip(states, arcs, conts):
            total = no_query * cont
            actions: Optional[list[Optional[int]]] = None if table is None else []
            for pj, r in zip(probs, rewards):
                best = cont
                pick: Optional[int] = None
                for i, reduced in moves:
                    gain = r[i] + conts[reduced]
                    if gain > best + 1e-12:
                        best = gain
                        pick = i
                if actions is not None:
                    actions.append(pick)
                total += pj * best
            value_next.append(total)
            if actions is not None:
                table[(t, caps)] = tuple(actions)
    return float(model.total.survival(1)) * value_next[-1]


# ---------------------------------------------------------------------------
# exact evaluation of the threshold policy
# ---------------------------------------------------------------------------


#: ``steps[j][rank-1]``: ``(i, r[i][j] * p)`` per resource the arrival reaches
_Steps = list[list[list[tuple[int, float]]]]
#: ``mass[j][c][i]``: type ``j``'s delivered mass at ``i`` after ``c`` arrivals
_Mass = list[list[tuple[float, ...]]]


def _step_table(plan: IndepAdvPlan, counts: Sequence[int]) -> tuple[_Steps, _Mass]:
    """Each rank's steps: every resource ``i`` that type ``j`` qualifies for
    and that is routed the rank with probability ``p > 0``, with its reward
    times ``p``; and each type's delivered mass per resource after each rank,
    summed in rank order."""
    steps: _Steps = []
    mass: _Mass = []
    for j, count in enumerate(counts):
        rd, delivered = plan.routings[j], [0.0] * plan.n
        quals = [i for i in range(plan.n) if plan.qualifies(i, j)]
        steps.append([])
        mass.append([tuple(delivered)])
        for rank in range(count):
            step = []
            for i in quals if rank < rd.length else ():
                p = float(rd.rank_probs[i][rank])
                if p > 0.0:
                    delivered[i] += p
                    step.append((i, float(plan.instance.rewards[i][j]) * p))
            steps[j].append(step)
            mass[j].append(tuple(delivered))
    return steps, mass


def _advance(steps: _Steps, mass: _Mass, c: Sequence[int], j: int, value: float) -> float:
    """One arrival of type ``j`` after a prefix with counts ``c``: each
    resource it reaches adds its reward times the delivery probability times
    the chance no other type was delivered there first."""
    for i, rp in steps[j][c[j]]:
        blocked = 1.0
        for other, by_count in enumerate(mass):
            if other != j:
                blocked *= 1.0 - by_count[c[other]][i]
        value += rp * blocked
    return value


def _search_orders(
    plan: IndepAdvPlan, counts: Sequence[int], worst: bool
) -> tuple[tuple[int, ...], float]:
    """The worst order and its value, or ``()`` and the mean value over
    uniformly random orders: one forward pass over the count vectors
    ``0 <= c <= counts``, layer by layer by ``|c|``.

    What an arrival adds depends only on the counts it arrives at, and float
    addition is monotone in its running sum, so the least ``(value, prefix)``
    at each vector leads to the least over all orders.  The mean pushes
    ``(probability, probability-weighted value)`` forward; the next type is
    ``j`` with probability ``(d_j - c_j) / (arrivals left)``."""
    steps, mass = _step_table(plan, counts)
    layer: dict[tuple[int, ...], tuple] = {(0,) * len(counts): (0.0, ()) if worst else (1.0, 0.0)}
    for left in range(sum(counts), 0, -1):
        nxt: dict[tuple[int, ...], tuple] = {}
        for c, state in layer.items():
            for j, dj in enumerate(counts):
                if c[j] == dj:
                    continue
                e = c[:j] + (c[j] + 1,) + c[j + 1 :]
                if worst:
                    value, prefix = state
                    found = (_advance(steps, mass, c, j, value), prefix + (j,))
                    if e not in nxt or found < nxt[e]:
                        nxt[e] = found
                else:
                    prob, weighted = state
                    q = (dj - c[j]) / left
                    gain = prob * _advance(steps, mass, c, j, 0.0)
                    p0, w0 = nxt.get(e, (0.0, 0.0))
                    nxt[e] = (p0 + q * prob, w0 + q * (weighted + gain))
        layer = nxt
    ((first, second),) = layer.values()
    return (second, first) if worst else ((), second)


def worst_case_order(plan: IndepAdvPlan, d: RealizedDemand) -> tuple[ArrivalSequence, float]:
    """Adversarial interleaving for one realization: the exact float minimum
    over every order, found by a forward pass over the count vectors.

    The adversary knows the realization and the policy but not its coins, so
    it minimizes the coin-expected value.  Ties between prefixes with the same
    counts keep the lexicographically smaller prefix, so when minimal orders
    tie at every prefix, the first in lexicographic order is returned.
    """
    if len(d.counts) != plan.m:
        raise ValueError(f"the realization has {len(d.counts)} types but the plan has {plan.m}")
    order, value = _search_orders(plan, d.counts, worst=True)
    return ArrivalSequence(types=order), value


def exact_policy_value(plan: IndepAdvPlan, trials: int = 10**5, seed: int = 0) -> OracleValue:
    """Expected threshold-policy value over the policy's own randomness.

    Each realization's orders are minimized, or averaged if the plan's
    instance arrives in random order, by one forward pass over its count
    vectors.  The expectation over the demand law is exact while the support
    fits the cap and Monte-Carlo beyond it, with each distinct realization
    evaluated once.  Horizon plans have their value in :func:`horizon_policy_value`.
    """
    worst = plan.instance.arrival is Arrival.ADVERSARIAL

    @functools.cache
    def value_for(counts: tuple[int, ...]) -> float:
        return _search_orders(plan, counts, worst)[1]

    return _over_demand(plan.instance.demand, lambda batch: [*map(value_for, batch)], trials, seed)


def mc_policy_value(plan: IndepAdvPlan, trials: int, seed: int = 0) -> OracleValue:
    """Monte-Carlo threshold-policy value with full path simulation.

    Samples the demand, picks the order the plan's instance arrives in (the
    exact adversarial one of :func:`worst_case_order`, cached per realization,
    or a uniform shuffle), samples the routings, and walks the path.
    Converges to the exact value as trials grow.
    """
    worst = plan.instance.arrival is Arrival.ADVERSARIAL

    @functools.cache
    def worst_path(d: RealizedDemand) -> tuple[int, ...]:
        return worst_case_order(plan, d)[0].types

    def draw(rng: np.random.Generator) -> float:
        d = sample_demand(plan.instance.demand, rng)
        path = worst_path(d) if worst else sample_random_order(d, rng).types
        return run_threshold_trial(plan, path, rng)

    return OracleValue.monte_carlo(draw, trials, seed)


# ---------------------------------------------------------------------------
# exact evaluation of the horizon policy
# ---------------------------------------------------------------------------


def horizon_policy_value(plan: HorizonPlan) -> OracleValue:
    """Exact horizon-policy value by a forward pass over capacity states.

    Independent of the plan's own closed-form accounting: the joint law of
    remaining capacities, keyed by the state's index on the integer lattice
    of `_capacity_lattice`, is pushed through every step, splitting on the
    arriving type, the routing coin, and the acceptance coin.
    """
    inst = plan.instance
    model = plan.model
    n, m = inst.n, inst.m
    lattice, strides = _capacity_lattice(inst.capacities)
    states: dict[int, float] = {len(lattice) - 1: 1.0}
    rewards = [[float(r) for r in row] for row in inst.rewards]
    value = 0.0
    for t in range(1, plan.horizon + 1):
        s_t = float(model.total.survival(t))
        row = [float(p) for p in model.probs[t - 1]]
        route = plan.route[t - 1].tolist()  # [i][j]
        accepts = [p.accept_probs[t - 1] for p in plan.plans]
        arcs = [  # (resource, its stride, chance it accepts, reward) for each arrival type in turn
            (i, strides[i], accept, rewards[i][j])
            for j in range(m) if row[j] > 0.0 for i in range(n) if route[i][j] > 0.0
            if (accept := row[j] * route[i][j] * accepts[i]) > 0.0
        ]
        nxt: dict[int, float] = {}
        for s, w in states.items():
            caps = lattice[s]
            moved = 0.0  # probability mass that accepts (consumes capacity)
            for i, stride, accept, reward in arcs:
                if caps[i] > 0:
                    value += s_t * w * accept * reward
                    if (wa := w * accept) > 0.0:
                        nxt[s - stride] = nxt.get(s - stride, 0.0) + wa
                    moved += accept
            if (stay := w * (1.0 - moved)) > 0.0:
                nxt[s] = nxt.get(s, 0.0) + stay
        states = nxt
    return OracleValue(value=value, mode="exact")
