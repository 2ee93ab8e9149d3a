"""Plain reference forms of library checks, for the tests to compare against,
and the instance draws that only the tests use."""

import dataclasses
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from demandmatch.demand import (
    Arrival,
    CorrelDemandModel,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    Prob,
    RealizedDemand,
    StochasticHorizonModel,
)
from demandmatch.experiments import ExperimentConfig, _rewards, _rounded_probs, gen_counterexample
from demandmatch.linprog import _BLOCK_CELLS, DEGENERATE_TOL, LinearProgram, Tableau
from demandmatch.oracles import _advance, _step_table
from demandmatch.policies import OCRS_TOL, HorizonPlan, IndepAdvPlan, OcrsPlan
from demandmatch.relaxations import CUT_TOL, Cut
from demandmatch.rounding import COLUMN_SLACK, RoundingState, Routing, RoutingDistribution, _apply_decision


def under_random_order(plan: IndepAdvPlan) -> IndepAdvPlan:
    """``plan`` over a copy of its instance whose arrivals come in uniformly
    random order, which the policy oracles then average over."""
    instance = dataclasses.replace(plan.instance, arrival=Arrival.RANDOM_ORDER)
    return dataclasses.replace(plan, instance=instance)


def config_from_generator(
    name: str,
    params,
    policy: str,
    benchmark: str,
    trials: int = 1,
    seed: int = 0,
    exact: bool = True,
) -> ExperimentConfig:
    """A ratio experiment on the instance family ``name`` at ``params``."""
    tag = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return ExperimentConfig(
        instance_id=f"{name}({tag})",
        policy=policy,
        benchmark=benchmark,
        instance=gen_counterexample(name, params),
        generator=name,
        params=dict(params),
        trials=trials,
        seed=seed,
        exact=exact,
    )


def is_feasible(lp: LinearProgram, values, tol: float = 1e-9) -> bool:
    """Whether a point satisfies ``x >= 0`` and ``rows @ x <= rhs`` up to ``tol``."""
    x = np.asarray(values, dtype=float)
    return bool(np.all(x >= -tol) and np.all(lp.rows @ x <= lp.rhs + tol))


def blocked_pivot(tab: Tableau, row: int, col: int, factors: np.ndarray) -> None:
    """``Tableau._pivot`` with the blocked update it replaced: the entering
    column is read again after the row division (``factors`` is ignored), and
    above ``_BLOCK_CELLS`` cells the changed rows are gathered in blocks,
    updated through an outer-product temporary and scattered back."""
    A, r = tab._aug, row + 1
    A[r] /= A[r, col + 1]
    factors = A[:, col + 1].copy()
    factors[r] = 0.0
    gain = factors[0] * A[r, 0]
    if A.size <= _BLOCK_CELLS:
        A -= np.outer(factors, A[r])
    else:
        nz = np.nonzero(factors)[0]
        step = max(1, _BLOCK_CELLS // A.shape[1])
        for start in range(0, nz.size, step):
            rows = nz[start : start + step]
            A[rows] -= np.outer(factors[rows], A[r])
    tab.basis[row] = col
    if abs(gain) <= DEGENERATE_TOL:
        tab.degenerate_run += 1
        tab.stats.degenerate_pivots += 1
        if tab.degenerate_run >= tab.bland_after and not tab.bland:
            tab.bland = True
            tab.stats.bland_switches += 1
    else:
        tab.degenerate_run = 0
        tab.bland = False


def knapsack_cuts(x, inst: Instance, tol: float = CUT_TOL) -> list[Cut]:
    """Each violated type's best cut by a 0/1 knapsack per type (weight
    ``k_i``, value ``x[i,j]``) and a scan over the budgets, recovering each
    violated budget's subset; its violation is the load summed in index order
    less ``E[min(D_j, weight)]``.  Independent of the sort in the library."""
    n, m, caps = inst.n, inst.m, inst.capacities
    total_cap = sum(caps)
    cuts = []
    for j in range(m):
        marginal = inst.demand.marginal(j)
        values = [float(x[i * m + j]) for i in range(n)]
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
        best = None
        for k in range(1, total_cap + 1):
            if float(dp[k]) - float(marginal.truncated_expectation(k)) <= tol:
                continue
            subset = _recover_subset(take, caps, k)
            load = sum(values[i] for i in subset)
            bound = float(marginal.truncated_expectation(sum(caps[i] for i in subset)))
            violation = load - bound
            if violation > tol and (best is None or violation > best.violation):
                best = Cut(type_index=j, subset=subset, rhs=bound, violation=violation)
        if best is not None:
            cuts.append(best)
    return cuts


def _recover_subset(take: np.ndarray, caps: Sequence[int], budget: int) -> tuple[int, ...]:
    chosen: list[int] = []
    c = budget
    for i in range(take.shape[0] - 1, -1, -1):
        if take[i, c]:
            chosen.append(i)
            c -= caps[i]
    return tuple(sorted(chosen))


def density_prefix_cuts(x, inst: Instance, tol: float = CUT_TOL) -> list[Cut]:
    """The separation oracle's tie rule, one type at a time in plain Python:
    resources by density ``x[i,j] / k_i``, highest first and ties in index
    order; each violated type's cut is its first prefix of largest violation."""
    n, m, caps = inst.n, inst.m, inst.capacities
    cuts = []
    for j in range(m):
        marginal = inst.demand.marginal(j)
        order = sorted(range(n), key=lambda i: float(x[i * m + j]) / caps[i], reverse=True)
        load, weight, best = 0.0, 0, None
        for size, i in enumerate(order, start=1):
            load += float(x[i * m + j])
            weight += caps[i]
            bound = float(marginal.truncated_expectation(weight))
            if best is None or load - bound > best[0]:
                best = (load - bound, size, bound)
        violation, size, bound = best
        if violation > tol:
            cuts.append(Cut(type_index=j, subset=tuple(sorted(order[:size])), rhs=bound, violation=violation))
    return cuts


def first_largest(cuts: Sequence[Cut]):
    """The first cut of largest violation, or None."""
    best = None
    for cut in cuts:
        if best is None or cut.violation > best.violation:
            best = cut
    return best


def iter_orders(d: RealizedDemand):
    """Every distinct interleaving of the realized counts, in lexicographic
    order: the next-permutation step on the sorted multiset, without recursion."""
    order = [j for j, c in enumerate(d.counts) for _ in range(c)]
    while True:
        yield tuple(order)
        k = len(order) - 2  # the last ascent
        while k >= 0 and order[k] >= order[k + 1]:
            k -= 1
        if k < 0:
            return
        swap = len(order) - 1  # the last entry above order[k]
        while order[swap] <= order[k]:
            swap -= 1
        order[k], order[swap] = order[swap], order[k]
        order[k + 1 :] = reversed(order[k + 1 :])


def order_count(d: RealizedDemand) -> int:
    """|S(d)| = multinomial coefficient of the counts."""
    total = sum(d.counts)
    count = math.factorial(total)
    for c in d.counts:
        count //= math.factorial(c)
    return count


def threshold_value_for_order(plan: IndepAdvPlan, order: Sequence[int]) -> float:
    """Exact expected reward of the threshold policy along one arrival order.

    The expectation over the policy's routing randomness factorizes per
    resource: a resource collects the reward of the first *qualifying*
    arrival routed to it.  Within a type the routing targets distinct ranks,
    so delivery events are mutually exclusive; across types the routings are
    independent.  Walking the order position by position and reading, per
    resource, each type's accumulated qualifying-delivery probability at the
    counts seen so far gives the exact value in O(len(order) * n * m).
    """
    steps, mass = _step_table(plan, [order.count(j) for j in range(plan.m)])
    counts = [0] * plan.m
    value = 0.0
    for j in order:
        value = _advance(steps, mass, counts, j, value)
        counts[j] += 1
    return value


def round_in_order(column, dist: DemandDistribution, order: Sequence[int]) -> RoutingDistribution:
    """``typeround`` with the resources processed in ``order`` (a permutation)
    instead of index order, by driving ``RoundingState(order=...)``."""
    state = RoundingState(dist, len(column), order=order, track_branches=False)
    for i in state.order:
        state.advance(column[i])
    return state.distribution()


def fraction_branches(rd: RoutingDistribution) -> tuple[tuple[Routing, Prob], ...]:
    """``rd.branches()`` as the expansion in `Fraction` weights: every coin
    ``lam`` multiplies each branch's weight by ``lam`` and ``1 - lam``, and
    the routings that collapse together add their weights.  Independent of
    the integer weights and the one denominator in the library."""
    segments = [(k, k) for k in range(1, rd.length + 1)]
    work = [([None] * rd.length, Fraction(1) if rd.exact else 1.0)]
    for dec in rd.decisions:
        work = _apply_decision(dec, segments, work, (dec.lam, 1 - dec.lam))
    merged = {}
    for assignment, prob in work:
        key = tuple(assignment[: rd.length])
        merged[key] = merged.get(key, Fraction(0) if rd.exact else 0.0) + prob
    ordered = sorted(merged.items(), key=lambda kv: tuple(-1 if r is None else r for r in kv[0]))
    return tuple((Routing(key), prob) for key, prob in ordered)


class FractionRounding:
    """The compact rounding state kept in `Fraction` values over an exact law
    (floats over a float law), as ``RoundingState`` kept it before it moved to
    integer numerators: idle probabilities, rank survivals, each segment's
    survival and the rank table are values, every coin is
    ``(x - s_next) / (s_here - s_next)`` and every update one multiplication,
    reduced by its gcd.  No branches are tracked and no decision is replayed,
    so it is independent of the library's bookkeeping."""

    def __init__(self, dist: DemandDistribution, num_resources: int):
        self.exact = dist.is_exact
        self.num = Fraction if self.exact else float
        self.slack = 0 if self.exact else COLUMN_SLACK
        self.real_length = max(num_resources, dist.max_support)
        self.rank_survival = [self.num(dist.survival(k)) for k in range(1, self.real_length + 1)]
        self.idle_prob = [self.num(1)] * self.real_length
        self.segment_survivals = list(self.rank_survival)
        self.segments = [(k, k) for k in range(1, self.real_length + 1)]
        self.rank_probs = [[self.num(0)] * self.real_length for _ in range(num_resources)]
        self.coins: list[tuple[int, int, Prob]] = []  # (resource, chosen segment, lam) per routed stage

    def segment_survival(self, seg_index: int) -> Prob:
        lo, hi = self.segments[seg_index]
        total = 0
        for k in range(lo - 1, hi):
            total = total + self.idle_prob[k] * self.rank_survival[k]
        return total

    def advance(self, resource: int, x: Prob) -> None:
        x = self.num(x)
        if x > self.slack:
            self._route(resource, x)

    def _route(self, resource: int, x: Prob) -> None:
        zero = self.num(0)
        chosen = len(self.segments) - 1
        s_here, s_next = self.segment_survivals[chosen], zero
        while s_here < x - self.slack:
            chosen -= 1
            s_here, s_next = self.segment_survivals[chosen], s_here
        if chosen == len(self.segments) - 1:  # spawn a zero-probability rank as the next segment
            rank = self.segments[-1][1] + 1
            self.segments.append((rank, rank))
            self.rank_survival.append(zero)
            self.idle_prob.append(self.num(1))
            self.segment_survivals.append(zero)
        lam = (x - s_next) / (s_here - s_next)
        if not self.exact:
            lam = min(1.0, max(0.0, lam))
        (lo_a, hi_a), (_, hi_b) = self.segments[chosen], self.segments[chosen + 1]
        self.segments[chosen : chosen + 2] = [(lo_a, hi_b)]
        rest = 1 - lam
        row = self.rank_probs[resource]
        for rank in range(lo_a, hi_b + 1):
            routed, kept = (lam, rest) if rank <= hi_a else (rest, lam)
            if rank <= self.real_length:
                row[rank - 1] = routed * self.idle_prob[rank - 1]
            self.idle_prob[rank - 1] = kept * self.idle_prob[rank - 1]
        self.segment_survivals[chosen : chosen + 2] = [self.segment_survival(chosen)]
        self.coins.append((resource, chosen, lam))


def ladder_truncated_instance(rng: np.random.Generator, n: int, m: int = 10) -> Instance:
    """Shaped like a trunc-plan ladder rung: ``n`` unit resources and ``m``
    types, each with three support points in ``[0, max(3, n // 5)]``."""
    top = max(3, n // 5)
    dists = []
    for _ in range(m):
        values = sorted(rng.choice(top + 1, size=3, replace=False).tolist())
        dists.append(DemandDistribution.from_pmf(dict(zip(values, _rounded_probs(rng, 3)))))
    return Instance(rewards=_rewards(rng, n, m), capacities=(1,) * n, demand=IndepDemandModel(tuple(dists)))


def random_correl_instance(
    rng: np.random.Generator,
    max_total: int = 4,
    max_n: int = 3,
    max_m: int = 3,
) -> Instance:
    """Random instance with correlated demand (float probabilities)."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    caps = tuple(int(rng.integers(1, 3)) for _ in range(n))
    rewards = _rewards(rng, n, m)
    size = int(rng.integers(2, max_total + 2))
    values = sorted(rng.choice(max_total + 1, size=min(size, max_total + 1), replace=False).tolist())
    total = DemandDistribution.from_pmf(dict(zip(values, _rounded_probs(rng, len(values)))))
    type_probs = tuple(_rounded_probs(rng, m))
    return Instance(
        rewards=rewards,
        capacities=caps,
        demand=CorrelDemandModel(total=total, type_probs=type_probs),
        arrival=Arrival.RANDOM_ORDER,
    )


def accept_step(counts: list[float], hazard: float) -> list[float]:
    """Law of the accepted count after one step, built out of place.

    ``counts[a]`` is Pr[a accepted so far], for ``a = 0..k``.  While capacity
    remains (``a < k``) the step accepts with probability ``hazard``.
    """
    if hazard <= 0.0:
        return counts
    k = len(counts) - 1
    nxt = [0.0] * (k + 1)
    for a in range(k + 1):
        stay = counts[a] * (1.0 - hazard) if a < k else counts[a]
        nxt[a] = stay
        if a > 0:
            nxt[a] += counts[a - 1] * hazard
    return nxt


def schedule_or_none(rates, k, gamma):
    """Accept probabilities and availabilities at rate ``gamma``, or None
    as soon as a step needs an accept probability above one."""
    counts = [1.0] + [0.0] * k
    cs, avail = [], []
    for y in rates:
        available = 1.0 - counts[k]
        avail.append(available)
        if y > 0.0:
            if available <= 0.0:
                if gamma > 0.0:
                    return None
                c = 0.0
            else:
                c = gamma / available
            if c > 1.0 + 1e-12:
                return None
            c = min(c, 1.0)
        else:
            c = min(1.0, gamma / available) if available > 0.0 else 0.0
        cs.append(c)
        counts = accept_step(counts, y * c)
    return cs, avail


def ocrs_bisection(rates, k) -> OcrsPlan:
    """``ocrs_plan`` by bisection on ``[0, 1]`` until the bracket is at most
    ``OCRS_TOL / 4`` wide (depth 32)."""
    clean = [max(0.0, float(y)) for y in rates]
    lo, hi = 0.0, 1.0
    schedule = schedule_or_none(clean, k, 1.0)
    if schedule is not None:
        lo = 1.0
    else:
        while hi - lo > OCRS_TOL / 4.0:
            mid = (lo + hi) / 2.0
            found = schedule_or_none(clean, k, mid)
            if found is not None:
                lo, schedule = mid, found
            else:
                hi = mid
    cs, avail = schedule or schedule_or_none(clean, k, 0.0)
    return OcrsPlan(rates=tuple(clean), capacity=k, gamma=lo, accept_probs=tuple(cs), availability=tuple(avail))


def tuple_online_dp(model: StochasticHorizonModel, inst: Instance) -> tuple[float, dict]:
    """``optimal_online_dp``'s value and decision table by the same backward
    induction over a dict keyed by capacity tuples, each move a tuple slice."""
    n = inst.n
    states = list(itertools.product(*(range(k + 1) for k in inst.capacities)))
    rewards = [[float(r) for r in col] for col in zip(*inst.rewards)]  # [j][i]
    moves = {
        caps: [(i, caps[:i] + (caps[i] - 1,) + caps[i + 1 :]) for i in range(n) if caps[i] > 0]
        for caps in states
    }
    value_next = {caps: 0.0 for caps in states}
    table = {}
    for t in range(model.horizon, 0, -1):
        s_t = float(model.total.survival(t))
        s_next = float(model.total.survival(t + 1))
        continue_odds = s_next / s_t if s_t > 0 else 0.0
        probs = [float(p) for p in model.probs[t - 1]]
        no_query = float(model.no_query_mass(t))
        value_here = {}
        for caps in states:
            cont = continue_odds * value_next[caps]
            total = no_query * cont
            ahead = [(i, continue_odds * value_next[reduced]) for i, reduced in moves[caps]]
            actions = []
            for pj, r in zip(probs, rewards):
                best = cont
                pick = None
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
    return float(model.total.survival(1)) * value_next[tuple(inst.capacities)], table


def tuple_horizon_value(plan: HorizonPlan) -> float:
    """``horizon_policy_value`` by the same forward pass over a dict keyed by
    capacity tuples, each accepted unit a tuple slice."""
    inst, model = plan.instance, plan.model
    states = {tuple(inst.capacities): 1.0}
    rewards = [[float(r) for r in row] for row in inst.rewards]
    value = 0.0
    for t in range(1, plan.horizon + 1):
        s_t = float(model.total.survival(t))
        row = [float(p) for p in model.probs[t - 1]]
        route = plan.route[t - 1].tolist()  # [i][j]
        accepts = [p.accept_probs[t - 1] for p in plan.plans]
        arcs = [
            (i, row[j] * route[i][j] * accepts[i], rewards[i][j])
            for j in range(inst.m) if row[j] > 0.0 for i in range(inst.n) if route[i][j] > 0.0
        ]
        nxt = {}

        def push(caps, w):
            if w > 0.0:
                nxt[caps] = nxt.get(caps, 0.0) + w

        for caps, w in states.items():
            moved = 0.0
            for i, accept, reward in arcs:
                if caps[i] > 0 and accept > 0.0:
                    value += s_t * w * accept * reward
                    push(caps[:i] + (caps[i] - 1,) + caps[i + 1 :], w * accept)
                    moved += accept
            push(caps, w * (1.0 - moved))
        states = nxt
    return value
