"""Online matching policies with worst-case guarantees.

Two guaranteed policies:

* Adversarial arrivals with independent per-type demand: solve the
  subset-tightened LP, round each type's column into a routing with exact
  marginals, route arrivals along the sampled routings, and accept a routed
  query at resource ``i`` only when its reward clears the half-of-LP-share
  threshold ``tau_i``.  Collects at least half the LP value against any
  arrival order.
* Stochastic horizons: solve the conditional LP, route each step's query
  proportionally to the LP ratios, and let each resource filter its routed
  stream through a contention-resolution rule calibrated so that every step
  is accepted with the same certified fraction ``gamma`` of its routing rate.
  Collects at least half the conditional LP value (more with larger
  capacities).

Plus the deliberately weak baseline: a static reward threshold that never
adapts to the horizon surviving, included because its approximation ratio
degrades to zero on escalating-reward horizons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .demand import (
    IndepDemandModel,
    Instance,
    StochasticHorizonModel,
    as_generator,
    expand_unit_capacity,
)
from .linprog import LpStatus, solve_lp
from .relaxations import (
    UnsupportedDemandModel,
    build_truncated_lp,
    conditional_lp,
    horizon_model_of,
)
from .rounding import Routing, RoutingDistribution, typeround

#: slack used when consuming LP solutions (solver feasibility tolerance)
LP_SLACK = 1e-9


@dataclass(frozen=True)
class TraceEvent:
    """One arrival as seen by a policy, for CSV audit dumps."""

    trial: int
    step: int
    query_type: int
    rank: int
    routed_to: Optional[int]
    accepted: bool
    reward: float


def trace_to_csv(events: Sequence[TraceEvent]) -> str:
    lines = ["trial,step,query_type,rank,routed_to,accepted,reward"]
    for e in events:
        routed = "" if e.routed_to is None else str(e.routed_to)
        lines.append(
            f"{e.trial},{e.step},{e.query_type},{e.rank},{routed},"
            f"{int(e.accepted)},{e.reward!r}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# threshold policy for independent demand, adversarial order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndepAdvPlan:
    """Everything deterministic about the threshold policy.

    Holds the unit-capacity expansion, the tightened-LP solution, one
    routing distribution per type, and the per-resource thresholds
    ``tau_i = (sum_j r[i][j] x[i][j]) / 2``.  Sampling the routings yields a
    runnable policy; the distributions themselves feed exact evaluation.
    """

    instance: Instance  # unit-capacity expansion
    parent: tuple[int, ...]
    x: tuple[tuple[float, ...], ...]
    lp_value: float
    routings: tuple[RoutingDistribution, ...]  # indexed by type
    taus: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def m(self) -> int:
        return self.instance.m

    def qualifies(self, i: int, j: int) -> bool:
        # ties accept: a reward exactly at the threshold is taken
        return self.instance.rewards[i][j] >= self.taus[i]

    def sample(self, rng_seed: Union[int, np.random.Generator]) -> "ThresholdPolicyState":
        rng = as_generator(rng_seed)
        pis = tuple(rd.sample(rng) for rd in self.routings)
        return ThresholdPolicyState(plan=self, pis=pis)


def plan_indep_adv_policy(inst: Instance) -> IndepAdvPlan:
    """Deterministic part of the policy: expand, solve, round, set thresholds."""
    if not isinstance(inst.demand, IndepDemandModel):
        raise UnsupportedDemandModel(
            "the threshold policy is defined for independent per-type demand"
        )
    unit, parent = expand_unit_capacity(inst)
    result = build_truncated_lp(unit)
    if result.solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"tightened LP did not solve: {result.solution.status}")
    n, m = unit.n, unit.m
    x = tuple(
        tuple(max(0.0, float(result.solution.values[i * m + j])) for j in range(m))
        for i in range(n)
    )
    routings = []
    for j in range(m):
        column = [x[i][j] for i in range(n)]
        dist = inst.demand.per_type[j].to_float()
        routings.append(typeround(column, dist, exact=False, tol=LP_SLACK))
    taus = tuple(
        sum(unit.rewards[i][j] * x[i][j] for j in range(m)) / 2.0 for i in range(n)
    )
    return IndepAdvPlan(
        instance=unit,
        parent=parent,
        x=x,
        lp_value=result.solution.objective_value,
        routings=tuple(routings),
        taus=taus,
    )


@dataclass(frozen=True)
class ThresholdDecision:
    resource: Optional[int]
    reward: float
    rank: int


@dataclass
class ThresholdPolicyState:
    """Runtime state: sampled routings, arrival counters, availability."""

    plan: IndepAdvPlan
    pis: tuple[Routing, ...]
    counters: list[int] = field(default_factory=list)
    available: list[bool] = field(default_factory=list)
    collected: float = 0.0

    def __post_init__(self) -> None:
        if not self.counters:
            self.counters = [0] * self.plan.m
        if not self.available:
            self.available = [True] * self.plan.n

    def step(self, j: int) -> ThresholdDecision:
        """Route the next type-``j`` arrival and apply the threshold rule.

        Within one type a resource is routed at most once (the routing is a
        partial permutation), but routings of different types are independent
        and may collide; a qualifying query finding its resource already
        matched is rejected, never re-routed.
        """
        self.counters[j] += 1
        rank = self.counters[j]
        target = self.pis[j].resource_at(rank)
        if target is None:
            return ThresholdDecision(resource=None, reward=0.0, rank=rank)
        if not self.plan.qualifies(target, j) or not self.available[target]:
            return ThresholdDecision(resource=None, reward=0.0, rank=rank)
        self.available[target] = False
        reward = float(self.plan.instance.rewards[target][j])
        self.collected += reward
        return ThresholdDecision(resource=target, reward=reward, rank=rank)


def run_threshold_trial(
    plan: IndepAdvPlan,
    order: Sequence[int],
    rng_seed: Union[int, np.random.Generator],
    trial: int = 0,
    trace: Optional[list[TraceEvent]] = None,
) -> float:
    """Simulate one sample path of the threshold policy along ``order``."""
    state = plan.sample(rng_seed)
    for step, j in enumerate(order, start=1):
        decision = state.step(j)
        if trace is not None:
            trace.append(
                TraceEvent(
                    trial=trial,
                    step=step,
                    query_type=j,
                    rank=decision.rank,
                    routed_to=decision.resource,
                    accepted=decision.resource is not None,
                    reward=decision.reward,
                )
            )
    return state.collected


# ---------------------------------------------------------------------------
# contention resolution for a single resource
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OcrsPlan:
    """Uniform-rate acceptance schedule for one resource.

    In the full-length world, step ``t`` is *active* independently with
    probability ``rates[t-1]``.  The plan accepts an active step, while
    capacity remains, with probability ``accept_probs[t-1] =
    gamma / Pr[capacity remains at t]`` so that every step's unconditional
    acceptance probability is exactly ``gamma * rates[t-1]``.  ``gamma`` is
    the largest uniform rate the schedule can sustain, certified by binary
    search over the exact accepted-count law.
    """

    rates: tuple[float, ...]
    capacity: int
    gamma: float
    accept_probs: tuple[float, ...]
    availability: tuple[float, ...]  # Pr[capacity remains] before each step

    @property
    def horizon(self) -> int:
        return len(self.rates)


def _accept_step(counts: list[float], hazard: float) -> list[float]:
    """Law of the accepted count after one step.

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


def _ocrs_schedule(rates: Sequence[float], k: int, gamma: float) -> Optional[tuple[list[float], list[float]]]:
    """Accept probabilities and availabilities at rate ``gamma``, or None."""
    counts = [1.0] + [0.0] * k  # law of the number accepted so far
    cs: list[float] = []
    avail: list[float] = []
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
        counts = _accept_step(counts, y * c)
    return cs, avail


def ocrs_plan(rates: Sequence[float], k: int, tol: float = 1e-9) -> OcrsPlan:
    """Largest uniform acceptance rate for the given activity schedule.

    Guards the budget ``sum(rates) <= k``, then binary-searches the largest
    ``gamma`` whose schedule keeps every conditional acceptance probability
    at most one.  The certified ``gamma`` is checked against the closed-form
    floor ``1 - 1/sqrt(k+3)``; falling short is reported as a warning since
    the floor is only known to be attainable by some schedule, not
    necessarily a uniform one.
    """
    if k < 1:
        raise ValueError(f"capacity must be positive, got {k}")
    clean = [max(0.0, float(y)) for y in rates]
    if sum(clean) > k + LP_SLACK:
        raise ValueError(f"activity rates sum to {sum(clean)!r} > capacity {k}")
    lo, hi = 0.0, 1.0
    if _ocrs_schedule(clean, k, 1.0) is not None:
        lo = 1.0
    else:
        for _ in range(64):
            mid = (lo + hi) / 2.0
            if _ocrs_schedule(clean, k, mid) is not None:
                lo = mid
            else:
                hi = mid
            if hi - lo <= tol / 4.0:
                break
    schedule = _ocrs_schedule(clean, k, lo)
    assert schedule is not None
    cs, avail = schedule
    floor = 1.0 - 1.0 / math.sqrt(k + 3)
    if lo < floor - 1e-9:
        warnings.warn(
            f"uniform acceptance rate {lo:.9f} fell below the k={k} floor {floor:.9f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return OcrsPlan(
        rates=tuple(clean),
        capacity=k,
        gamma=lo,
        accept_probs=tuple(cs),
        availability=tuple(avail),
    )


# ---------------------------------------------------------------------------
# horizon policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HorizonPlan:
    """Conditional-LP solution plus one acceptance schedule per resource."""

    model: StochasticHorizonModel
    instance: Instance
    y: tuple[tuple[tuple[float, ...], ...], ...]  # [t-1][i][j]
    lp_value: float
    plans: tuple[OcrsPlan, ...]

    @property
    def horizon(self) -> int:
        return self.model.horizon

    def routing_prob(self, t: int, i: int, j: int) -> float:
        """Pr[route to i | type j arrives at step t] = y/p."""
        p = float(self.model.probs[t - 1][j])
        if p <= 0.0:
            return 0.0
        return min(1.0, self.y[t - 1][i][j] / p)

    def expected_value(self) -> float:
        """Exact policy value.

        Per step the unconditional acceptance at resource ``i`` equals
        ``gamma_i`` times its routing rate (the schedule enforces this
        equality), and a step exists with the horizon's survival
        probability, so the value is the gamma-weighted LP objective.
        """
        total = 0.0
        for i, plan in enumerate(self.plans):
            share = 0.0
            for t in range(1, self.horizon + 1):
                s = float(self.model.total.survival(t))
                for j in range(self.instance.m):
                    share += s * float(self.instance.rewards[i][j]) * self.y[t - 1][i][j]
            total += plan.gamma * share
        return total


def plan_horizon_policy(model: StochasticHorizonModel, inst: Instance) -> HorizonPlan:
    solution = solve_lp(conditional_lp(model, inst))
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"conditional LP did not solve: {solution.status}")
    n, m = inst.n, inst.m
    horizon = model.horizon
    ym = solution.values.reshape(horizon, n, m)
    y = tuple(
        tuple(tuple(max(0.0, float(ym[t, i, j])) for j in range(m)) for i in range(n))
        for t in range(horizon)
    )
    plans = []
    for i in range(n):
        rates = [sum(y[t][i][j] for j in range(m)) for t in range(horizon)]
        plans.append(ocrs_plan(rates, inst.capacities[i]))
    return HorizonPlan(
        model=model,
        instance=inst,
        y=y,
        lp_value=solution.objective_value,
        plans=tuple(plans),
    )


@dataclass(frozen=True)
class HorizonDecision:
    routed_to: Optional[int]
    accepted: bool
    reward: float


@dataclass
class HorizonPolicyState:
    """Runtime state of the horizon policy: remaining capacities."""

    plan: HorizonPlan
    remaining: list[int] = field(default_factory=list)
    collected: float = 0.0

    def __post_init__(self) -> None:
        if not self.remaining:
            self.remaining = list(self.plan.instance.capacities)

    def step(
        self, t: int, j: Optional[int], rng_seed: Union[int, np.random.Generator]
    ) -> HorizonDecision:
        """Handle step ``t``: route the arrival (if any), then ask the
        resource's acceptance schedule."""
        model = self.plan.model
        if not 1 <= t <= model.horizon:
            raise ValueError(f"step {t} is outside the horizon 1..{model.horizon}")
        if j is None:
            return HorizonDecision(routed_to=None, accepted=False, reward=0.0)
        if not 0 <= j < model.m:
            raise ValueError(f"type {j} is outside 0..{model.m - 1}")
        if float(model.probs[t - 1][j]) <= 0.0:
            raise ValueError(f"type {j} cannot arrive at step {t}")
        rng = as_generator(rng_seed)
        u = rng.random()
        acc = 0.0
        routed: Optional[int] = None
        for i in range(self.plan.instance.n):
            acc += self.plan.routing_prob(t, i, j)
            if u < acc:
                routed = i
                break
        if routed is None:
            return HorizonDecision(routed_to=None, accepted=False, reward=0.0)
        ocrs = self.plan.plans[routed]
        if self.remaining[routed] > 0 and rng.random() < ocrs.accept_probs[t - 1]:
            self.remaining[routed] -= 1
            reward = float(self.plan.instance.rewards[routed][j])
            self.collected += reward
            return HorizonDecision(routed_to=routed, accepted=True, reward=reward)
        return HorizonDecision(routed_to=routed, accepted=False, reward=0.0)


def plan_horizon_policy_for(inst: Instance) -> HorizonPlan:
    """Horizon policy for a native-horizon or correlated-demand instance."""
    return plan_horizon_policy(horizon_model_of(inst), inst)


def run_horizon_trial(
    plan: HorizonPlan,
    rng_seed: Union[int, np.random.Generator],
    trial: int = 0,
    trace: Optional[list[TraceEvent]] = None,
) -> float:
    """Simulate one sample path: draw the horizon walk, then step through."""
    from .demand import sample_horizon_path

    rng = as_generator(rng_seed)
    path = sample_horizon_path(plan.model, rng)
    state = HorizonPolicyState(plan=plan)
    for t, j in enumerate(path, start=1):
        decision = state.step(t, j, rng)
        if trace is not None:
            trace.append(
                TraceEvent(
                    trial=trial,
                    step=t,
                    query_type=-1 if j is None else j,
                    rank=t,
                    routed_to=decision.routed_to,
                    accepted=decision.accepted,
                    reward=decision.reward,
                )
            )
    return state.collected


# ---------------------------------------------------------------------------
# static threshold baseline (single resource)
# ---------------------------------------------------------------------------


@dataclass
class StaticThresholdPolicy:
    """Accept the first ``k`` arrivals whose reward clears a fixed bar."""

    threshold: float
    capacity: int
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        self.remaining = self.capacity

    def step(self, reward: float) -> bool:
        if self.remaining > 0 and reward >= self.threshold:
            self.remaining -= 1
            return True
        return False


def static_threshold_value(
    model: StochasticHorizonModel, inst: Instance, threshold: float
) -> float:
    """Exact value of the fixed-bar policy on a single-resource horizon.

    Forward pass over the accepted-count law: at each surviving step the
    policy accepts exactly the types whose reward clears the bar, provided
    capacity remains.
    """
    if inst.n != 1:
        raise ValueError("the static threshold baseline is a single-resource policy")
    k = inst.capacities[0]
    counts = [1.0] + [0.0] * k
    value = 0.0
    for t in range(1, model.horizon + 1):
        s = float(model.total.survival(t))
        row = model.probs[t - 1]
        hazard = sum(float(p) for j, p in enumerate(row) if inst.rewards[0][j] >= threshold)
        gain = sum(
            float(p) * float(inst.rewards[0][j])
            for j, p in enumerate(row)
            if inst.rewards[0][j] >= threshold
        )
        available = 1.0 - counts[k]
        value += s * available * gain
        counts = _accept_step(counts, hazard)
    return value


def best_static_threshold(
    model: StochasticHorizonModel, inst: Instance
) -> tuple[float, float]:
    """Exhaustive scan over all meaningfully distinct fixed bars.

    The value is piecewise constant in the bar, changing only at reward
    values, so scanning the distinct rewards (plus an accept-nothing bar)
    is exhaustive.
    """
    rewards = sorted({float(r) for r in inst.rewards[0]})
    candidates = [0.0] + rewards + [rewards[-1] + 1.0]
    best_bar, best_value = candidates[0], -1.0
    for bar in candidates:
        value = static_threshold_value(model, inst, bar)
        if value > best_value + 1e-12:
            best_bar, best_value = bar, value
    return best_bar, best_value
