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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .demand import (
    IndepDemandModel,
    Instance,
    StochasticHorizonModel,
    UnsupportedDemandModel,
    draw_index,
    expand_unit_capacity,
    sample_horizon_path,
)
from .linprog import LpStatus, solve_lp
from .relaxations import (
    build_truncated_lp,
    conditional_lp,
)
from .rounding import Routing, RoutingDistribution, typeround

#: how far an OCRS activity rate, read off an LP solution, may stray outside
#: ``[0, 1]`` and its budget (solver feasibility tolerance)
LP_SLACK = 1e-9
#: OCRS ``gamma`` is the largest feasible point on the grid of spacing
#: ``2**-_OCRS_GRID_BITS``, the coarsest power of two within a quarter of this
OCRS_TOL = 1e-9
_OCRS_GRID_BITS = math.ceil(-math.log2(OCRS_TOL / 4.0))  # 32


# ---------------------------------------------------------------------------
# threshold policy for independent demand, adversarial order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndepAdvPlan:
    """Everything deterministic about the threshold policy.

    Holds the unit-capacity expansion, the tightened-LP solution, one
    routing distribution per type, and the per-resource thresholds
    ``tau_i = (sum_j r[i][j] x[i][j]) / 2``.  ``run_threshold_trial`` samples
    one routing per type and runs the policy; the distributions themselves
    feed exact evaluation.
    """

    instance: Instance  # unit-capacity expansion
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


def _solve_threshold_lp(
    inst: Instance,
) -> tuple[Instance, float, tuple[tuple[float, ...], ...]]:
    """The LP half of the threshold plan: the unit-capacity expansion and
    the tightened LP's value and clamped ``x[i][j]``."""
    if not isinstance(inst.demand, IndepDemandModel):
        raise UnsupportedDemandModel(
            "the threshold policy is defined for independent per-type demand"
        )
    unit = expand_unit_capacity(inst)
    result = build_truncated_lp(unit)
    if result.solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"tightened LP did not solve: {result.solution.status}")
    x = tuple(
        tuple(max(0.0, float(result.solution.values[i * unit.m + j])) for j in range(unit.m))
        for i in range(unit.n)
    )
    return unit, result.solution.objective_value, x


def plan_indep_adv_policy(inst: Instance) -> IndepAdvPlan:
    """Deterministic part of the policy: expand, solve, round, set thresholds."""
    unit, lp_value, x = _solve_threshold_lp(inst)
    n, m = unit.n, unit.m
    routings = tuple(
        typeround([x[i][j] for i in range(n)], inst.demand.per_type[j]) for j in range(m)
    )
    taus = tuple(
        sum(unit.rewards[i][j] * x[i][j] for j in range(m)) / 2.0 for i in range(n)
    )
    return IndepAdvPlan(
        instance=unit,
        x=x,
        lp_value=lp_value,
        routings=routings,
        taus=taus,
    )


@dataclass
class ThresholdPolicyState:
    """Runtime state: sampled routings, arrival counters, availability."""

    plan: IndepAdvPlan
    pis: tuple[Routing, ...]
    counters: list[int] = field(init=False)
    available: list[bool] = field(init=False)
    collected: float = field(init=False)

    def __post_init__(self) -> None:
        self.counters = [0] * self.plan.m
        self.available = [True] * self.plan.n
        self.collected = 0.0

    def step(self, j: int) -> Optional[int]:
        """Route the next type-``j`` arrival and apply the threshold rule.
        Returns the resource that accepts it, or None; an accepted arrival
        adds ``rewards[i][j]`` to ``collected``.

        Within one type a resource is routed at most once (the routing is a
        partial permutation), but routings of different types are independent
        and may collide; a qualifying query finding its resource already
        matched is rejected, never re-routed.
        """
        if not 0 <= j < self.plan.m:
            raise ValueError(f"type {j} is outside 0..{self.plan.m - 1}")
        self.counters[j] += 1
        target = self.pis[j].resource_at(self.counters[j])
        if target is None or not self.plan.qualifies(target, j) or not self.available[target]:
            return None
        self.available[target] = False
        self.collected += float(self.plan.instance.rewards[target][j])
        return target


def run_threshold_trial(
    plan: IndepAdvPlan,
    order: Sequence[int],
    rng: np.random.Generator,
) -> float:
    """Simulate one sample path of the threshold policy along ``order``."""
    state = ThresholdPolicyState(plan=plan, pis=tuple(rd.sample(rng) for rd in plan.routings))
    for j in order:
        state.step(j)
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
    the largest uniform rate on a grid of spacing ``2**-32`` that the
    schedule can sustain, certified by the accepted-count law at that rate
    and at the next grid point up.
    """

    rates: tuple[float, ...]
    capacity: int
    gamma: float
    accept_probs: tuple[float, ...]
    availability: tuple[float, ...]  # Pr[capacity remains] before each step


def _accept_step(counts: list[float], hazard: float) -> None:
    """Advance the law of the accepted count by one step, in place.

    ``counts[a]`` is Pr[a accepted so far], for ``a = 0..k``.  While capacity
    remains (``a < k``) the step accepts with probability ``hazard``.  The
    counts are updated from the top down, so each reads the one below it
    before that one moves.
    """
    k = len(counts) - 1
    if hazard <= 0.0 or k == 0:
        return
    keep = 1.0 - hazard
    counts[k] += counts[k - 1] * hazard  # a full resource stays full
    for a in range(k - 1, 0, -1):
        counts[a] = counts[a] * keep + counts[a - 1] * hazard
    counts[0] *= keep


def _ocrs_schedule(
    rates: Sequence[float], k: int, gamma: float
) -> tuple[bool, float, list[float], list[float]]:
    """``(feasible, margin, accept probs, availabilities)`` at rate ``gamma``.

    ``margin`` is the least ``availability - gamma`` over the active steps.  A
    step that needs an accept probability above one makes the schedule
    infeasible; it is clamped at one and the pass goes on to the last step.
    """
    counts = [1.0] + [0.0] * k  # law of the number accepted so far
    cs: list[float] = []
    avail: list[float] = []
    feasible, margin = True, math.inf
    for y in rates:
        available = 1.0 - counts[k]
        avail.append(available)
        if y > 0.0:
            if available - gamma < margin:
                margin = available - gamma
            c = gamma / available if available > 0.0 else (math.inf if gamma > 0.0 else 0.0)
            if c > 1.0:  # clamped; past the 1e-12 slack the schedule is infeasible
                feasible = feasible and c <= 1.0 + 1e-12
                c = 1.0
        else:
            c = min(1.0, gamma / available) if available > 0.0 else 0.0
        cs.append(c)
        _accept_step(counts, y * c)
    return feasible, margin, cs, avail


def ocrs_plan(rates: Sequence[float], k: int) -> OcrsPlan:
    """Largest uniform acceptance rate for the given activity schedule.

    Guards each rate to ``[0, 1]`` and the budget ``sum(rates) <= k``, both
    up to ``LP_SLACK``, then finds the largest ``gamma`` on the grid
    ``j / 2**32`` whose schedule keeps every conditional acceptance
    probability at most one.  Feasibility is monotone in
    ``gamma`` and ends where the margin of ``_ocrs_schedule`` crosses zero,
    so regula falsi (Illinois) on the margin, rounded down to the grid,
    narrows a feasible ``lo`` and an infeasible ``hi`` to ``hi = lo + 1``.
    Points are moved so that ``s`` grid passes leave ``hi - lo <= 2**(34-s)``:
    at most 36 schedule passes in all (one at ``gamma = 1``, 34 on the grid,
    one at ``gamma = 0`` if nothing above it is feasible), about 5 on average.
    Alaei's gamma-conservative magician is such a uniform schedule, so the
    certified ``gamma`` clears the floor ``1 - 1/sqrt(k+3)``; the
    ``ocrs-schedule`` acceptance criterion checks that it does.
    """
    if k < 1:
        raise ValueError(f"capacity must be positive, got {k}")
    clean = [float(y) for y in rates]
    if not all(-LP_SLACK <= y <= 1.0 + LP_SLACK for y in clean):  # also rejects NaN
        raise ValueError(f"activity rates must be finite and within [0, 1], got {clean!r}")
    clean = [min(max(0.0, y), 1.0) for y in clean]  # LP noise just outside [0, 1] is clamped
    if sum(clean) > k + LP_SLACK:
        raise ValueError(f"activity rates sum to {sum(clean)!r} > capacity {k}")
    top = 1 << _OCRS_GRID_BITS
    feasible, f_hi, cs, avail = _ocrs_schedule(clean, k, 1.0)
    schedule = (cs, avail) if feasible else None
    # grid indices: ``lo`` feasible, ``hi`` not; margin(0) = 1 as nothing is accepted
    lo, hi, f_lo = (top if feasible else 0), top, 1.0
    moved = passes = 0  # the end that moved last (+1 lo, -1 hi); grid passes made
    while hi - lo > 1:
        # regula falsi, or the next point up once the margin at ``lo`` is no
        # longer positive: the root lies within the 1e-12 verdict slack of it
        j = int(lo + (hi - lo) * (f_lo / (f_lo - f_hi))) if f_lo > 0.0 else lo
        reach = 1 << max(0, _OCRS_GRID_BITS + 1 - passes)  # the bound in the docstring
        j = min(max(j, lo + 1, hi - reach), hi - 1, lo + reach)
        passes += 1
        feasible, f, cs, avail = _ocrs_schedule(clean, k, j / top)
        if feasible:
            lo, f_lo, schedule = j, f, (cs, avail)
            if moved > 0:  # Illinois: an end kept twice in a row weighs half
                f_hi /= 2.0
            moved = 1
        else:
            hi, f_hi = j, f
            if moved < 0:
                f_lo /= 2.0
            moved = -1
    gamma = lo / top
    # with no feasible grid point above 0, gamma = 0 remains: it accepts nothing
    cs, avail = schedule or _ocrs_schedule(clean, k, 0.0)[2:]
    return OcrsPlan(
        rates=tuple(clean),
        capacity=k,
        gamma=gamma,
        accept_probs=tuple(cs),
        availability=tuple(avail),
    )


# ---------------------------------------------------------------------------
# horizon policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HorizonPlan:
    """Conditional-LP solution plus one acceptance schedule per resource.

    ``y[t-1, i, j]`` is the LP's rate of routing a step-``t`` type-``j``
    query to resource ``i``, a ``(T, n, m)`` array clipped at zero.
    ``route[t-1, i, j] = min(1, y / p)`` is the chance such a query is routed
    to ``i`` given that it arrives, where ``p`` is its arrival probability
    ``probs[t-1][j]``; it is 0 where ``p = 0``.
    """

    model: StochasticHorizonModel
    instance: Instance
    y: np.ndarray
    route: np.ndarray
    lp_value: float
    plans: tuple[OcrsPlan, ...]

    @property
    def horizon(self) -> int:
        return self.model.horizon

    def expected_value(self) -> float:
        """Exact policy value.

        Per step the unconditional acceptance at resource ``i`` equals
        ``gamma_i`` times its routing rate (the schedule enforces this
        equality), and a step exists with the horizon's survival
        probability, so the value is the gamma-weighted LP objective.
        """
        y = np.asarray(self.y, dtype=float).tolist()
        survival = [float(self.model.total.survival(t)) for t in range(1, self.horizon + 1)]
        total = 0.0
        for i, plan in enumerate(self.plans):
            rewards = [float(r) for r in self.instance.rewards[i]]
            share = 0.0
            for s, y_t in zip(survival, y):
                for r, y_tj in zip(rewards, y_t[i]):
                    share += s * r * y_tj
            total += plan.gamma * share
        return total


def plan_horizon_policy(model: StochasticHorizonModel, inst: Instance) -> HorizonPlan:
    solution = solve_lp(conditional_lp(model, inst))
    if solution.status is not LpStatus.OPTIMAL:
        raise RuntimeError(f"conditional LP did not solve: {solution.status}")
    ym = solution.values.reshape(model.horizon, inst.n, inst.m)
    y = np.where(ym > 0.0, ym, 0.0)
    p = np.array([[float(q) for q in row] for row in model.probs])[: model.horizon, None, :]
    route = np.minimum(1.0, np.divide(y, p, out=np.zeros_like(y), where=p > 0.0))
    rates = y[:, :, 0].copy()  # (T, n): summed over types left to right
    for j in range(1, inst.m):
        rates += y[:, :, j]
    plans = tuple(ocrs_plan(rates[:, i], inst.capacities[i]) for i in range(inst.n))
    return HorizonPlan(
        model=model, instance=inst, y=y, route=route, lp_value=solution.objective_value, plans=plans
    )


@dataclass
class HorizonPolicyState:
    """Runtime state of the horizon policy: remaining capacities."""

    plan: HorizonPlan
    remaining: list[int] = field(init=False)
    collected: float = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = list(self.plan.instance.capacities)
        self.collected = 0.0

    def step(
        self, t: int, j: Optional[int], rng: np.random.Generator
    ) -> Optional[int]:
        """Handle step ``t``: route the arrival (if any), then ask the
        resource's acceptance schedule.  Returns the resource that accepts
        it, or None; an accepted arrival adds ``rewards[i][j]`` to
        ``collected``."""
        model = self.plan.model
        if not 1 <= t <= model.horizon:
            raise ValueError(f"step {t} is outside the horizon 1..{model.horizon}")
        if j is None:
            return None
        if not 0 <= j < model.m:
            raise ValueError(f"type {j} is outside 0..{model.m - 1}")
        if float(model.probs[t - 1][j]) <= 0.0:
            raise ValueError(f"type {j} cannot arrive at step {t}")
        routed = draw_index(self.plan.route[t - 1, :, j], rng)
        if routed is None or self.remaining[routed] <= 0:
            return None
        if not rng.random() < self.plan.plans[routed].accept_probs[t - 1]:
            return None
        self.remaining[routed] -= 1
        self.collected += float(self.plan.instance.rewards[routed][j])
        return routed


def run_horizon_trial(
    plan: HorizonPlan, rng: np.random.Generator
) -> float:
    """Simulate one sample path: draw the horizon walk, then step through."""
    path = sample_horizon_path(plan.model, rng)
    state = HorizonPolicyState(plan=plan)
    for t, j in enumerate(path, start=1):
        state.step(t, j, rng)
    return state.collected


# ---------------------------------------------------------------------------
# static threshold baseline (single resource)
# ---------------------------------------------------------------------------


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
        _accept_step(counts, hazard)
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
