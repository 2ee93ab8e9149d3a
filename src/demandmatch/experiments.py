"""Experiment harness: instance families, ratio estimation, reporting.

The named instance families are the constructions that pin down each
guarantee's limits:

* ``fluid_gap_single(eps)`` -- one resource, one type, demand 0 or ~1/eps.
  The expectation-only relaxation is off by a factor 1/eps.
* ``fluid_gap_capped(n)`` -- n unit resources, one rewarded, demand 0 or n.
  Shows the gap persists even when demand never exceeds total capacity.
* ``two_stage_reward(eps, k1)`` -- cheap queries arrive first, a rare batch
  of dear ones may follow; no online policy beats half the prophet.
* ``escalating_rewards(T, eps)`` -- geometric horizon with rewards growing
  like 1/eps per surviving step; static thresholds collapse, adaptivity
  does not.
* ``rare_long_horizon(N)`` -- a short horizon almost surely, a very long
  tail rarely; the conditional LP is twice the best online value.

Trials are reproducible: trial ``t`` of a run draws from
``default_rng((seed, t))``, so parallel schedules cannot change results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Sequence

import numpy as np

from .demand import (
    Arrival,
    CorrelDemandModel,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    Prob,
    StochasticHorizonModel,
    is_exact_number,
    trial_rng,
)
from .oracles import (
    OracleValue,
    expected_offline,
    exact_policy_value,
    horizon_policy_value,
    mc_policy_value,
    optimal_online_dp,
)
from .policies import plan_horizon_policy_for, plan_indep_adv_policy, run_horizon_trial
from .relaxations import build_fluid_lp, build_truncated_lp, conditional_lp, horizon_model_of
from .linprog import solve_lp

GENERATORS = (
    "fluid_gap_single",
    "fluid_gap_capped",
    "two_stage_reward",
    "escalating_rewards",
    "rare_long_horizon",
)

POLICIES = ("threshold", "horizon", "offline", "opt")
BENCHMARKS = ("fluid", "trunc", "cond", "off", "opt")


def gen_counterexample(name: str, params: Mapping[str, Prob]) -> Instance:
    """Build one instance from a named family; see the module docstring."""
    if name == "fluid_gap_single":
        eps = params["eps"]
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {eps}")
        spike = math.ceil(1 / eps)
        one: Prob = Fraction(1) if is_exact_number(eps) else 1.0
        dist = DemandDistribution.from_pmf({0: one - eps, spike: eps})
        return Instance(
            rewards=((1.0,),),
            capacities=(1,),
            demand=IndepDemandModel(per_type=(dist,)),
            arrival=Arrival.ADVERSARIAL,
        )
    if name == "fluid_gap_capped":
        n = int(params["n"])
        if n < 2:
            raise ValueError(f"n must be at least 2, got {n}")
        dist = DemandDistribution.from_pmf({0: Fraction(n - 1, n), n: Fraction(1, n)})
        rewards = tuple((1.0,) if i == 0 else (0.0,) for i in range(n))
        return Instance(
            rewards=rewards,
            capacities=tuple(1 for _ in range(n)),
            demand=IndepDemandModel(per_type=(dist,)),
            arrival=Arrival.ADVERSARIAL,
        )
    if name == "two_stage_reward":
        eps = params["eps"]
        k1 = int(params["k1"])
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {eps}")
        if k1 < 1:
            raise ValueError(f"k1 must be positive, got {k1}")
        one = Fraction(1) if is_exact_number(eps) else 1.0
        cheap = DemandDistribution.point_mass(k1)
        dear = DemandDistribution.from_pmf({0: one - eps, k1: eps})
        return Instance(
            rewards=((1.0, float(1 / eps)),),
            capacities=(k1,),
            demand=IndepDemandModel(per_type=(cheap, dear)),
            arrival=Arrival.ADVERSARIAL,
        )
    if name == "escalating_rewards":
        horizon = int(params["T"])
        eps = float(params["eps"])
        if horizon < 1:
            raise ValueError(f"T must be positive, got {horizon}")
        if not 0 < eps < 1:
            raise ValueError(f"eps must lie in (0,1), got {eps}")
        # survival odds eps per step: Pr[D >= t] = eps^(t-1)
        pmf = {t: eps ** (t - 1) * (1 - eps) for t in range(1, horizon)}
        pmf[horizon] = eps ** (horizon - 1)
        total = DemandDistribution.from_pmf(pmf)
        # type j carries reward eps^-j; step t offers type t (rarely) or t-1
        m = horizon + 1
        rows = []
        for t in range(1, horizon + 1):
            row = [0.0] * m
            row[t] = eps
            row[t - 1] = 1 - eps
            rows.append(tuple(row))
        rewards = (tuple(float(eps**-j) for j in range(m)),)
        return Instance(
            rewards=rewards,
            capacities=(1,),
            demand=StochasticHorizonModel(total=total, probs=tuple(rows)),
            arrival=Arrival.RANDOM_ORDER,
        )
    if name == "rare_long_horizon":
        big = int(params["N"])
        if big < 2:
            raise ValueError(f"N must be at least 2, got {big}")
        total = DemandDistribution.from_pmf(
            {1: Fraction(big - 1, big), 1 + big**2: Fraction(1, big)}
        )
        p2 = Fraction(1, big**3)
        return Instance(
            rewards=((1.0, float(big**2)),),
            capacities=(1,),
            demand=CorrelDemandModel(total=total, type_probs=(1 - p2, p2)),
            arrival=Arrival.RANDOM_ORDER,
        )
    raise ValueError(f"unknown instance family {name!r}; pick one of {GENERATORS}")


# ---------------------------------------------------------------------------
# random instance generators for the property suites
# ---------------------------------------------------------------------------


def random_indep_instance(
    rng: np.random.Generator,
    max_n: int = 4,
    max_m: int = 4,
    max_support: int = 4,
    max_value: int = 3,
    max_total_capacity: Optional[int] = None,
) -> Instance:
    """Random instance with independent per-type demand (float probabilities)."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    if max_total_capacity is None:
        caps = tuple(int(rng.integers(1, 3)) for _ in range(n))
    else:
        budget = int(rng.integers(n, max_total_capacity + 1))
        caps = [1] * n
        for _ in range(budget - n):
            caps[int(rng.integers(0, n))] += 1
        caps = tuple(caps)
    rewards = tuple(
        tuple(float(np.round(rng.uniform(0, 10), 3)) for _ in range(m)) for _ in range(n)
    )
    dists = []
    for _ in range(m):
        size = int(rng.integers(1, max_support + 1))
        values = sorted(rng.choice(max_value + 1, size=size, replace=False).tolist())
        weights = rng.uniform(0.05, 1.0, size=size)
        weights = weights / weights.sum()
        # round and re-normalize on the largest atom to keep the mass exact
        probs = [float(np.round(w, 6)) for w in weights]
        probs[int(np.argmax(probs))] += 1.0 - sum(probs)
        dists.append(DemandDistribution.from_pmf(dict(zip(values, probs))))
    return Instance(
        rewards=rewards,
        capacities=caps,
        demand=IndepDemandModel(per_type=tuple(dists)),
        arrival=Arrival.ADVERSARIAL,
    )


def random_horizon_instance(
    rng: np.random.Generator,
    max_horizon: int = 4,
    max_n: int = 3,
    max_m: int = 3,
    fixed_capacity: Optional[int] = None,
) -> Instance:
    """Random stochastic-horizon instance (float probabilities)."""
    horizon = int(rng.integers(1, max_horizon + 1))
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    caps = tuple(
        fixed_capacity if fixed_capacity is not None else int(rng.integers(1, 3))
        for _ in range(n)
    )
    rewards = tuple(
        tuple(float(np.round(rng.uniform(0, 10), 3)) for _ in range(m)) for _ in range(n)
    )
    raw = rng.uniform(0.05, 1.0, size=horizon + 1)
    raw = raw / raw.sum()
    pmf = {t: float(np.round(raw[t], 6)) for t in range(horizon + 1) if raw[t] > 0}
    pmf[horizon] = pmf.get(horizon, 0.0) + 0.05  # keep the last step reachable
    norm = sum(pmf.values())
    pmf = {t: p / norm for t, p in pmf.items()}
    biggest = max(pmf, key=lambda t: pmf[t])
    pmf[biggest] += 1.0 - sum(pmf.values())
    total = DemandDistribution.from_pmf(pmf)
    rows = []
    for _ in range(max(total.max_support, 1)):
        weights = rng.uniform(0.0, 1.0, size=m)
        scale = rng.uniform(0.5, 1.0)  # rows may sum below one: silent steps
        row = weights / weights.sum() * scale
        rows.append(tuple(float(np.round(p, 6)) for p in row))
    return Instance(
        rewards=rewards,
        capacities=caps,
        demand=StochasticHorizonModel(total=total, probs=tuple(rows)),
        arrival=Arrival.RANDOM_ORDER,
    )


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
    rewards = tuple(
        tuple(float(np.round(rng.uniform(0, 10), 3)) for _ in range(m)) for _ in range(n)
    )
    size = int(rng.integers(2, max_total + 2))
    values = sorted(rng.choice(max_total + 1, size=min(size, max_total + 1), replace=False).tolist())
    weights = rng.uniform(0.05, 1.0, size=len(values))
    weights = weights / weights.sum()
    probs = [float(np.round(w, 6)) for w in weights]
    probs[int(np.argmax(probs))] += 1.0 - sum(probs)
    total = DemandDistribution.from_pmf(dict(zip(values, probs)))
    tw = rng.uniform(0.05, 1.0, size=m)
    tw = tw / tw.sum()
    type_probs = [float(np.round(w, 6)) for w in tw]
    type_probs[int(np.argmax(type_probs))] += 1.0 - sum(type_probs)
    return Instance(
        rewards=rewards,
        capacities=caps,
        demand=CorrelDemandModel(total=total, type_probs=tuple(type_probs)),
        arrival=Arrival.RANDOM_ORDER,
    )


def random_feasible_column(
    rng: np.random.Generator, n: int, denominator: int = 48
) -> tuple[tuple[Fraction, ...], DemandDistribution]:
    """Random rational demand law plus a column feasible for its prefix bounds.

    Feasibility for unit capacities says: after sorting the column in
    descending order, each prefix sum stays within ``E[min(D, prefix)]``.
    The column is built directly against those budgets, then shuffled.
    """
    support_size = int(rng.integers(1, min(n, 4) + 1))
    values = sorted(rng.choice(n + 1, size=support_size, replace=False).tolist())
    weights = [int(rng.integers(1, 8)) for _ in values]
    total = sum(weights)
    dist = DemandDistribution.from_pmf(
        {v: Fraction(w, total) for v, w in zip(values, weights)}
    )
    sorted_col: list[Fraction] = []
    used = Fraction(0)
    for pos in range(1, n + 1):
        budget = dist.truncated_expectation(pos) - used
        ceiling = min(Fraction(1), budget, sorted_col[-1] if sorted_col else Fraction(1))
        if ceiling <= 0:
            sorted_col.append(Fraction(0))
            continue
        pick = Fraction(int(rng.integers(0, int(ceiling * denominator) + 1)), denominator)
        pick = min(pick, ceiling)
        sorted_col.append(pick)
        used += pick
    order = rng.permutation(n)
    column = [Fraction(0)] * n
    for rank, idx in enumerate(order):
        column[int(idx)] = sorted_col[rank]
    return tuple(column), dist


# ---------------------------------------------------------------------------
# ratio experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """One ratio experiment: a policy (or oracle) against a benchmark."""

    instance_id: str
    policy: str
    benchmark: str
    instance: Instance
    generator: str = "file"
    params: Mapping[str, Prob] = field(default_factory=dict)
    trials: int = 1
    seed: int = 0
    exact: bool = True

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}; pick one of {POLICIES}")
        if self.benchmark not in BENCHMARKS:
            raise ValueError(
                f"unknown benchmark {self.benchmark!r}; pick one of {BENCHMARKS}"
            )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")

    @classmethod
    def from_generator(
        cls,
        name: str,
        params: Mapping[str, Prob],
        policy: str,
        benchmark: str,
        trials: int = 1,
        seed: int = 0,
        exact: bool = True,
    ) -> "ExperimentConfig":
        inst = gen_counterexample(name, params)
        tag = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return cls(
            instance_id=f"{name}({tag})",
            policy=policy,
            benchmark=benchmark,
            instance=inst,
            generator=name,
            params=dict(params),
            trials=trials,
            seed=seed,
            exact=exact,
        )


@dataclass(frozen=True)
class RatioEstimate:
    """Numerator/denominator pair with provenance for the report."""

    instance_id: str
    generator: str
    params: str
    policy: str
    benchmark: str
    numerator: float
    denominator: float
    ratio: float
    stderr: float
    trials: int
    seed: int
    mode: str


def _numerator(cfg: ExperimentConfig) -> OracleValue:
    inst = cfg.instance
    if cfg.policy == "offline":
        return expected_offline(inst)
    if cfg.policy == "opt":
        result = optimal_online_dp(horizon_model_of(inst), inst)
        return OracleValue(value=result.value, mode="exact")
    if cfg.policy == "threshold":
        plan = plan_indep_adv_policy(inst)
        order = "worst" if inst.arrival is Arrival.ADVERSARIAL else "random"
        if cfg.exact:
            return exact_policy_value(plan, order=order)
        return mc_policy_value(plan, trials=cfg.trials, seed=cfg.seed, order=order)
    if cfg.policy == "horizon":
        plan = plan_horizon_policy_for(inst)
        if cfg.exact:
            return horizon_policy_value(plan)
        values = np.empty(cfg.trials)
        for t in range(cfg.trials):
            values[t] = run_horizon_trial(plan, trial_rng(cfg.seed, t))
        return OracleValue.from_samples(values)
    raise AssertionError(cfg.policy)


def _denominator(cfg: ExperimentConfig) -> float:
    inst = cfg.instance
    if cfg.benchmark == "fluid":
        return solve_lp(build_fluid_lp(inst)).objective_value
    if cfg.benchmark == "trunc":
        return build_truncated_lp(inst).solution.objective_value
    if cfg.benchmark == "cond":
        model = horizon_model_of(inst)
        return solve_lp(conditional_lp(model, inst)).objective_value
    if cfg.benchmark == "off":
        return expected_offline(inst).value
    if cfg.benchmark == "opt":
        return optimal_online_dp(horizon_model_of(inst), inst).value
    raise AssertionError(cfg.benchmark)


def run_experiment(cfg: ExperimentConfig) -> RatioEstimate:
    """Compute the configured ratio; deterministic given the seed."""
    numerator = _numerator(cfg)
    denominator = _denominator(cfg)
    ratio = numerator.value / denominator if denominator != 0 else float("nan")
    params = ",".join(f"{k}={v}" for k, v in sorted(cfg.params.items()))
    return RatioEstimate(
        instance_id=cfg.instance_id,
        generator=cfg.generator,
        params=params,
        policy=cfg.policy,
        benchmark=cfg.benchmark,
        numerator=numerator.value,
        denominator=denominator,
        ratio=ratio,
        stderr=numerator.stderr,
        trials=numerator.trials if numerator.mode == "monte-carlo" else cfg.trials,
        seed=cfg.seed,
        mode=numerator.mode,
    )


_COLUMNS = (
    "instance_id",
    "generator",
    "params",
    "policy",
    "benchmark",
    "numerator",
    "denominator",
    "ratio",
    "stderr",
    "trials",
    "seed",
    "mode",
)


def report(results: Sequence[RatioEstimate]) -> tuple[str, str]:
    """Render results as (CSV text, Markdown table) with a stable layout."""
    csv_lines = [",".join(_COLUMNS)]
    md_lines = [
        "| " + " | ".join(_COLUMNS) + " |",
        "|" + "---|" * len(_COLUMNS),
    ]
    for r in results:
        cells = [
            r.instance_id,
            r.generator,
            r.params,
            r.policy,
            r.benchmark,
            f"{r.numerator:.9g}",
            f"{r.denominator:.9g}",
            f"{r.ratio:.6f}",
            f"{r.stderr:.9g}",
            str(r.trials),
            str(r.seed),
            r.mode,
        ]
        csv_lines.append(",".join(cell.replace(",", ";") for cell in cells))
        md_lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(csv_lines) + "\n", "\n".join(md_lines) + "\n"
