"""The pinned verification suite.

Thirteen checks, each verifying one guarantee, gap construction, or golden
value at its stated tolerance and scale.  They are exposed here (rather
than only in the test tree) so the command line can re-run any of them:
``demandmatch reproduce all``, or ``demandmatch verify-invariants`` for the
randomized ones at other counts and seeds.

Every check is deterministic: random suites use pinned seeds with
counter-derived substreams.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .builtin import EXAMPLES
from .demand import trial_rng
from .experiments import (
    gen_counterexample,
    random_feasible_column,
    random_horizon_instance,
    random_indep_instance,
)
from .oracles import (
    exact_policy_value,
    expected_offline,
    horizon_policy_value,
    optimal_online_dp,
)
from .policies import (
    best_static_threshold,
    ocrs_plan,
    plan_horizon_policy,
    plan_indep_adv_policy,
)
from .relaxations import enumerate_violated_cut, separation_oracle, solve_relaxation
from .rounding import RoundingState, typeround, verify_marginals

TOL = 1e-9


@dataclass(frozen=True)
class CriterionResult:
    key: str
    description: str
    passed: bool
    detail: str
    seconds: float


#: every check by key, in registration order; ``_criterion`` fills it
CRITERIA: dict[str, Callable[..., CriterionResult]] = {}


def _criterion(key: str, description: str) -> Callable[[Callable], Callable[..., CriterionResult]]:
    """Turn a check that returns ``(passed, detail)`` into one that returns a
    timed `CriterionResult`, and register it in `CRITERIA` under ``key``.
    The description may name the check's arguments, as in
    ``"... on {count} random instances"``."""

    def wrap(check: Callable[..., tuple[bool, str]]) -> Callable[..., CriterionResult]:
        signature = inspect.signature(check)

        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            started = time.perf_counter()
            passed, detail = check(*args, **kwargs)
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            text = description.format_map(bound.arguments)
            return CriterionResult(key, text, passed, detail, time.perf_counter() - started)

        CRITERIA[key] = run
        return run

    return wrap


@_criterion("fluid-gap", "prophet/fluid ratio equals eps exactly")
def check_fluid_gap() -> tuple[bool, str]:
    """Exact prophet/fluid ratio equals eps on the two-point family."""
    rows = []
    ok = True
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        inst = gen_counterexample("fluid_gap_single", {"eps": eps})
        fluid = solve_relaxation("fluid", inst)[1].objective_value
        off = expected_offline(inst).value
        ratio = off / fluid
        ok = ok and abs(ratio - float(eps)) <= TOL
        rows.append(f"eps={eps}: off/fluid={ratio:.12f}")
    return ok, "; ".join(rows)


@_criterion("fluid-gap-capped", "capped-demand family: off/fluid = 1/n, off/trunc = 1")
def check_fluid_gap_capped() -> tuple[bool, str]:
    """Demand capped by total capacity: fluid still loose, tightened LP exact."""
    rows = []
    ok = True
    for n in (5, 10):
        inst = gen_counterexample("fluid_gap_capped", {"n": n})
        fluid = solve_relaxation("fluid", inst)[1].objective_value
        trunc = solve_relaxation("trunc", inst)[1].objective_value
        off = expected_offline(inst).value
        ok = ok and abs(off / fluid - 1.0 / n) <= TOL
        ok = ok and abs(off / trunc - 1.0) <= TOL
        rows.append(f"n={n}: off/fluid={off / fluid:.12f}, off/trunc={off / trunc:.12f}")
    return ok, "; ".join(rows)


@_criterion("lp-ordering", "off <= trunc <= fluid on {count} random instances")
def check_lp_ordering(count: int = 500, seed: int = 1001) -> tuple[bool, str]:
    """off <= tightened <= fluid on random independent-demand instances."""
    worst = 0.0
    for trial in range(count):
        inst = random_indep_instance(trial_rng(seed, trial), max_n=4, max_m=4, max_support=4)
        off = expected_offline(inst).value
        trunc = solve_relaxation("trunc", inst)[1].objective_value
        fluid = solve_relaxation("fluid", inst)[1].objective_value
        worst = max(worst, off - trunc, trunc - fluid)
        if off > trunc + TOL or trunc > fluid + TOL:
            return False, f"trial {trial}: violation {worst:.3e}"
    return True, f"worst violation {worst:.3e}"


@_criterion("rounding-golden", "worked rounding examples reproduce exactly (rational mode)")
def check_rounding_golden() -> tuple[bool, str]:
    """Both worked rounding examples reproduce exactly in rational mode."""
    problems: list[str] = []

    ex = EXAMPLES["demo3"]
    rd = typeround(ex.column, ex.dist)
    got = {r.assignment: p for r, p in rd.branches()}
    want = {
        (0, 1, 2): Fraction(5, 12),
        (1, 0, 2): Fraction(5, 12),
        (0, 2, 1): Fraction(1, 12),
        (2, 0, 1): Fraction(1, 12),
    }
    if got != want:
        problems.append(f"demo3 support mismatch: {got}")
    report = verify_marginals(rd, ex.column, ex.dist)
    if report.achieved != (Fraction(3, 4), Fraction(2, 3), Fraction(1, 3)):
        problems.append(f"demo3 marginals {report.achieved}")

    ex5 = EXAMPLES["demo5"]
    state = RoundingState(ex5.dist, 5, track_branches=True)
    for x in ex5.column[:3]:
        state.advance(x)
    branches = {tuple(a): Fraction(w, state.branch_den) for a, w in state.branches}
    want5 = {
        (2, 1, None, 0, None): Fraction(2, 5),
        (2, None, 1, 0, None): Fraction(2, 5),
        (None, 2, 1, 0, None): Fraction(1, 10),
        (None, 1, 2, 0, None): Fraction(1, 10),
    }
    if branches != want5:
        problems.append(f"demo5 stage-3 branches: {branches}")
    if len(state.segments) != 2:
        problems.append(f"demo5 stage-3 segments: {state.segments}")

    return not problems, "; ".join(problems) or "both examples exact"


@_criterion("rounding-properties", "stage invariants and exact marginals on {count} random columns")
def check_rounding_properties(count: int = 10_000, seed: int = 2002) -> tuple[bool, str]:
    """Stage invariants, feasibility of every stage, and exact marginals
    on random rational feasible columns."""
    for trial in range(count):
        rng = trial_rng(seed, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        state = RoundingState(dist, n, track_branches=True)
        for idx in range(n):
            state.advance(column[idx])  # raises on any mid-scheme shortfall
            problems = state.check_invariants()
            if problems:
                return False, f"trial {trial} stage {idx}: {problems[0]}"
        report = verify_marginals(state.distribution(), column, dist)
        if not report.exact:
            return False, f"trial {trial}: marginal error {report.max_abs_error}"
    return True, "all stages clean"


def _guarantee_sweep(
    trial: Callable[[np.random.Generator], tuple[float, float]], floor: float, count: int, seed: int
) -> tuple[str, float, int]:
    """Run ``trial(rng) -> (policy value, LP value)`` on ``count`` seeded
    streams, stopping at the first value below ``floor * LP``.  Returns that
    shortfall ("" if none), the worst ratio over LP values above 1e-12, and
    how many trials had such an LP value (the rest check nothing)."""
    worst, checked = float("inf"), 0
    for t in range(count):
        value, lp_value = trial(trial_rng(seed, t))
        if value < floor * lp_value - TOL:
            return f"trial {t}: value {value} < {floor} * {lp_value}", worst, checked
        if lp_value > 1e-12:
            worst = min(worst, value / lp_value)
            checked += 1
    return "", worst, checked


@_criterion(
    "adversarial-guarantee",
    "worst-order policy value >= trunc/2 on {count} random instances",
)
def check_adversarial_guarantee(count: int = 200, seed: int = 3003) -> tuple[bool, str]:
    """Exact worst-order policy value clears half the tightened LP."""

    def trial(rng: np.random.Generator) -> tuple[float, float]:
        while True:  # a truncated LP of 0 checks nothing: draw again from the trial's stream
            inst = random_indep_instance(
                rng, max_n=3, max_m=3, max_support=3, max_value=2, max_total_capacity=3
            )
            plan = plan_indep_adv_policy(inst)
            if plan.lp_value > 1e-12:
                return exact_policy_value(plan).value, plan.lp_value

    failure, worst, checked = _guarantee_sweep(trial, 0.5, count, seed)
    return not failure, failure or f"worst observed ratio {worst:.6f} over {checked} of {count} trials with LP > 1e-12"


@_criterion("capacity-tightness", "prophet equals (2-eps)k1 while any online value stays at k1")
def check_capacity_tightness() -> tuple[bool, str]:
    """Two-stage-reward family: prophet worth (2-eps)k1, online capped at k1."""
    eps = 0.05
    rows = []
    ok = True
    for k1 in (1, 5):
        inst = gen_counterexample("two_stage_reward", {"eps": eps, "k1": k1})
        off = expected_offline(inst).value
        ok = ok and abs(off - (2 - eps) * k1) <= TOL
        plan = plan_indep_adv_policy(inst)
        value = exact_policy_value(plan).value
        ok = ok and value <= k1 + TOL
        rows.append(f"k1={k1}: off={off:.9f}, policy={value:.9f}, ratio={value / off:.6f}")
    return ok, "; ".join(rows)


@_criterion("online-lp-ordering", "online optimum <= conditional LP on {count} random horizons")
def check_online_lp_ordering(count: int = 500, seed: int = 4004) -> tuple[bool, str]:
    """Optimal online value never exceeds the conditional LP."""
    worst = 0.0
    for trial in range(count):
        inst = random_horizon_instance(trial_rng(seed, trial), max_horizon=4, max_n=3, max_m=3)
        opt = optimal_online_dp(inst.demand.to_horizon(), inst).value
        lp = solve_relaxation("cond", inst)[1].objective_value
        worst = max(worst, opt - lp)
        if opt > lp + TOL:
            return False, f"trial {trial}: violation {worst:.3e}"
    return True, f"worst violation {worst:.3e}"


def _horizon_trial(rng: np.random.Generator, capacity: Optional[int] = None) -> tuple[float, float]:
    inst = random_horizon_instance(rng, max_horizon=4, max_n=3, max_m=3, fixed_capacity=capacity)
    plan = plan_horizon_policy(inst.demand.to_horizon(), inst)
    return horizon_policy_value(plan).value, plan.lp_value


@_criterion(
    "horizon-guarantee",
    "horizon policy >= cond/2 on {count} horizons, capacity floors at k=2,4",
)
def check_horizon_guarantee(count: int = 200, seed: int = 5005) -> tuple[bool, str]:
    """Horizon policy clears cond/2, and the capacity-k floor with k in {2,4}."""
    failure, worst_half, _ = _guarantee_sweep(_horizon_trial, 0.5, count, seed)
    floors = []
    for k in (2, 4):
        if failure:
            break
        floor = 1.0 - 1.0 / math.sqrt(k + 3)
        trial = functools.partial(_horizon_trial, capacity=k)
        failure, worst, _ = _guarantee_sweep(trial, floor, count // 2, seed + k)
        failure = failure and f"k={k} {failure}"
        floors.append(f"k={k}: worst ratio {worst:.6f} >= {floor:.6f}")
    return not failure, failure or f"worst half-ratio {worst_half:.6f}; " + "; ".join(floors)


@_criterion("static-threshold-gap", "fixed bars cap near 4 while the adaptive optimum grows with T")
def check_static_threshold_gap() -> tuple[bool, str]:
    """Escalating rewards: every fixed bar stalls near 4, adaptivity scales."""
    eps = 0.1
    ok = True
    rows = []
    ratios = []
    for horizon in (4, 6, 8):
        inst = gen_counterexample("escalating_rewards", {"T": horizon, "eps": eps})
        model = inst.demand.to_horizon()
        _, static_value = best_static_threshold(model, inst)
        opt = optimal_online_dp(model, inst).value
        ratios.append(static_value / opt)
        if horizon == 6:
            ok = ok and static_value <= 4.0 + TOL
            ok = ok and opt >= 6 * 0.9**6 - TOL
        rows.append(f"T={horizon}: static={static_value:.6f}, opt={opt:.6f}")
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    return ok, "; ".join(rows) + f"; ratios {['%.4f' % r for r in ratios]}"


@_criterion(
    "conditional-tightness",
    "cond LP >= 2 - 1/N^3, online optimum in [1, 1 + 3/N], ratio falls toward 1/2",
)
def check_conditional_tightness() -> tuple[bool, str]:
    """Rare-long-horizon family: cond LP nearly 2, online optimum near 1."""
    ok = True
    rows = []
    ratios = []
    for big in (5, 10, 20):
        inst = gen_counterexample("rare_long_horizon", {"N": big})
        lp = solve_relaxation("cond", inst)[1].objective_value
        opt = optimal_online_dp(inst.demand.to_horizon(), inst).value
        ratios.append(opt / lp)
        ok = ok and lp >= 2 - 1.0 / big**3 - TOL
        ok = ok and 1.0 - TOL <= opt <= 1.0 + 3.0 / big + TOL
        rows.append(f"N={big}: cond={lp:.9f}, opt={opt:.9f}, ratio={opt / lp:.6f}")
    ok = ok and ratios[0] > ratios[1] > ratios[2] > 0.5
    return ok, "; ".join(rows)


@_criterion(
    "oracle-equivalence",
    "separation verdict matches 2^n enumeration on {count} candidates",
)
def check_oracle_equivalence(count: int = 200, seed: int = 6006) -> tuple[bool, str]:
    """Density-sort separation verdict matches full subset enumeration."""
    for trial in range(count):
        rng = trial_rng(seed, trial)
        inst = random_indep_instance(
            rng, max_n=12, max_m=2, max_support=4, max_value=6, max_total_capacity=16
        )
        x = rng.uniform(0.0, 1.2, size=inst.n * inst.m)
        fast = separation_oracle(x, inst)
        slow = enumerate_violated_cut(x, inst)
        if (fast is None) != (slow is None):
            return False, f"trial {trial}: oracle {fast}, enumeration {slow}"
        if fast is not None:
            load = sum(x[i * inst.m + fast.type_index] for i in fast.subset)
            if load <= fast.rhs + TOL:
                return False, f"trial {trial}: returned cut not violated: {fast}"
    return True, "all verdicts agree"


@_criterion("ocrs-schedule", "OCRS accepts exactly gamma * rate per step, gamma >= floor, on {count} schedules")
def check_ocrs_schedule(count: int = 1000, seed: int = 7007) -> tuple[bool, str]:
    """Each step's unconditional acceptance ``rate * availability * accept``
    equals ``gamma * rate`` on random schedules within the capacity budget,
    and ``gamma`` clears the floor ``1 - 1/sqrt(k+3)``."""
    worst, margin = 0.0, math.inf
    for trial in range(count):
        rng = trial_rng(seed, trial)
        k = int(rng.integers(1, 5))
        steps = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 1.0, size=steps)
        scale = rng.uniform(0.3, 1.0) * k / max(rates.sum(), 1e-9)
        plan = ocrs_plan(np.minimum(rates * min(scale, 1.0), 1.0).tolist(), k)
        margin = min(margin, plan.gamma - (1.0 - 1.0 / math.sqrt(k + 3)))
        if margin < -TOL:
            return False, f"trial {trial}: gamma {plan.gamma} falls {-margin:.3e} below the k={k} floor"
        for t, y in enumerate(plan.rates):
            got = y * plan.availability[t] * plan.accept_probs[t]
            worst = max(worst, abs(got - plan.gamma * y))
            if worst > TOL:
                return False, f"trial {trial} step {t}: {got} vs {plan.gamma * y}"
    return True, f"worst deviation {worst:.3e}, least margin over the floor {margin:.4f}"


def run_acceptance(names: Optional[Sequence[str]] = None) -> Iterator[CriterionResult]:
    """Run the selected (default: all) checks, yielding each result as it finishes."""
    for name in names or CRITERIA:
        if name not in CRITERIA:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CRITERIA)}")
        yield CRITERIA[name]()
