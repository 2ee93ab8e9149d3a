"""The pinned verification suite.

Twelve checks, each verifying one guarantee, gap construction, or golden
value at its stated tolerance and scale.  They are exposed here (rather
than only in the test tree) so the command line can re-run any of them:
``demandmatch reproduce all``.

Every check is deterministic: random suites use pinned seeds with
counter-derived substreams.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .builtin import EXAMPLES
from .demand import trial_rng
from .experiments import (
    gen_counterexample,
    random_feasible_column,
    random_horizon_instance,
    random_indep_instance,
)
from .linprog import solve_lp
from .oracles import (
    exact_policy_value,
    expected_offline,
    horizon_policy_value,
    optimal_online_dp,
)
from .policies import best_static_threshold, plan_horizon_policy_for, plan_indep_adv_policy
from .relaxations import (
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    enumerate_violated_cut,
    horizon_model_of,
    separation_oracle,
)
from .rounding import RoundingState, typeround, verify_marginals

TOL = 1e-9


@dataclass(frozen=True)
class CriterionResult:
    key: str
    description: str
    passed: bool
    detail: str
    seconds: float


def _result(key: str, description: str, started: float, ok: bool, detail: str) -> CriterionResult:
    return CriterionResult(
        key=key,
        description=description,
        passed=ok,
        detail=detail,
        seconds=time.perf_counter() - started,
    )


def check_fluid_gap() -> CriterionResult:
    """Exact prophet/fluid ratio equals eps on the two-point family."""
    started = time.perf_counter()
    rows = []
    ok = True
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        inst = gen_counterexample("fluid_gap_single", {"eps": eps})
        fluid = solve_lp(build_fluid_lp(inst)).objective_value
        off = expected_offline(inst).value
        ratio = off / fluid
        ok = ok and abs(ratio - float(eps)) <= TOL
        rows.append(f"eps={eps}: off/fluid={ratio:.12f}")
    return _result("fluid-gap", "prophet/fluid ratio equals eps exactly", started, ok, "; ".join(rows))


def check_fluid_gap_capped() -> CriterionResult:
    """Demand capped by total capacity: fluid still loose, tightened LP exact."""
    started = time.perf_counter()
    rows = []
    ok = True
    for n in (5, 10):
        inst = gen_counterexample("fluid_gap_capped", {"n": n})
        fluid = solve_lp(build_fluid_lp(inst)).objective_value
        trunc = build_truncated_lp(inst).solution.objective_value
        off = expected_offline(inst).value
        ok = ok and abs(off / fluid - 1.0 / n) <= TOL
        ok = ok and abs(off / trunc - 1.0) <= TOL
        rows.append(f"n={n}: off/fluid={off / fluid:.12f}, off/trunc={off / trunc:.12f}")
    return _result(
        "fluid-gap-capped",
        "capped-demand family: off/fluid = 1/n, off/trunc = 1",
        started,
        ok,
        "; ".join(rows),
    )


def check_lp_ordering(count: int = 500, seed: int = 1001) -> CriterionResult:
    """off <= tightened <= fluid on random independent-demand instances."""
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for trial in range(count):
        inst = random_indep_instance(trial_rng(seed, trial), max_n=4, max_m=4, max_support=4)
        off = expected_offline(inst).value
        trunc = build_truncated_lp(inst).solution.objective_value
        fluid = solve_lp(build_fluid_lp(inst)).objective_value
        worst = max(worst, off - trunc, trunc - fluid)
        if off > trunc + TOL or trunc > fluid + TOL:
            ok = False
            break
    return _result(
        "lp-ordering",
        f"off <= trunc <= fluid on {count} random instances",
        started,
        ok,
        f"worst violation {worst:.3e}",
    )


def check_rounding_golden() -> CriterionResult:
    """Both worked rounding examples reproduce exactly in rational mode."""
    started = time.perf_counter()
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
    branches = {tuple(a): p for a, p in state.branches}
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

    return _result(
        "rounding-golden",
        "worked rounding examples reproduce exactly (rational mode)",
        started,
        not problems,
        "; ".join(problems) or "both examples exact",
    )


def check_rounding_properties(count: int = 10_000, seed: int = 2002) -> CriterionResult:
    """Stage invariants, feasibility of every stage, and exact marginals
    on random rational feasible columns."""
    started = time.perf_counter()
    worst_detail = ""
    ok = True
    for trial in range(count):
        rng = trial_rng(seed, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        state = RoundingState(dist, n, track_branches=True)
        for idx in range(n):
            state.advance(column[idx])  # raises on any mid-scheme shortfall
            problems = state.check_invariants()
            if problems:
                ok = False
                worst_detail = f"trial {trial} stage {idx}: {problems[0]}"
                break
        if not ok:
            break
        rd = typeround(column, dist)
        report = verify_marginals(rd, column, dist)
        if not report.exact:
            ok = False
            worst_detail = f"trial {trial}: marginal error {report.max_abs_error}"
            break
    return _result(
        "rounding-properties",
        f"stage invariants and exact marginals on {count} random columns",
        started,
        ok,
        worst_detail or "all stages clean",
    )


def check_adversarial_guarantee(count: int = 200, seed: int = 3003) -> CriterionResult:
    """Exact worst-order policy value clears half the tightened LP."""
    started = time.perf_counter()
    worst_ratio = float("inf")
    ok = True
    detail = ""
    for trial in range(count):
        inst = random_indep_instance(
            trial_rng(seed, trial),
            max_n=3,
            max_m=3,
            max_support=3,
            max_value=2,
            max_total_capacity=3,
        )
        plan = plan_indep_adv_policy(inst)
        value = exact_policy_value(plan, order="worst").value
        if value < plan.lp_value / 2 - TOL:
            ok = False
            detail = f"trial {trial}: value {value} < half of {plan.lp_value}"
            break
        if plan.lp_value > 1e-12:
            worst_ratio = min(worst_ratio, value / plan.lp_value)
    return _result(
        "adversarial-guarantee",
        f"worst-order policy value >= trunc/2 on {count} random instances",
        started,
        ok,
        detail or f"worst observed ratio {worst_ratio:.6f}",
    )


def check_capacity_tightness() -> CriterionResult:
    """Two-stage-reward family: prophet worth (2-eps)k1, online capped at k1."""
    started = time.perf_counter()
    eps = 0.05
    rows = []
    ok = True
    for k1 in (1, 5):
        inst = gen_counterexample("two_stage_reward", {"eps": eps, "k1": k1})
        off = expected_offline(inst).value
        ok = ok and abs(off - (2 - eps) * k1) <= TOL
        plan = plan_indep_adv_policy(inst)
        value = exact_policy_value(plan, order="worst").value
        ok = ok and value <= k1 + TOL
        rows.append(f"k1={k1}: off={off:.9f}, policy={value:.9f}, ratio={value / off:.6f}")
    return _result(
        "capacity-tightness",
        "prophet equals (2-eps)k1 while any online value stays at k1",
        started,
        ok,
        "; ".join(rows),
    )


def check_online_lp_ordering(count: int = 500, seed: int = 4004) -> CriterionResult:
    """Optimal online value never exceeds the conditional LP."""
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for trial in range(count):
        inst = random_horizon_instance(trial_rng(seed, trial), max_horizon=4, max_n=3, max_m=3)
        model = horizon_model_of(inst)
        opt = optimal_online_dp(model, inst).value
        lp = solve_lp(conditional_lp(model, inst)).objective_value
        worst = max(worst, opt - lp)
        if opt > lp + TOL:
            ok = False
            break
    return _result(
        "online-lp-ordering",
        f"online optimum <= conditional LP on {count} random horizons",
        started,
        ok,
        f"worst violation {worst:.3e}",
    )


def check_horizon_guarantee(count: int = 200, seed: int = 5005) -> CriterionResult:
    """Horizon policy clears cond/2, and the capacity-k floor with k in {2,4}."""
    started = time.perf_counter()
    ok = True
    detail = ""
    worst_half = float("inf")
    for trial in range(count):
        inst = random_horizon_instance(trial_rng(seed, trial), max_horizon=4, max_n=3, max_m=3)
        plan = plan_horizon_policy_for(inst)
        value = horizon_policy_value(plan).value
        if value < plan.lp_value / 2 - TOL:
            ok = False
            detail = f"trial {trial}: value {value} < half of {plan.lp_value}"
            break
        if plan.lp_value > 1e-12:
            worst_half = min(worst_half, value / plan.lp_value)
    floors = []
    if ok:
        for k in (2, 4):
            floor = 1.0 - 1.0 / math.sqrt(k + 3)
            worst_k = float("inf")
            for trial in range(count // 2):
                inst = random_horizon_instance(
                    trial_rng(seed + k, trial), max_horizon=4, max_n=3, max_m=3, fixed_capacity=k
                )
                plan = plan_horizon_policy_for(inst)
                value = horizon_policy_value(plan).value
                if value < floor * plan.lp_value - TOL:
                    ok = False
                    detail = f"k={k} trial {trial}: value {value} < {floor} * {plan.lp_value}"
                    break
                if plan.lp_value > 1e-12:
                    worst_k = min(worst_k, value / plan.lp_value)
            floors.append(f"k={k}: worst ratio {worst_k:.6f} >= {floor:.6f}")
            if not ok:
                break
    return _result(
        "horizon-guarantee",
        f"horizon policy >= cond/2 on {count} horizons, capacity floors at k=2,4",
        started,
        ok,
        detail or f"worst half-ratio {worst_half:.6f}; " + "; ".join(floors),
    )


def check_static_threshold_gap() -> CriterionResult:
    """Escalating rewards: every fixed bar stalls near 4, adaptivity scales."""
    started = time.perf_counter()
    eps = 0.1
    ok = True
    rows = []
    ratios = []
    for horizon in (4, 6, 8):
        inst = gen_counterexample("escalating_rewards", {"T": horizon, "eps": eps})
        model = horizon_model_of(inst)
        _, static_value = best_static_threshold(model, inst)
        opt = optimal_online_dp(model, inst).value
        ratios.append(static_value / opt)
        if horizon == 6:
            ok = ok and static_value <= 4.0 + TOL
            ok = ok and opt >= 6 * 0.9**6 - TOL
        rows.append(f"T={horizon}: static={static_value:.6f}, opt={opt:.6f}")
    ok = ok and ratios[0] > ratios[1] > ratios[2]
    return _result(
        "static-threshold-gap",
        "fixed bars cap near 4 while the adaptive optimum grows with T",
        started,
        ok,
        "; ".join(rows) + f"; ratios {['%.4f' % r for r in ratios]}",
    )


def check_conditional_tightness() -> CriterionResult:
    """Rare-long-horizon family: cond LP nearly 2, online optimum near 1."""
    started = time.perf_counter()
    ok = True
    rows = []
    ratios = []
    for big in (5, 10, 20):
        inst = gen_counterexample("rare_long_horizon", {"N": big})
        model = horizon_model_of(inst)
        lp = solve_lp(conditional_lp(model, inst)).objective_value
        opt = optimal_online_dp(model, inst).value
        ratios.append(opt / lp)
        ok = ok and lp >= 2 - 1.0 / big**3 - TOL
        ok = ok and 1.0 - TOL <= opt <= 1.0 + 3.0 / big + TOL
        rows.append(f"N={big}: cond={lp:.9f}, opt={opt:.9f}, ratio={opt / lp:.6f}")
    ok = ok and ratios[0] > ratios[1] > ratios[2] > 0.5
    return _result(
        "conditional-tightness",
        "cond LP >= 2 - 1/N^3, online optimum in [1, 1 + 3/N], ratio falls toward 1/2",
        started,
        ok,
        "; ".join(rows),
    )


def check_oracle_equivalence(count: int = 200, seed: int = 6006) -> CriterionResult:
    """Knapsack separation verdict matches full subset enumeration."""
    started = time.perf_counter()
    ok = True
    detail = ""
    for trial in range(count):
        rng = trial_rng(seed, trial)
        inst = random_indep_instance(
            rng, max_n=12, max_m=2, max_support=4, max_value=6, max_total_capacity=16
        )
        x = rng.uniform(0.0, 1.2, size=inst.n * inst.m)
        fast = separation_oracle(x, inst)
        slow = enumerate_violated_cut(x, inst)
        if (fast is None) != (slow is None):
            ok = False
            detail = f"trial {trial}: oracle {fast}, enumeration {slow}"
            break
        if fast is not None:
            load = sum(x[i * inst.m + fast.type_index] for i in fast.subset)
            if load <= fast.rhs + TOL:
                ok = False
                detail = f"trial {trial}: returned cut not violated: {fast}"
                break
    return _result(
        "oracle-equivalence",
        f"separation verdict matches 2^n enumeration on {count} candidates",
        started,
        ok,
        detail or "all verdicts agree",
    )


CRITERIA: dict[str, Callable[[], CriterionResult]] = {
    "fluid-gap": check_fluid_gap,
    "fluid-gap-capped": check_fluid_gap_capped,
    "lp-ordering": check_lp_ordering,
    "rounding-golden": check_rounding_golden,
    "rounding-properties": check_rounding_properties,
    "adversarial-guarantee": check_adversarial_guarantee,
    "capacity-tightness": check_capacity_tightness,
    "online-lp-ordering": check_online_lp_ordering,
    "horizon-guarantee": check_horizon_guarantee,
    "static-threshold-gap": check_static_threshold_gap,
    "conditional-tightness": check_conditional_tightness,
    "oracle-equivalence": check_oracle_equivalence,
}


def run_acceptance(
    names: Optional[Sequence[str]] = None, echo: Optional[Callable[[str], None]] = None
) -> list[CriterionResult]:
    """Run the selected (default: all) checks, echoing one line per result."""
    selected = list(CRITERIA) if not names else list(names)
    results = []
    for name in selected:
        if name not in CRITERIA:
            raise KeyError(f"unknown check {name!r}; known: {', '.join(CRITERIA)}")
        result = CRITERIA[name]()
        results.append(result)
        if echo is not None:
            mark = "PASS" if result.passed else "FAIL"
            echo(f"[{mark}] {result.key} ({result.seconds:.1f}s) {result.detail}")
    return results
