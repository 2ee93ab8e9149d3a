"""Offline optima, exact expectations, the online DP, and order search."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

import demandmatch as dm
from demandmatch.demand import RealizedDemand, trial_rng
from demandmatch.experiments import (
    gen_counterexample,
    random_horizon_instance,
    random_indep_instance,
)
from demandmatch.oracles import (
    exact_policy_value,
    expected_offline,
    mc_policy_value,
    offline_optimum,
    optimal_online_dp,
    threshold_value_for_order,
    worst_case_order,
)
from demandmatch.policies import plan_indep_adv_policy
from demandmatch.relaxations import horizon_model_of


def brute_force_offline(inst, counts):
    """Enumerate every assignment of realized queries to resources."""
    queries = [j for j, c in enumerate(counts) for _ in range(c)]

    def best(idx, caps):
        if idx == len(queries):
            return 0.0
        j = queries[idx]
        value = best(idx + 1, caps)  # leave it unmatched
        for i in range(inst.n):
            if caps[i] > 0:
                reduced = caps[:i] + (caps[i] - 1,) + caps[i + 1 :]
                value = max(value, inst.rewards[i][j] + best(idx + 1, reduced))
        return value

    return best(0, tuple(inst.capacities))


class TestOfflineOptimum:
    def test_no_demand(self):
        inst = random_indep_instance(np.random.default_rng(0))
        assert offline_optimum(inst, tuple(0 for _ in range(inst.m))) == 0.0

    def test_small_assignment(self):
        dist = dm.DemandDistribution.point_mass(1)
        inst = dm.Instance(
            rewards=((1.0, 2.0), (3.0, 0.0)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist, dist)),
        )
        assert offline_optimum(inst, (1, 1)) == pytest.approx(5.0, abs=1e-9)

    def test_unsolvable_lp_raises(self):
        # a negative count is a negative demand rhs, outside the LP normal form
        inst = random_indep_instance(np.random.default_rng(0), max_m=1)
        with pytest.raises(ValueError, match="nonnegative"):
            offline_optimum(inst, (-1,))

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_assignment_enumeration(self, trial):
        rng = trial_rng(2100, trial)
        inst = random_indep_instance(rng, max_n=3, max_m=3, max_support=3, max_value=2)
        counts = tuple(int(rng.integers(0, 3)) for _ in range(inst.m))
        assert offline_optimum(inst, counts) == pytest.approx(
            brute_force_offline(inst, counts), abs=1e-8
        )

    def test_monotone_in_demand_and_capacity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            inst = random_indep_instance(rng, max_n=3, max_m=3, max_support=3, max_value=2)
            counts = tuple(int(rng.integers(0, 3)) for _ in range(inst.m))
            base = offline_optimum(inst, counts)
            j = int(rng.integers(0, inst.m))
            bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
            assert offline_optimum(inst, bumped) >= base - 1e-9
            i = int(rng.integers(0, inst.n))
            more_cap = dm.Instance(
                rewards=inst.rewards,
                capacities=inst.capacities[:i]
                + (inst.capacities[i] + 1,)
                + inst.capacities[i + 1 :],
                demand=inst.demand,
                arrival=inst.arrival,
            )
            assert offline_optimum(more_cap, counts) >= base - 1e-9


class TestExpectedOffline:
    def test_two_point_family(self):
        inst = gen_counterexample("fluid_gap_single", {"eps": Fraction(1, 4)})
        result = expected_offline(inst)
        assert result.mode == "exact"
        assert result.value == pytest.approx(0.25, abs=1e-12)

    def test_capped_family(self):
        inst = gen_counterexample("fluid_gap_capped", {"n": 10})
        assert expected_offline(inst).value == pytest.approx(0.1, abs=1e-12)

    def test_two_stage_reward_family(self):
        inst = gen_counterexample("two_stage_reward", {"eps": 0.05, "k1": 5})
        assert expected_offline(inst).value == pytest.approx((2 - 0.05) * 5, abs=1e-9)

    def test_deterministic_demand_equals_single_realization(self):
        dist0 = dm.DemandDistribution.point_mass(2)
        dist1 = dm.DemandDistribution.point_mass(1)
        inst = dm.Instance(
            rewards=((1.0, 4.0), (2.0, 2.0)),
            capacities=(1, 2),
            demand=dm.IndepDemandModel((dist0, dist1)),
        )
        assert expected_offline(inst).value == pytest.approx(
            offline_optimum(inst, (2, 1)), abs=1e-12
        )

    def test_monte_carlo_fallback_reports_mode(self):
        dist = dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.5})
        inst = dm.Instance(
            rewards=((1.0, 2.0),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dist, dist)),
        )
        result = expected_offline(inst, support_cap=1, trials=4000, seed=9)
        assert result.mode == "monte-carlo"
        assert result.stderr > 0
        exact = expected_offline(inst).value
        assert abs(result.value - exact) <= 4 * result.stderr


class TestOptimalOnlineDp:
    def test_single_certain_query(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((1.0,),)
        )
        inst = dm.Instance(
            rewards=((5.0,),), capacities=(1,), demand=model, arrival=dm.Arrival.RANDOM_ORDER
        )
        result = optimal_online_dp(model, inst)
        assert result.value == pytest.approx(5.0, abs=1e-12)
        assert result.table[(1, (1,))] == (0,)

    def test_escalating_family_floor(self):
        inst = gen_counterexample("escalating_rewards", {"T": 3, "eps": 0.1})
        model = horizon_model_of(inst)
        value = optimal_online_dp(model, inst).value
        assert value >= 3 * 0.9**3 - 1e-9

    def test_rare_long_horizon_window(self):
        inst = gen_counterexample("rare_long_horizon", {"N": 10})
        model = horizon_model_of(inst)
        value = optimal_online_dp(model, inst).value
        assert 1.0 - 1e-9 <= value <= 1.0 + 0.3 + 1e-9

    def test_invariant_to_zero_probability_tail(self):
        inst = random_horizon_instance(np.random.default_rng(4), max_horizon=3)
        model = horizon_model_of(inst)
        base = optimal_online_dp(model, inst).value
        padded_total = dm.DemandDistribution.from_pmf(
            {**model.total.pmf, model.horizon + 2: 0.0}
        )
        # appending a zero-probability step must not change the optimum
        assert padded_total.max_support == model.horizon
        assert optimal_online_dp(
            dm.StochasticHorizonModel(total=padded_total, probs=model.probs), inst
        ).value == pytest.approx(base, abs=1e-12)

    def test_rejects_oversized_state_space(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(2), probs=((1.0,), (1.0,))
        )
        inst = dm.Instance(
            rewards=((1.0,),) * 8,
            capacities=(9,) * 8,
            demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        with pytest.raises(ValueError, match="state space"):
            optimal_online_dp(model, inst, state_cap=10**4)

    def test_matches_full_tree_enumeration(self):
        """Backward induction against exhaustive forward search."""
        inst = random_horizon_instance(np.random.default_rng(17), max_horizon=3, max_n=2, max_m=2)
        model = horizon_model_of(inst)

        def forward(t, caps):
            if t > model.horizon:
                return 0.0
            s_t = float(model.total.survival(t))
            s_next = float(model.total.survival(t + 1))
            odds = s_next / s_t if s_t > 0 else 0.0
            row = model.probs[t - 1]
            total = float(model.no_query_mass(t)) * odds * forward(t + 1, caps)
            for j in range(inst.m):
                pj = float(row[j])
                if pj <= 0:
                    continue
                best = odds * forward(t + 1, caps)
                for i in range(inst.n):
                    if caps[i] > 0:
                        reduced = caps[:i] + (caps[i] - 1,) + caps[i + 1 :]
                        best = max(
                            best,
                            inst.rewards[i][j] + odds * forward(t + 1, reduced),
                        )
                total += pj * best
            return total

        brute = float(model.total.survival(1)) * forward(1, tuple(inst.capacities))
        assert optimal_online_dp(model, inst).value == pytest.approx(brute, abs=1e-9)


class TestWorstCaseOrder:
    def test_single_type_unique_order(self):
        dist = dm.DemandDistribution.from_pmf({0: 0.5, 2: 0.5})
        inst = dm.Instance(
            rewards=((1.0,),), capacities=(1,), demand=dm.IndepDemandModel((dist,))
        )
        plan = plan_indep_adv_policy(inst)
        order, _ = worst_case_order(plan, RealizedDemand((2,)))
        assert order.types == (0, 0)

    def test_two_stage_reward_sends_cheap_first(self):
        inst = gen_counterexample("two_stage_reward", {"eps": 0.5, "k1": 2})
        plan = plan_indep_adv_policy(inst)
        order, value = worst_case_order(plan, RealizedDemand((2, 2)))
        assert order.types == (0, 0, 1, 1)
        best = max(
            threshold_value_for_order(plan, o)
            for o in itertools.permutations((0, 0, 1, 1))
        )
        assert value <= best + 1e-12

    def test_zero_reward_types_do_not_matter(self):
        dist = dm.DemandDistribution.point_mass(1)
        inst = dm.Instance(
            rewards=((2.0, 0.0, 0.0),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dist, dist, dist)),
        )
        plan = plan_indep_adv_policy(inst)
        base = worst_case_order(plan, RealizedDemand((1, 1, 1)))[1]
        swapped = dm.Instance(
            rewards=((2.0, 0.0, 0.0),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dist, dist, dist)),
        )
        plan2 = plan_indep_adv_policy(swapped)
        assert worst_case_order(plan2, RealizedDemand((1, 1, 1)))[1] == pytest.approx(
            base, abs=1e-12
        )

    def test_rejects_oversized_order_sets(self):
        dist = dm.DemandDistribution.point_mass(4)
        inst = dm.Instance(
            rewards=((1.0, 1.0, 1.0),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dist, dist, dist)),
        )
        plan = plan_indep_adv_policy(inst)
        with pytest.raises(ValueError, match="cap"):
            worst_case_order(plan, RealizedDemand((4, 4, 4)), order_cap=10)


class TestExactPolicyValue:
    def test_empty_demand(self):
        dist = dm.DemandDistribution.point_mass(0)
        inst = dm.Instance(
            rewards=((1.0,),), capacities=(1,), demand=dm.IndepDemandModel((dist,))
        )
        plan = plan_indep_adv_policy(inst)
        assert exact_policy_value(plan, order="worst").value == 0.0

    def test_two_stage_reward_capped_by_capacity(self):
        for k1 in (1, 3):
            inst = gen_counterexample("two_stage_reward", {"eps": 0.05, "k1": k1})
            plan = plan_indep_adv_policy(inst)
            assert exact_policy_value(plan, order="worst").value <= k1 + 1e-9

    def test_random_order_at_least_worst_order(self):
        for trial in range(10):
            inst = random_indep_instance(
                trial_rng(2500, trial), max_n=3, max_m=3, max_support=3, max_value=2,
                max_total_capacity=3,
            )
            plan = plan_indep_adv_policy(inst)
            worst = exact_policy_value(plan, order="worst").value
            random_order = exact_policy_value(plan, order="random").value
            assert random_order >= worst - 1e-9

    def test_matches_monte_carlo_within_four_se(self):
        dist0 = dm.DemandDistribution.from_pmf({0: 0.5, 2: 0.5})
        dist1 = dm.DemandDistribution.from_pmf({1: 0.7, 2: 0.3})
        inst = dm.Instance(
            rewards=((1.0, 2.0), (3.0, 0.5)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist0, dist1)),
        )
        plan = plan_indep_adv_policy(inst)
        exact = exact_policy_value(plan, order="worst")
        assert exact.mode == "exact"
        mc = mc_policy_value(plan, trials=100_000, seed=4, order="worst")
        assert abs(mc.value - exact.value) <= 4 * mc.stderr

    def test_monte_carlo_fallback_reports_mode(self):
        inst = random_indep_instance(
            np.random.default_rng(6), max_n=2, max_m=2, max_support=3, max_value=2,
            max_total_capacity=2,
        )
        plan = plan_indep_adv_policy(inst)
        result = exact_policy_value(plan, order="worst", support_cap=1, trials=2000, seed=1)
        assert result.mode == "monte-carlo"
        exact = exact_policy_value(plan, order="worst").value
        assert abs(result.value - exact) <= max(4 * result.stderr, 1e-9)
