"""Threshold and horizon policies, contention resolution, static baselines."""

import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import demandmatch as dm
from demandmatch import policies
from demandmatch.demand import (
    RealizedDemand,
    iter_demand_support,
    sample_horizon_path,
    trial_rng,
)
from demandmatch.experiments import (
    gen_counterexample,
    random_horizon_instance,
    random_indep_instance,
)
from demandmatch.acceptance import TOL
from demandmatch.oracles import exact_policy_value, horizon_policy_value
from demandmatch.policies import (
    HorizonPolicyState,
    ThresholdPolicyState,
    best_static_threshold,
    ocrs_plan,
    plan_horizon_policy,
    plan_indep_adv_policy,
    run_horizon_trial,
    static_threshold_value,
)
from demandmatch.relaxations import horizon_model_of
from reference import accept_step, iter_orders, ocrs_bisection, schedule_or_none


@contextlib.contextmanager
def out_of_place_step():
    """Run the library's accepted-count callers on `reference.accept_step`."""

    def step(counts, hazard):
        counts[:] = accept_step(counts, hazard)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policies, "_accept_step", step)
        yield


@st.composite
def ocrs_schedules(draw):
    """A capacity k in 1..8 and up to 3k + 2 rates, each exactly 0, exactly 1
    or in between; rates are dropped from the end until they fit the budget."""
    k = draw(st.integers(min_value=1, max_value=8))
    rate = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    rates = draw(st.lists(rate, max_size=3 * k + 2))
    while sum(rates) > k:
        rates.pop()
    return rates, k


def indep_instance(rewards, caps, dists, arrival=dm.Arrival.ADVERSARIAL):
    return dm.Instance(
        rewards=rewards,
        capacities=caps,
        demand=dm.IndepDemandModel(tuple(dists)),
        arrival=arrival,
    )


class TestThresholdPlan:
    def test_single_resource_full_column(self):
        dist = dm.DemandDistribution.point_mass(1)
        inst = indep_instance(((1.0,),), (1,), [dist])
        plan = plan_indep_adv_policy(inst)
        assert plan.x == ((1.0,),)
        assert plan.taus == (0.5,)

    def test_two_stage_reward_hand_lp(self):
        # capacity row x0 + x1 <= 1, dear-type row x1 <= 1/2;
        # maximizing 1*x0 + 2*x1 gives (1/2, 1/2) and threshold 3/4
        inst = gen_counterexample("two_stage_reward", {"eps": 0.5, "k1": 1})
        plan = plan_indep_adv_policy(inst)
        assert plan.lp_value == pytest.approx(1.5, abs=1e-9)
        assert plan.x[0][0] == pytest.approx(0.5, abs=1e-9)
        assert plan.x[0][1] == pytest.approx(0.5, abs=1e-9)
        assert plan.taus[0] == pytest.approx(0.75, abs=1e-9)

    def test_zero_rewards_accept_anything_routed(self):
        dist = dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.5})
        inst = indep_instance(((0.0,), (0.0,)), (1, 1), [dist])
        plan = plan_indep_adv_policy(inst)
        assert plan.taus == (0.0, 0.0)
        assert all(plan.qualifies(i, 0) for i in range(2))

    def test_expands_capacities_internally(self):
        dist = dm.DemandDistribution.point_mass(2)
        inst = indep_instance(((1.0,),), (2,), [dist])
        plan = plan_indep_adv_policy(inst)
        assert plan.n == 2
        assert plan.instance.rewards == ((1.0,), (1.0,))

    def test_rejects_correlated_demand(self):
        inst = gen_counterexample("rare_long_horizon", {"N": 3})
        with pytest.raises(TypeError):
            plan_indep_adv_policy(inst)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    @pytest.mark.parametrize("p", [5e-10, 9.76e-10])
    @pytest.mark.parametrize(
        "rewards, caps", [(((1.0,),), (1,)), (((41.0,), (16.0,)), (1, 2))], ids=["one", "two"]
    )
    def test_half_guarantee_at_marginals_below_the_float_slack(self, rewards, caps, p, scale):
        """An LP marginal in ``(0, COLUMN_SLACK]`` is still routed, so the
        guarantee holds however large the rewards that it carries."""
        dist = dm.DemandDistribution.from_pmf({0: 1 - p, 1: p})
        scaled = tuple(tuple(r * scale for r in row) for row in rewards)
        plan = plan_indep_adv_policy(indep_instance(scaled, caps, [dist]))
        value = exact_policy_value(plan).value
        assert 0.0 < max(map(max, plan.x)) <= 1e-9
        assert value >= plan.lp_value / 2 - TOL
        assert value >= plan.lp_value / 2 * (1 - 1e-6)


class TestThresholdStep:
    def plan(self):
        dist = dm.DemandDistribution.from_pmf({1: 0.5, 2: 0.5})
        return plan_indep_adv_policy(indep_instance(((1.0,), (1.0,)), (1, 1), [dist]))

    def test_tie_accepts(self):
        plan = self.plan()
        routing = dm.Routing(assignment=(0, None))
        state = ThresholdPolicyState(plan=plan, pis=(routing,))
        # reward equals the threshold at a fresh resource: accepted
        assert plan.instance.rewards[0][0] >= plan.taus[0]
        assert state.step(0) == 0

    def test_idle_routing_rejects(self):
        plan = self.plan()
        routing = dm.Routing(assignment=(None, 0))
        state = ThresholdPolicyState(plan=plan, pis=(routing,))
        assert state.step(0) is None
        assert state.step(0) == 0

    def test_taken_resource_rejects_cross_type_collision(self):
        dist = dm.DemandDistribution.point_mass(1)
        inst = indep_instance(((2.0, 3.0), (2.0, 3.0)), (1, 1), [dist, dist])
        plan = plan_indep_adv_policy(inst)
        state = ThresholdPolicyState(
            plan=plan, pis=(dm.Routing((0,)), dm.Routing((0,)))
        )
        # resource 1 is free and would take the type-0 query, but the routed
        # resource 0 is already matched: rejected, not re-routed
        assert plan.qualifies(1, 0)
        assert state.step(1) == 0
        assert state.step(0) is None
        assert state.available == [False, True]
        assert state.collected == 3.0

    @pytest.mark.parametrize("j", [-1, 2])
    def test_step_rejects_unknown_type(self, j):
        # j = -1 would otherwise run as type 1 through counters[-1] and pis[-1]
        dist = dm.DemandDistribution.point_mass(1)
        plan = plan_indep_adv_policy(indep_instance(((2.0, 3.0),), (1,), [dist, dist]))
        state = ThresholdPolicyState(plan=plan, pis=(dm.Routing((0,)), dm.Routing((0,))))
        with pytest.raises(ValueError, match="outside 0..1"):
            state.step(j)
        assert state.counters == [0, 0]
        assert state.available == [True]
        assert state.collected == 0.0

    @pytest.mark.parametrize(
        "cls, derived",
        [
            (ThresholdPolicyState, {"counters", "available", "collected"}),
            (HorizonPolicyState, {"remaining", "collected"}),
            (dm.DemandDistribution, {"_survival", "_prefix"}),
        ],
        ids=lambda v: getattr(v, "__name__", ""),
    )
    def test_derived_state_is_not_a_constructor_argument(self, cls, derived):
        fields = {f.name: f.init for f in dataclasses.fields(cls)}
        assert derived <= fields.keys()
        assert not any(fields[name] for name in derived)


#: the most schedule passes ``ocrs_plan`` may make, as its docstring states
OCRS_MAX_PASSES = 36


def _ocrs_cases():
    """600 seeded schedules with k = 1..20, half of them scaled to a full
    budget, with inactive steps; then a T=400, k=16 schedule, and one whose
    root 1/(1 + 0.6) = 0.625 lies exactly on the grid."""
    for trial in range(600):
        rng = trial_rng(1500, trial)
        k = trial % 20 + 1
        steps = int(rng.integers(1, 4 * k + 8))
        raw = rng.uniform(0.0, 1.0, size=steps)
        raw[rng.uniform(size=steps) < 0.2] = 0.0
        budget = k if trial % 2 else rng.uniform(0.2, 1.0) * k
        yield np.minimum(raw * (budget / max(raw.sum(), 1e-12)), 1.0).tolist(), k
    raw = trial_rng(1501, 0).uniform(0.0, 1.0, size=400)
    yield (raw * (16 / raw.sum())).tolist(), 16
    yield [0.3, 0.2, 0.1, 0.25], 1


def _hex(plan):
    return (plan.gamma.hex(), [c.hex() for c in plan.accept_probs], [a.hex() for a in plan.availability])


class TestOcrs:
    def test_root_finder_matches_bisection(self, monkeypatch):
        """Bit for bit the bisection's answer, in few schedule passes."""
        passes = []
        schedule = policies._ocrs_schedule

        def counting(*args):
            passes[-1] += 1
            return schedule(*args)

        monkeypatch.setattr(policies, "_ocrs_schedule", counting)
        for rates, k in _ocrs_cases():
            passes.append(0)
            assert _hex(ocrs_plan(rates, k)) == _hex(ocrs_bisection(rates, k)), (rates, k)
        assert len(passes) == 602
        assert sum(passes) / len(passes) <= 8
        assert max(passes) <= OCRS_MAX_PASSES

    def test_root_on_the_grid(self):
        # the last step binds at 1/(1 + 0.6) = 0.625, itself a grid point
        assert ocrs_plan([0.3, 0.2, 0.1, 0.25], 1).gamma == 0.625

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ocrs_plan([bad, 0.5], 1)

    def test_negative_noise_clamped(self):
        plan = ocrs_plan([-1e-15, 0.5], 1)
        assert plan.rates == (0.0, 0.5)
        assert plan.gamma == 1.0

    @pytest.mark.parametrize("rates, k", [([1.5, 0.5], 2), ([-3.0, 0.5], 1)])
    def test_rate_outside_unit_interval_rejected(self, rates, k):
        with pytest.raises(ValueError, match=r"within \[0, 1\]"):
            ocrs_plan(rates, k)

    @pytest.mark.parametrize(
        "rates, k, match",
        [([1.0 + 1e-8, 0.5], 2, r"within \[0, 1\]"), ([0.5, 0.5 + 1e-8], 1, "capacity"), ([1.0, 1.0, 1e-8], 2, "capacity")],
        ids=["rate", "sum-k1", "sum-k2"],
    )
    def test_ten_times_the_slack_rejected(self, rates, k, match):
        # 1e-8 is ten times LP_SLACK = 1e-9 past a rate's or the budget's bound
        with pytest.raises(ValueError, match=match):
            ocrs_plan(rates, k)

    def test_rate_noise_above_one_clamped(self):
        plan = ocrs_plan([1.0 + 1e-12, 0.5], 2)
        assert plan.rates == (1.0, 0.5)
        assert plan.accept_probs[0] <= 1.0

    def test_two_half_steps(self):
        plan = ocrs_plan([0.5, 0.5], 1)
        assert plan.gamma == pytest.approx(2 / 3, abs=1e-8)
        assert plan.accept_probs[0] == pytest.approx(2 / 3, abs=1e-8)
        # the second step is the binding one: gamma / (1 - gamma/2) = 1
        assert plan.accept_probs[1] == pytest.approx(1.0, abs=1e-8)

    def test_single_certain_step_accepts_outright(self):
        # no contention in a single step, so the whole rate is accepted
        plan = ocrs_plan([1.0], 1)
        assert plan.gamma == pytest.approx(1.0, abs=1e-9)

    def test_four_quarter_steps(self):
        # unit capacity: availability is 1 - gamma * (mass before t), so the
        # last step pins gamma at 1 / (1 + 3/4)
        plan = ocrs_plan([0.25] * 4, 1)
        assert plan.gamma == pytest.approx(4 / 7, abs=1e-8)

    def test_capacity_two_saturated(self):
        plan = ocrs_plan([1.0, 1.0], 2)
        assert plan.gamma == pytest.approx(1.0, abs=1e-9)
        assert plan.gamma >= 1 - 1 / math.sqrt(5) - 1e-9

    def test_budget_violation_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ocrs_plan([0.7, 0.7], 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 13, 20])
    def test_floor_on_random_saturated_schedules(self, k):
        floor = 1 - 1 / math.sqrt(k + 3)
        for trial in range(20):
            rng = trial_rng(1300 + k, trial)
            steps = int(rng.integers(max(2, k), 4 * k + 2))
            raw = rng.uniform(0.05, 1.0, size=steps)
            rates = raw * (k / raw.sum())  # fully saturated budget
            rates = np.minimum(rates, 1.0)
            plan = ocrs_plan(rates.tolist(), k)
            assert plan.gamma >= floor - 1e-9

    @given(ocrs_schedules())
    @settings(max_examples=200, deadline=None)
    @example(([], 1))
    @example(([], 8))
    @example(([0.0] * 5, 3))
    @example(([1.0] * 8, 8))
    @example(([1.0, 0.0, 1.0, 0.0], 2))
    def test_plan_matches_the_out_of_place_recursion(self, case):
        """The in-place accepted-count law gives the reference's plan bit for
        bit, and the reference's schedule at that plan's gamma."""
        rates, k = case
        plan = ocrs_plan(rates, k)
        with out_of_place_step():
            assert _hex(ocrs_plan(rates, k)) == _hex(plan)
        cs, avail = schedule_or_none(list(plan.rates), k, plan.gamma)
        assert [c.hex() for c in cs] == [c.hex() for c in plan.accept_probs]
        assert [a.hex() for a in avail] == [a.hex() for a in plan.availability]

    @pytest.mark.parametrize("trial", range(30))
    def test_uniform_acceptance_promise(self, trial):
        """Each step's unconditional acceptance equals gamma times its rate."""
        rng = trial_rng(1400, trial)
        k = int(rng.integers(1, 5))
        steps = int(rng.integers(1, 9))
        raw = rng.uniform(0.0, 1.0, size=steps)
        budget = rng.uniform(0.2, 1.0) * k
        scale = min(1.0, budget / max(raw.sum(), 1e-12))
        rates = np.minimum(raw * scale, 1.0)
        plan = ocrs_plan(rates.tolist(), k)
        # replay the accepted-count law and compare per-step acceptance
        counts = [1.0] + [0.0] * k
        for t, y in enumerate(plan.rates):
            available = 1.0 - counts[k]
            assert available == pytest.approx(plan.availability[t], abs=1e-12)
            accept = y * available * plan.accept_probs[t]
            assert accept == pytest.approx(plan.gamma * y, abs=1e-9)
            counts = accept_step(counts, y * plan.accept_probs[t])


class TestHorizonPolicy:
    def test_deterministic_single_step(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((1.0,),)
        )
        inst = dm.Instance(
            rewards=((5.0,),), capacities=(1,), demand=model, arrival=dm.Arrival.RANDOM_ORDER
        )
        plan = plan_horizon_policy(model, inst)
        assert plan.lp_value == pytest.approx(5.0, abs=1e-9)
        assert plan.plans[0].gamma == pytest.approx(1.0, abs=1e-9)
        assert horizon_policy_value(plan).value == pytest.approx(5.0, abs=1e-9)

    def test_routing_ratios_are_probabilities(self):
        inst = gen_counterexample("rare_long_horizon", {"N": 3})
        plan = plan_horizon_policy(horizon_model_of(inst), inst)
        for t in range(1, plan.horizon + 1):
            for j in range(plan.instance.m):
                total = sum(plan.route[t - 1, i, j] for i in range(plan.instance.n))
                assert -1e-12 <= total <= 1.0 + 1e-9

    def test_zero_rewards_collects_nothing(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(2), probs=((1.0,), (1.0,))
        )
        inst = dm.Instance(
            rewards=((0.0,),), capacities=(1,), demand=model, arrival=dm.Arrival.RANDOM_ORDER
        )
        plan = plan_horizon_policy(model, inst)
        assert horizon_policy_value(plan).value == 0.0

    @pytest.mark.parametrize("trial", range(25))
    def test_dp_value_matches_gamma_weighted_objective(self, trial):
        inst = random_horizon_instance(trial_rng(1500, trial), max_horizon=4)
        plan = plan_horizon_policy(horizon_model_of(inst), inst)
        assert horizon_policy_value(plan).value == pytest.approx(
            plan.expected_value(), abs=1e-9
        )

    def test_dp_value_matches_full_tree_enumeration(self):
        """Cross-check against exhaustive branching over every arrival,
        routing coin, and acceptance coin."""
        inst = random_horizon_instance(np.random.default_rng(77), max_horizon=3, max_n=2, max_m=2)
        plan = plan_horizon_policy(horizon_model_of(inst), inst)
        model = plan.model

        def walk(t, caps, weight):
            if weight <= 0 or t > plan.horizon:
                return 0.0
            s_t = float(model.total.survival(t))
            row = model.probs[t - 1]
            value = 0.0
            for j in range(plan.instance.m):
                pj = float(row[j])
                if pj <= 0:
                    continue
                reject_mass = 1.0
                for i in range(plan.instance.n):
                    rho = plan.route[t - 1, i, j]
                    if rho <= 0:
                        continue
                    reject_mass -= rho
                    c = plan.plans[i].accept_probs[t - 1] if caps[i] > 0 else 0.0
                    if c > 0:
                        reduced = caps[:i] + (caps[i] - 1,) + caps[i + 1 :]
                        value += (
                            weight * pj * rho * c
                            * (s_t * float(plan.instance.rewards[i][j]))
                        )
                        value += walk(t + 1, reduced, weight * pj * rho * c)
                    value += walk(t + 1, caps, weight * pj * rho * (1.0 - c))
                value += walk(t + 1, caps, weight * pj * max(reject_mass, 0.0))
            no_query = float(model.no_query_mass(t))
            if no_query > 0:
                value += walk(t + 1, caps, weight * no_query)
            return value

        brute = walk(1, tuple(plan.instance.capacities), 1.0)
        assert horizon_policy_value(plan).value == pytest.approx(brute, abs=1e-9)

    def test_per_step_acceptance_monte_carlo(self):
        """Unconditional acceptance at (resource, step) meets the survival-
        discounted floor within Monte-Carlo noise."""
        inst = random_horizon_instance(np.random.default_rng(123), max_horizon=3, max_n=2, max_m=2)
        plan = plan_horizon_policy(horizon_model_of(inst), inst)
        trials = 100_000
        hits = np.zeros((plan.instance.n, plan.horizon))
        for trial in range(trials):
            rng = trial_rng(31337, trial)
            state = HorizonPolicyState(plan=plan)
            for t, j in enumerate(sample_horizon_path(plan.model, rng), start=1):
                accepted_by = state.step(t, j, rng)
                if accepted_by is not None:
                    hits[accepted_by, t - 1] += 1
        for i in range(plan.instance.n):
            gamma = plan.plans[i].gamma
            for t in range(1, plan.horizon + 1):
                rate = plan.plans[i].rates[t - 1]
                target = float(plan.model.total.survival(t)) * gamma * rate
                observed = hits[i, t - 1] / trials
                se = math.sqrt(max(target * (1 - target), 1e-12) / trials)
                assert observed >= target - 4 * se - 1e-9

    @staticmethod
    def _one_step_state():
        # type 1 never arrives
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((0.5, 0.0),)
        )
        inst = dm.Instance(
            rewards=((1.0, 1.0),), capacities=(1,), demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        return HorizonPolicyState(plan=plan_horizon_policy(model, inst))

    def test_step_asserts_on_impossible_type(self):
        with pytest.raises(ValueError, match="cannot arrive"):
            self._one_step_state().step(1, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("t", [0, 2])
    def test_step_rejects_step_outside_horizon(self, t):
        # t = 0 would otherwise read the last step's row through probs[-1]
        with pytest.raises(ValueError, match="outside the horizon"):
            self._one_step_state().step(t, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("j", [-1, 2])
    def test_step_rejects_unknown_type(self, j):
        with pytest.raises(ValueError, match="outside 0..1"):
            self._one_step_state().step(1, j, np.random.default_rng(0))

    def test_full_ratio_routes_deterministically(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((0.7,),)
        )
        inst = dm.Instance(
            rewards=((1.0,),), capacities=(1,), demand=model, arrival=dm.Arrival.RANDOM_ORDER
        )
        plan = plan_horizon_policy(model, inst)
        assert plan.route[0, 0, 0] == pytest.approx(1.0, abs=1e-9)
        assert HorizonPolicyState(plan=plan).step(1, 0, np.random.default_rng(5)) == 0


class TestSamplePathDominance:
    """On every sample path, each resource earns at least the fixed-bar
    payoff computed from the same realized routed rewards."""

    @pytest.mark.parametrize("trial", range(20))
    def test_policy_dominates_prophet_payoff(self, trial):
        inst = random_indep_instance(
            trial_rng(1600, trial), max_n=2, max_m=3, max_support=3, max_value=2,
            max_total_capacity=2,
        )
        plan = plan_indep_adv_policy(inst)
        branch_sets = [plan.routings[j].branches() for j in range(plan.m)]
        for counts, prob in iter_demand_support(inst.demand):
            if float(prob) <= 0:
                continue
            d = RealizedDemand(counts)
            for order in iter_orders(d):
                for combo in itertools.product(*branch_sets):
                    pis = tuple(r for r, _ in combo)
                    state = ThresholdPolicyState(plan=plan, pis=pis)
                    per_resource = [0.0] * plan.n
                    for j in order:
                        accepted_by = state.step(j)
                        if accepted_by is not None:
                            per_resource[accepted_by] += plan.instance.rewards[accepted_by][j]
                    for i in range(plan.n):
                        routed_rewards = [
                            plan.instance.rewards[i][j]
                            for j in range(plan.m)
                            if i in pis[j].assignment[: counts[j]]
                        ]
                        qualifying = [
                            r for r in routed_rewards if r >= plan.taus[i]
                        ]
                        floor = min(qualifying) if qualifying else 0.0
                        assert per_resource[i] >= floor - 1e-12


class TestTraces:
    def test_collected_is_sum_of_accepted_rewards(self):
        """The resources that ``step`` returns are the per-arrival record: their
        rewards add up to what the trial collects, draw for draw."""
        inst = random_horizon_instance(np.random.default_rng(2), max_horizon=3)
        plan = plan_horizon_policy(horizon_model_of(inst), inst)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = HorizonPolicyState(plan=plan)
            accepted = 0.0
            for t, j in enumerate(sample_horizon_path(plan.model, rng), start=1):
                before = list(state.remaining)
                accepted_by = state.step(t, j, rng)
                if accepted_by is not None:
                    before[accepted_by] -= 1
                    accepted += plan.instance.rewards[accepted_by][j]
                assert state.remaining == before
            assert state.collected == accepted
            assert run_horizon_trial(plan, np.random.default_rng(seed)) == state.collected


class TestStaticThreshold:
    def test_exact_value_matches_simulation_tree(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.from_pmf({1: 0.4, 2: 0.6}),
            probs=((0.5, 0.5), (0.2, 0.7)),
        )
        inst = dm.Instance(
            rewards=((1.0, 3.0),), capacities=(1,), demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )

        def brute(threshold):
            # enumerate (horizon length, type sequence) outcomes
            total = 0.0
            for counts, prob in [((1,), 0.4), ((2,), 0.6)]:
                horizon = counts[0]
                for seq in itertools.product([0, 1, None], repeat=horizon):
                    w = float(prob)
                    for t, j in enumerate(seq, start=1):
                        row = model.probs[t - 1]
                        w *= float(model.no_query_mass(t)) if j is None else float(row[j])
                    if w <= 0:
                        continue
                    remaining, gained = inst.capacities[0], 0.0
                    for j in seq:
                        if j is not None and remaining > 0 and inst.rewards[0][j] >= threshold:
                            remaining -= 1
                            gained += inst.rewards[0][j]
                    total += w * gained
            return total

        for bar in (0.0, 1.0, 2.0, 3.0, 4.0):
            assert static_threshold_value(model, inst, bar) == pytest.approx(
                brute(bar), abs=1e-12
            )

    def test_escalating_family_bounds(self):
        inst = gen_counterexample("escalating_rewards", {"T": 6, "eps": 0.1})
        model = horizon_model_of(inst)
        bar, value = best_static_threshold(model, inst)
        assert value <= 4.0 + 1e-9
        opt = dm.optimal_online_dp(model, inst).value
        assert opt >= 6 * 0.9**6 - 1e-9
        assert value < opt

    def test_picks_a_bar_better_by_one_part_in_a_billion(self):
        """Accepting everything first takes the reward-1 query of step 1
        (probability 1e-3); the higher bar waits for step 2's reward 1 + 1e-6.
        The higher bar is better by 1e-3 · 1e-6 = 1e-9, far above the scan's
        1e-12 tie margin, so the scan must move to it."""
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(2), probs=((1e-3, 0.0), (0.0, 1.0))
        )
        inst = dm.Instance(
            rewards=((1.0, 1.0 + 1e-6),), capacities=(1,), demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        accept_all = static_threshold_value(model, inst, 0.0)
        assert 0.9e-9 < (1.0 + 1e-6) - accept_all < 1.1e-9
        assert best_static_threshold(model, inst) == (1.0 + 1e-6, 1.0 + 1e-6)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_the_out_of_place_recursion(self, k):
        """Bit for bit the reference recursion's value at every distinct bar,
        on ten random single-resource horizons of capacity k and on three
        fixed ones: a step whose qualifying mass is exactly 1, steps with
        none, and a horizon of zero steps."""
        fixed = [
            ({1: 0.5, 3: 0.5}, ((0.25, 0.75), (0.0, 0.0), (0.5, 0.0))),
            ({2: 1.0}, ((0.0, 1.0), (1.0, 0.0))),
            ({0: 1.0}, ((0.5, 0.5),)),
        ]
        cases = [random_horizon_instance(trial_rng(2400 + k, t), max_horizon=8, max_n=1, fixed_capacity=k) for t in range(10)]
        for pmf, rows in fixed:
            model = dm.StochasticHorizonModel(total=dm.DemandDistribution.from_pmf(pmf), probs=rows)
            cases.append(dm.Instance(rewards=((1.0, 3.0),), capacities=(k,), demand=model, arrival=dm.Arrival.RANDOM_ORDER))
        for inst in cases:
            bars = sorted({float(r) for r in inst.rewards[0]})
            for bar in [0.0, *bars, bars[-1] + 1.0]:
                value = static_threshold_value(inst.demand, inst, bar)
                with out_of_place_step():
                    assert static_threshold_value(inst.demand, inst, bar).hex() == value.hex()

    def test_requires_single_resource(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((1.0,),)
        )
        inst = dm.Instance(
            rewards=((1.0,), (2.0,)), capacities=(1, 1), demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        with pytest.raises(ValueError, match="single-resource"):
            static_threshold_value(model, inst, 1.0)
