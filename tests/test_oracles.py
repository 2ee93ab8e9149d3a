"""Offline optima, exact expectations, the online DP, and order search."""

import dataclasses
import functools
import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest

import demandmatch as dm
from demandmatch.acceptance import _guarantee_sweep
from demandmatch.demand import (
    RealizedDemand,
    iter_demand_support,
    sample_random_order,
    trial_rng,
)
from demandmatch.experiments import (
    gen_counterexample,
    random_horizon_instance,
    random_indep_instance,
)
from demandmatch import oracles
from demandmatch.oracles import (
    _offline_values,
    _search_orders,
    exact_policy_value,
    expected_offline,
    horizon_policy_value,
    mc_policy_value,
    offline_optimum,
    optimal_online_dp,
    worst_case_order,
)
from demandmatch.linprog import solve_lp
from demandmatch.policies import plan_horizon_policy, plan_indep_adv_policy
from demandmatch.relaxations import horizon_model_of, transportation_lp
from reference import (
    iter_orders,
    order_count,
    threshold_value_for_order,
    tuple_horizon_value,
    tuple_online_dp,
    under_random_order,
)


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
        assert offline_optimum(inst, RealizedDemand(tuple(0 for _ in range(inst.m)))) == 0.0

    def test_small_assignment(self):
        dist = dm.DemandDistribution.point_mass(1)
        inst = dm.Instance(
            rewards=((1.0, 2.0), (3.0, 0.0)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist, dist)),
        )
        assert offline_optimum(inst, RealizedDemand((1, 1))) == pytest.approx(5.0, abs=1e-9)

    def test_unsolvable_lp_raises(self):
        # a negative count would be a negative demand rhs, outside the LP
        # normal form; the realization rejects it before the LP is built
        inst = random_indep_instance(np.random.default_rng(0), max_m=1)
        with pytest.raises(ValueError, match="nonnegative"):
            offline_optimum(inst, RealizedDemand((-1,)))

    @pytest.mark.parametrize("counts", [(0,), (1,), (1, 1, 1)])
    def test_rejects_a_realization_of_the_wrong_length(self, counts):
        dist = dm.DemandDistribution.point_mass(1)
        inst = dm.Instance(
            rewards=((1.0, 2.0), (3.0, 0.0)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist, dist)),
        )
        with pytest.raises(ValueError, match=f"has {len(counts)} types but the instance has 2"):
            offline_optimum(inst, RealizedDemand(counts))

    @pytest.mark.parametrize("trial", range(20))
    def test_warm_and_fresh_solves_match_a_cold_solve_bit_for_bit(self, trial):
        # expected_offline's warm solver and offline_optimum's fresh one both
        # return the cold solve's value on every support point
        inst = random_indep_instance(trial_rng(2200, trial))
        support = list(iter_demand_support(inst.demand))
        cold = [solve_lp(transportation_lp(inst, counts)).objective_value for counts, _ in support]
        assert [offline_optimum(inst, RealizedDemand(counts)) for counts, _ in support] == cold
        want = sum(float(p) * value for (_, p), value in zip(support, cold) if float(p) > 0.0)
        assert expected_offline(inst).value.hex() == want.hex()

    @pytest.mark.parametrize("trial", range(30))
    def test_matches_assignment_enumeration(self, trial):
        rng = trial_rng(2100, trial)
        inst = random_indep_instance(rng, max_n=3, max_m=3, max_support=3, max_value=2)
        counts = tuple(int(rng.integers(0, 3)) for _ in range(inst.m))
        assert offline_optimum(inst, RealizedDemand(counts)) == pytest.approx(
            brute_force_offline(inst, counts), abs=1e-8
        )

    def test_monotone_in_demand_and_capacity(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            inst = random_indep_instance(rng, max_n=3, max_m=3, max_support=3, max_value=2)
            counts = tuple(int(rng.integers(0, 3)) for _ in range(inst.m))
            base = offline_optimum(inst, RealizedDemand(counts))
            j = int(rng.integers(0, inst.m))
            bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
            assert offline_optimum(inst, RealizedDemand(bumped)) >= base - 1e-9
            i = int(rng.integers(0, inst.n))
            more_cap = dm.Instance(
                rewards=inst.rewards,
                capacities=inst.capacities[:i]
                + (inst.capacities[i] + 1,)
                + inst.capacities[i + 1 :],
                demand=inst.demand,
                arrival=inst.arrival,
            )
            assert offline_optimum(more_cap, RealizedDemand(counts)) >= base - 1e-9


def cold_offline_values(inst, realizations) -> list[float]:
    """One cold solve per realization, each on its own fresh tableau."""
    return [solve_lp(transportation_lp(inst, counts)).objective_value for counts in realizations]


def count_reoptimizes(monkeypatch) -> list:
    """Record every tableau the offline pricing reoptimizes."""
    calls = []
    reoptimize = oracles.reoptimize

    def spy(tab):
        calls.append(tab)
        return reoptimize(tab)

    monkeypatch.setattr(oracles, "reoptimize", spy)
    return calls


def _equal_reward_instance(rng, reward: float) -> dm.Instance:
    n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    dists = tuple(
        dm.DemandDistribution.from_pmf({0: 0.25, int(rng.integers(1, 3)): 0.5, 3: 0.25}) for _ in range(m)
    )
    return dm.Instance(
        rewards=tuple((reward,) * m for _ in range(n)),
        capacities=tuple(int(k) for k in rng.integers(1, 3, size=n)),
        demand=dm.IndepDemandModel(dists),
    )


class TestPricingByBasis:
    """The offline values priced by basis equal one cold solve per
    realization, bit for bit, with fewer reoptimizations than realizations."""

    @pytest.mark.parametrize("trial", range(10))
    @pytest.mark.parametrize("reward", [1.0, 0.1])
    def test_equal_rewards_and_zero_counts(self, trial, reward, monkeypatch):
        # every matching of the same size is optimal, so every basis is
        # degenerate; the zero counts make whole demand rows degenerate
        inst = _equal_reward_instance(trial_rng(2300, trial), reward)
        support = [counts for counts, _ in iter_demand_support(inst.demand)]
        assert any(sum(counts) == 0 for counts in support)
        calls = count_reoptimizes(monkeypatch)
        assert [v.hex() for v in _offline_values(inst, support)] == [
            v.hex() for v in cold_offline_values(inst, support)
        ]
        assert len(calls) < len(support)

    @pytest.mark.parametrize("trial", range(10))
    def test_support_that_needs_several_bases(self, trial, monkeypatch):
        rng = trial_rng(2301, trial)
        n, m = 3, 3
        dists = tuple(dm.DemandDistribution.from_pmf({d: 0.25 for d in range(4)}) for _ in range(m))
        inst = dm.Instance(
            rewards=tuple(tuple(float(r) for r in rng.uniform(0.5, 2.0, size=m)) for _ in range(n)),
            capacities=(1, 2, 3),
            demand=dm.IndepDemandModel(dists),
        )
        support = list(iter_demand_support(inst.demand))
        calls = count_reoptimizes(monkeypatch)
        result = expected_offline(inst)
        assert 1 < len(calls) < len(support)
        cold = cold_offline_values(inst, [counts for counts, _ in support])
        want = sum(float(p) * value for (_, p), value in zip(support, cold) if float(p) > 0.0)
        assert result.value.hex() == want.hex()

    @pytest.mark.parametrize("trial", range(5))
    def test_monte_carlo_draws_priced_as_cold_solves(self, trial, monkeypatch):
        inst = random_indep_instance(trial_rng(2302, trial))
        trials, seed = 300, 40 + trial
        calls = count_reoptimizes(monkeypatch)
        monkeypatch.setattr(oracles, "SUPPORT_CAP", 1)
        result = expected_offline(inst, trials=trials, seed=seed)
        draws = [dm.sample_demand(inst.demand, trial_rng(seed, t)).counts for t in range(trials)]
        cold = np.array(cold_offline_values(inst, draws))
        assert result.mode == "monte-carlo"
        assert result.value.hex() == float(cold.mean()).hex()
        assert result.stderr.hex() == float(cold.std(ddof=1) / np.sqrt(trials)).hex()
        assert len(calls) < len(set(draws))

    def test_repeated_realization_reoptimizes_once(self, monkeypatch):
        # the first solve's basis is optimal for its own realization, so the
        # repeats are priced from it without another reoptimization
        inst = random_indep_instance(trial_rng(2303, 0))
        counts = next(c for c, _ in iter_demand_support(inst.demand) if sum(c) > 0)
        calls = count_reoptimizes(monkeypatch)
        assert _offline_values(inst, [counts] * 5) == cold_offline_values(inst, [counts]) * 5
        assert len(calls) == 1


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
            offline_optimum(inst, RealizedDemand((2, 1))), abs=1e-12
        )

    def test_monte_carlo_fallback_reports_mode(self, monkeypatch):
        dist = dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.5})
        inst = dm.Instance(
            rewards=((1.0, 2.0),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dist, dist)),
        )
        exact = expected_offline(inst).value
        monkeypatch.setattr(oracles, "SUPPORT_CAP", 1)
        result = expected_offline(inst, trials=4000, seed=9)
        assert result.mode == "monte-carlo"
        assert result.stderr > 0
        assert abs(result.value - exact) <= 4 * result.stderr


def _small_plan():
    dist = dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.5})
    inst = dm.Instance(
        rewards=((1.0, 2.0),), capacities=(1,), demand=dm.IndepDemandModel((dist, dist))
    )
    return plan_indep_adv_policy(inst)


@pytest.mark.parametrize("oracle", [exact_policy_value, mc_policy_value], ids=["exact", "monte-carlo"])
def test_policy_oracles_take_no_order(oracle):
    """The plan's instance names its arrival pattern; no argument repeats it."""
    assert "order" not in inspect.signature(oracle).parameters


def test_random_order_instance_gets_the_random_order_mean():
    """A plan over a random-order copy of the instance is valued at the mean
    over uniformly random orders, exactly and by Monte-Carlo; the same plan
    over the adversarial instance gets the strictly smaller worst order."""
    worst_plan = _small_plan()
    plan = plan_indep_adv_policy(dataclasses.replace(worst_plan.instance, arrival=dm.Arrival.RANDOM_ORDER))
    mean = Fraction(0)
    for counts, prob in iter_demand_support(plan.instance.demand):
        mean += Fraction(float(prob)) * orders_one_by_one(plan, counts)[1]
    exact = exact_policy_value(plan)
    assert abs(Fraction(exact.value) - mean) <= 2e-15 * mean
    assert exact_policy_value(worst_plan).value < exact.value
    mc = mc_policy_value(plan, trials=4000, seed=11)
    assert abs(mc.value - exact.value) <= 4 * mc.stderr


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize(
    "estimate",
    [
        lambda plan, trials: mc_policy_value(plan, trials=trials),
        lambda plan, trials: expected_offline(plan.instance, trials=trials),
    ],
    ids=["policy", "offline"],
)
def test_monte_carlo_needs_a_trial(estimate, trials, monkeypatch):
    monkeypatch.setattr(oracles, "SUPPORT_CAP", 1)
    with pytest.raises(ValueError, match="at least one trial"):
        estimate(_small_plan(), trials)


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

    def test_near_tie_takes_the_larger_reward(self):
        # rewards 1e-9 apart: the choice margin (1e-12) must be finer than that
        model = dm.StochasticHorizonModel(total=dm.DemandDistribution.point_mass(1), probs=((1.0,),))
        inst = dm.Instance(
            rewards=((1.0,), (1.0 + 1e-9,)), capacities=(1, 1), demand=model, arrival=dm.Arrival.RANDOM_ORDER
        )
        result = optimal_online_dp(model, inst)
        assert result.value.hex() == "0x1.000000044b830p+0"
        assert result.table[(1, (1, 1))] == (1,)

    def test_table_is_built_on_first_read(self):
        inst = lattice_cases()[-2]
        result = optimal_online_dp(inst.demand, inst)
        assert "table" not in vars(result)
        value, table = tuple_online_dp(inst.demand, inst)
        assert list(result.table.items()) == list(table.items())
        assert vars(result)["table"] is result.table
        # the value alone decides equality and repr
        other = dataclasses.replace(result, model=lattice_cases()[0].demand, instance=lattice_cases()[0])
        assert other == result and hash(other) == hash(result)
        assert repr(result) == f"DpResult(value={value!r})"
        assert result != dataclasses.replace(result, value=value + 1.0)

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
            {**dict(model.total.items), model.horizon + 2: 0.0}
        )
        # appending a zero-probability step must not change the optimum
        assert padded_total.max_support == model.horizon
        assert optimal_online_dp(
            dm.StochasticHorizonModel(total=padded_total, probs=model.probs), inst
        ).value == pytest.approx(base, abs=1e-12)

    def test_rejects_oversized_state_space(self, monkeypatch):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(2), probs=((1.0,), (1.0,))
        )
        inst = dm.Instance(
            rewards=((1.0,),) * 8,
            capacities=(9,) * 8,
            demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        monkeypatch.setattr(oracles, "STATE_CAP", 10**4)
        with pytest.raises(ValueError, match="state space"):
            optimal_online_dp(model, inst)

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


@functools.cache
def lattice_cases() -> tuple[dm.Instance, ...]:
    """300 random horizons of up to 6 steps, with 1-3 resources of mixed
    capacity 1-2, 1-3 types and rows that may sum below one; then a horizon
    whose probabilities are all `Fraction`s, and a capacity-8 horizon of 31
    steps over 3 resources (729 states)."""
    cases = [random_horizon_instance(trial_rng(2300, t), max_horizon=6) for t in range(300)]
    model = dm.StochasticHorizonModel(
        total=dm.DemandDistribution.from_pmf({1: Fraction(1, 6), 2: Fraction(1, 3), 3: Fraction(1, 2)}),
        probs=((Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 5), Fraction(1, 5)), (Fraction(1, 7), Fraction(5, 7))),
    )
    cases.append(
        dm.Instance(rewards=((3.0, 1.0), (2.0, 2.5)), capacities=(2, 1), demand=model, arrival=dm.Arrival.RANDOM_ORDER)
    )
    cases.append(random_horizon_instance(trial_rng(2323, 46), max_horizon=32, fixed_capacity=8))
    return tuple(cases)


class TestCapacityLattice:
    """The oracles on the integer-indexed lattice against the tuple-keyed
    recursions they replaced (`reference.tuple_online_dp` and
    `reference.tuple_horizon_value`), bit for bit."""

    def test_cases_cover_the_edges(self):
        cases = lattice_cases()
        assert any(inst.n == 1 for inst in cases)
        assert any(sum(map(float, row)) < 1.0 for inst in cases for row in inst.demand.probs)
        assert any(len(set(inst.capacities)) > 1 for inst in cases)
        assert isinstance(cases[-2].demand.probs[0][0], Fraction)
        big = cases[-1]
        assert big.capacities == (8, 8, 8) and big.demand.horizon >= 24

    def test_dp_value_and_table_match_the_tuple_recursion(self):
        for idx, inst in enumerate(lattice_cases()):
            result = optimal_online_dp(inst.demand, inst)
            value, table = tuple_online_dp(inst.demand, inst)
            assert result.value.hex() == value.hex(), idx
            assert result.table == table, idx
            assert list(result.table) == list(table), idx

    def test_table_keys_are_every_step_and_state(self):
        for idx, inst in enumerate(lattice_cases()):
            lattice = list(itertools.product(*(range(k + 1) for k in inst.capacities)))
            want = {(t, caps) for t in range(1, inst.demand.horizon + 1) for caps in lattice}
            keys = optimal_online_dp(inst.demand, inst).table.keys()
            assert keys == want and len(keys) == len(want), idx

    def test_forward_pass_matches_the_tuple_recursion(self):
        for idx, inst in enumerate(lattice_cases()):
            plan = plan_horizon_policy(inst.demand, inst)
            assert horizon_policy_value(plan).value.hex() == tuple_horizon_value(plan).hex(), idx


def orders_one_by_one(plan, counts):
    """The least value over every order of ``iter_orders``, each valued from
    scratch, and the exact mean of those values."""
    d = RealizedDemand(counts)
    values = [threshold_value_for_order(plan, order) for order in iter_orders(d)]
    return min(values), sum(map(Fraction, values)) / order_count(d)


def assert_search_matches_one_by_one(plan):
    """Per realization: the worst value is the least over all orders bit for
    bit, the returned order replays to it, and the random-order mean is
    within 2e-15 relative of the exact mean.  ``exact_policy_value`` sums
    those worst values and means over the demand law."""
    worst = 0.0
    random_order = Fraction(0)
    for counts, prob in iter_demand_support(plan.instance.demand):
        low, mean = orders_one_by_one(plan, counts)
        order, value = worst_case_order(plan, RealizedDemand(counts))
        assert value.hex() == low.hex(), counts
        assert threshold_value_for_order(plan, order.types).hex() == low.hex(), counts
        found = Fraction(_search_orders(plan, counts, worst=False)[1])
        assert abs(found - mean) <= 2e-15 * mean, counts
        p = float(prob)
        if p > 0.0:
            worst += p * low
            random_order += Fraction(p) * mean
    assert exact_policy_value(plan).value.hex() == worst.hex()
    found = Fraction(exact_policy_value(under_random_order(plan)).value)
    assert abs(found - random_order) <= 2e-15 * random_order


def over_unit_mass_plan(second_type_probs):
    """One resource, two types with two arrivals each, every type qualifying,
    and type 1's rank probabilities replaced by ``second_type_probs``."""
    dist = dm.DemandDistribution.point_mass(2)
    inst = dm.Instance(
        rewards=((40.0, 20.0),), capacities=(1,), demand=dm.IndepDemandModel((dist, dist))
    )
    plan = plan_indep_adv_policy(inst)
    first = dataclasses.replace(plan.routings[0], rank_probs=((0.3, 0.3),))
    second = dataclasses.replace(plan.routings[1], rank_probs=(second_type_probs,))
    return dataclasses.replace(plan, routings=(first, second), taus=(0.0,))


class TestOrderSearchAgainstOneByOne:
    """The count-lattice order search returns the least value over every
    order, valued from scratch, bit for bit, and the exact random-order mean
    to within rounding."""

    def test_random_instances(self):
        for trial in range(300):
            inst = random_indep_instance(
                trial_rng(2700, trial), max_n=3, max_m=3, max_support=3, max_value=3
            )
            assert_search_matches_one_by_one(plan_indep_adv_policy(inst))

    @pytest.mark.parametrize("second_type_probs", [(0.5, 0.5000000000000002), (0.9, 0.6)])
    def test_rank_mass_above_one(self, second_type_probs):
        # an arrival can lower the value here (a blocked chance below zero);
        # the least value at each count vector still leads to the least value
        assert sum(second_type_probs) > 1.0
        assert_search_matches_one_by_one(over_unit_mass_plan(second_type_probs))

    @pytest.mark.parametrize("type_two_mass", [None, (0.7, 0.7)])
    def test_ties_return_the_first_minimal_order(self, type_two_mass):
        # types 0 and 1 are interchangeable and type 2 earns nothing; with a
        # rank mass above one for type 2, every order is valued to the end
        dist = dm.DemandDistribution.from_pmf({1: 0.5, 2: 0.5})
        inst = dm.Instance(
            rewards=((1.0, 1.0, 0.0), (2.0, 2.0, 0.0)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist, dist, dist)),
        )
        plan = plan_indep_adv_policy(inst)
        d = RealizedDemand((2, 2, 1))
        if type_two_mass is not None:
            two = dataclasses.replace(plan.routings[2], rank_probs=(type_two_mass, (0.0, 0.0)))
            plan = dataclasses.replace(plan, routings=(*plan.routings[:2], two), taus=(0.0, 0.0))
            d = RealizedDemand((2, 2, 2))
        values = {o: threshold_value_for_order(plan, o) for o in iter_orders(d)}
        low = min(values.values())
        minimal = [o for o in iter_orders(d) if values[o] == low]
        assert len(minimal) > 1
        assert worst_case_order(plan, d) == (dm.ArrivalSequence(types=minimal[0]), low)


class TestWorstCaseOrder:
    def test_five_thousand_arrivals_of_one_type(self):
        """The forward pass runs layer by layer without recursion, so a long
        realization does not reach the interpreter's recursion limit."""
        inst = dm.Instance(
            rewards=((1.0,),),
            capacities=(1,),
            demand=dm.IndepDemandModel((dm.DemandDistribution.point_mass(5000),)),
        )
        plan = plan_indep_adv_policy(inst)
        order, value = worst_case_order(plan, RealizedDemand((5000,)))
        assert order.types == (0,) * 5000 and value == 1.0
        for arrival_plan in (plan, under_random_order(plan)):
            assert exact_policy_value(arrival_plan) == dm.OracleValue(value=1.0, mode="exact")

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

    @pytest.mark.parametrize("counts", [(2,), (1, 1, 1)])
    def test_rejects_a_realization_of_the_wrong_length(self, counts):
        plan = plan_indep_adv_policy(gen_counterexample("two_stage_reward", {"eps": 0.5, "k1": 2}))
        with pytest.raises(ValueError, match="types"):
            worst_case_order(plan, RealizedDemand(counts))

    def test_orders_far_past_enumeration(self):
        # about 1e17 orders; the search visits the 9**4 count vectors
        dist = dm.DemandDistribution.from_pmf({1: 0.5, 8: 0.5})
        inst = dm.Instance(
            rewards=((1.0, 2.0, 3.0, 4.0), (4.0, 3.0, 2.0, 1.0)),
            capacities=(1, 2),
            demand=dm.IndepDemandModel((dist,) * 4),
        )
        plan = plan_indep_adv_policy(inst)
        d = RealizedDemand((8, 8, 8, 8))
        order, value = worst_case_order(plan, d)
        assert threshold_value_for_order(plan, order.types) == value
        rng = np.random.default_rng(0)
        shuffles = [sample_random_order(d, rng).types for _ in range(400)]
        values = [threshold_value_for_order(plan, o) for o in shuffles]
        assert value <= min(values)
        mean = _search_orders(plan, d.counts, worst=False)[1]
        assert abs(mean - np.mean(values)) <= 4 * np.std(values, ddof=1) / np.sqrt(len(values))


class TestExactPolicyValue:
    def test_empty_demand(self):
        dist = dm.DemandDistribution.point_mass(0)
        inst = dm.Instance(
            rewards=((1.0,),), capacities=(1,), demand=dm.IndepDemandModel((dist,))
        )
        plan = plan_indep_adv_policy(inst)
        assert exact_policy_value(plan).value == 0.0

    def test_two_stage_reward_capped_by_capacity(self):
        for k1 in (1, 3):
            inst = gen_counterexample("two_stage_reward", {"eps": 0.05, "k1": k1})
            plan = plan_indep_adv_policy(inst)
            assert exact_policy_value(plan).value <= k1 + 1e-9

    def test_random_order_at_least_worst_order(self):
        for trial in range(10):
            inst = random_indep_instance(
                trial_rng(2500, trial), max_n=3, max_m=3, max_support=3, max_value=2,
                max_total_capacity=3,
            )
            plan = plan_indep_adv_policy(inst)
            worst = exact_policy_value(plan).value
            random_order = exact_policy_value(under_random_order(plan)).value
            assert random_order >= worst - 1e-9

    def test_half_guarantee_on_large_realizations(self):
        # realizations up to (8, 8, 8, 8), far too many orders to enumerate
        def trial(rng):
            inst = random_indep_instance(
                rng, max_n=3, max_m=4, max_support=3, max_value=8, max_total_capacity=4
            )
            plan = plan_indep_adv_policy(inst)
            return exact_policy_value(plan).value, plan.lp_value

        failure, _, _ = _guarantee_sweep(trial, 0.5, 60, 3017)
        assert not failure, failure

    def test_matches_monte_carlo_within_four_se(self):
        dist0 = dm.DemandDistribution.from_pmf({0: 0.5, 2: 0.5})
        dist1 = dm.DemandDistribution.from_pmf({1: 0.7, 2: 0.3})
        inst = dm.Instance(
            rewards=((1.0, 2.0), (3.0, 0.5)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((dist0, dist1)),
        )
        plan = plan_indep_adv_policy(inst)
        exact = exact_policy_value(plan)
        assert exact.mode == "exact"
        mc = mc_policy_value(plan, trials=100_000, seed=4)
        assert abs(mc.value - exact.value) <= 4 * mc.stderr

    def test_monte_carlo_fallback_reports_mode(self, monkeypatch):
        inst = random_indep_instance(
            np.random.default_rng(6), max_n=2, max_m=2, max_support=3, max_value=2,
            max_total_capacity=2,
        )
        plan = plan_indep_adv_policy(inst)
        exact = exact_policy_value(plan).value
        monkeypatch.setattr(oracles, "SUPPORT_CAP", 1)
        result = exact_policy_value(plan, trials=2000, seed=1)
        assert result.mode == "monte-carlo"
        assert abs(result.value - exact) <= max(4 * result.stderr, 1e-9)
