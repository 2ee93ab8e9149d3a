"""Demand distributions, models, instances, and sampling."""

import dataclasses
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandmatch as dm
from demandmatch.demand import (
    RealizedDemand,
    iter_demand_support,
    trial_rng,
)
from demandmatch.policies import HorizonPolicyState
from reference import iter_orders, order_count, random_correl_instance

THREE_POINT = dm.DemandDistribution.from_pmf(
    {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
)


class TestSurvival:
    def test_three_point_at_two(self):
        assert THREE_POINT.survival(2) == Fraction(1, 2)

    def test_beyond_support_is_zero(self):
        assert THREE_POINT.survival(THREE_POINT.max_support + 1) == 0

    def test_sparse_support(self):
        dist = dm.DemandDistribution.from_pmf({0: 0.9, 4: 0.1})
        assert dist.survival(1) == pytest.approx(0.1, abs=1e-15)
        assert dist.survival(4) == pytest.approx(0.1, abs=1e-15)

    def test_float_mass_above_one_clamps_at_zero(self):
        # PMF_TOL accepts this mass; 1 - (1 + 5e-13) must not become a survival
        dist = dm.DemandDistribution.from_pmf({0: 1 + 5e-13, 3: 1e-13})
        survivals = [dist.survival(ell) for ell in (1, 2, 3)]
        assert survivals == [0.0, 0.0, 0.0]
        assert all(type(s) is float for s in survivals)
        assert dist.mean() == 0.0

    def test_nonincreasing_and_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            size = int(rng.integers(1, 6))
            values = sorted(rng.choice(9, size=size, replace=False).tolist())
            w = rng.uniform(0.1, 1, size=size)
            w /= w.sum()
            probs = [float(p) for p in w]
            probs[0] += 1.0 - sum(probs)
            dist = dm.DemandDistribution.from_pmf(dict(zip(values, probs)))
            assert dist.survival(1) <= 1 + 1e-12
            prev = 1.0
            for ell in range(1, dist.max_support + 2):
                s = float(dist.survival(ell))
                assert s <= prev + 1e-12
                prev = s


class TestFloatCopy:
    def test_float_law_is_its_own_copy(self):
        dist = dm.DemandDistribution.from_pmf({0: 0.9, 4: 0.1})
        assert dist.to_float() is dist

    def test_exact_and_mixed_laws_convert(self):
        mixed = dm.DemandDistribution.from_pmf({1: Fraction(1, 2), 3: 0.5})
        for dist in (THREE_POINT, mixed):
            copy = dist.to_float()
            assert copy is not dist and not copy.is_exact
            assert all(type(p) is float for _, p in copy.items)
            assert copy.items == tuple((v, float(p)) for v, p in dist.items)
        assert THREE_POINT.is_exact and not mixed.is_exact


class TestTruncatedExpectation:
    def test_three_point_values(self):
        assert THREE_POINT.truncated_expectation(2) == Fraction(3, 2)
        assert THREE_POINT.truncated_expectation(3) == Fraction(7, 4)

    def test_cap_zero(self):
        assert THREE_POINT.truncated_expectation(0) == 0

    def test_matches_mean_beyond_support(self):
        assert THREE_POINT.truncated_expectation(10) == THREE_POINT.mean()

    @given(
        pmf=st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.integers(min_value=1, max_value=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_telescoping_identity(self, pmf):
        total = sum(pmf.values())
        dist = dm.DemandDistribution.from_pmf(
            {v: Fraction(w, total) for v, w in pmf.items()}
        )
        for cap in range(dist.max_support + 2):
            direct = sum(
                prob * min(value, cap) for value, prob in dist.items
            )
            telescoped = dist.truncated_expectation(cap)
            assert direct == telescoped

    @given(
        pmf=st.dictionaries(
            st.integers(min_value=0, max_value=8),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_table_sums_survivals_in_order(self, pmf):
        # the lookup returns the same float as adding survivals left to right
        total = sum(pmf.values())
        dist = dm.DemandDistribution.from_pmf({v: w / total for v, w in pmf.items()})
        table = dist.truncated_expectation_table(dist.max_support + 2)
        for cap in range(dist.max_support + 3):
            summed = 0
            for ell in range(1, min(cap, dist.max_support) + 1):
                summed = summed + dist.survival(ell)
            assert dist.truncated_expectation(cap) == summed
            assert table[cap] == float(summed)

    def test_exact_table_rounds_each_fraction(self):
        table = THREE_POINT.truncated_expectation_table(5)
        assert table.tolist() == [float(THREE_POINT.truncated_expectation(c)) for c in range(6)]


class TestDistributionValidation:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            dm.DemandDistribution.from_pmf({0: 1.5, 1: -0.5})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_probability(self, bad):
        # every comparison with NaN is false, so a plain sign test lets it through
        with pytest.raises(ValueError, match="finite"):
            dm.DemandDistribution.from_pmf({0: 0.5, 1: bad})

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="sums to"):
            dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.4})

    def test_rejects_exact_bad_mass(self):
        with pytest.raises(ValueError, match="sums to"):
            dm.DemandDistribution.from_pmf({0: Fraction(1, 2), 1: Fraction(1, 3)})

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError):
            dm.DemandDistribution.from_pmf({-1: 0.5, 1: 0.5})

    def test_rejects_non_integral_support(self):
        # 1.5 is not truncated to the support point 1, nor dropped with a zero
        # probability; numpy integers and integral floats are counts
        for pmf in ({1.5: 0.5, 3: 0.5}, {1.5: 0, 3: 1}):
            with pytest.raises(ValueError, match="a support value must be an integer, got 1.5"):
                dm.DemandDistribution.from_pmf(pmf)
        law = dm.DemandDistribution.from_pmf({np.int64(1): 0.5, 3.0: 0.5})
        assert law.items == ((1, 0.5), (3, 0.5))
        assert all(type(value) is int for value, _ in law.items)

    def test_max_support_skips_zero_mass(self):
        dist = dm.DemandDistribution.from_pmf({1: 1.0, 7: 0.0})
        assert dist.max_support == 1


class TestModels:
    def test_correl_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dm.CorrelDemandModel(total=THREE_POINT, type_probs=(0.5, 0.4))

    def test_horizon_row_count_must_match(self):
        with pytest.raises(ValueError, match="rows"):
            dm.StochasticHorizonModel(total=THREE_POINT, probs=((1.0,),))

    def test_horizon_rows_may_undershoot_one(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.from_pmf({2: 1}),
            probs=((0.5, 0.2), (0.3, 0.3)),
        )
        assert model.no_query_mass(1) == pytest.approx(0.3)

    def test_horizon_rows_may_not_overshoot(self):
        with pytest.raises(ValueError, match="above 1"):
            dm.StochasticHorizonModel(
                total=dm.DemandDistribution.from_pmf({1: 1}), probs=((0.7, 0.6),)
            )

    def test_correl_marginal_is_binomial_mixture(self):
        model = dm.CorrelDemandModel(
            total=dm.DemandDistribution.from_pmf({2: 1}),
            type_probs=(Fraction(1, 2), Fraction(1, 2)),
        )
        marginal = model.marginal(0)
        assert dict(marginal.items) == {
            0: Fraction(1, 4),
            1: Fraction(1, 2),
            2: Fraction(1, 4),
        }

    def test_correl_marginal_of_large_float_total(self):
        # C(1040, 520) is past the float range; the binomial mean is T * p
        model = dm.CorrelDemandModel(total=dm.DemandDistribution.from_pmf({1040: 1.0}), type_probs=(0.5, 0.5))
        assert abs(float(model.marginal(0).mean()) - 520.0) < 1e-9 * 520.0

    def test_correl_marginal_is_built_once(self):
        model = dm.CorrelDemandModel(total=THREE_POINT, type_probs=(0.25, 0.75))
        assert model.marginal(0) is model.marginal(0)
        assert model.marginal(1) is model.marginal(1)
        assert model.marginal(0) is not model.marginal(1)
        # the cache is per model, not shared through equality
        twin = dm.CorrelDemandModel(total=THREE_POINT, type_probs=(0.25, 0.75))
        assert twin == model and twin.marginal(0) is not model.marginal(0)
        assert twin.marginal(0) == model.marginal(0)

    def test_correl_to_horizon_constant_rows(self):
        model = dm.CorrelDemandModel(total=THREE_POINT, type_probs=(0.25, 0.75))
        horizon = model.to_horizon()
        assert horizon.horizon == 3
        assert all(row == (0.25, 0.75) for row in horizon.probs)


class TestInstance:
    def test_dimension_checks(self):
        with pytest.raises(ValueError, match="capacities"):
            dm.Instance(
                rewards=((1.0,),),
                capacities=(1, 1),
                demand=dm.IndepDemandModel((THREE_POINT,)),
            )
        with pytest.raises(ValueError, match="types"):
            dm.Instance(
                rewards=((1.0, 2.0),),
                capacities=(1,),
                demand=dm.IndepDemandModel((THREE_POINT,)),
            )

    def test_rejects_negative_reward(self):
        with pytest.raises(ValueError, match="negative"):
            dm.Instance(
                rewards=((-1.0,),),
                capacities=(1,),
                demand=dm.IndepDemandModel((THREE_POINT,)),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_reward(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dm.Instance(
                rewards=((1.0, bad),),
                capacities=(1,),
                demand=dm.IndepDemandModel((THREE_POINT, THREE_POINT)),
            )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: dm.Instance(rewards=((1.0,),), capacities=(True,), demand=dm.IndepDemandModel((THREE_POINT,))),
            lambda: RealizedDemand((True, 2)),
            lambda: dm.DemandDistribution(((True, 1.0),)),
        ],
        ids=["capacity", "realized-count", "support-value"],
    )
    def test_rejects_bool_counts(self, build):
        # io.parse_instance rejects a bool count; so do the constructors
        with pytest.raises(ValueError, match="True"):
            build()

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="positive integers"):
            dm.Instance(
                rewards=((1.0,),),
                capacities=(0,),
                demand=dm.IndepDemandModel((THREE_POINT,)),
            )


ONE_TYPE = dm.IndepDemandModel(per_type=(THREE_POINT,))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dm.DemandDistribution(()), ValueError, "demand distribution needs at least one support point"),
        (lambda: dm.DemandDistribution(((1, 0.5), (0, 0.5))), ValueError, "support values must be sorted and distinct"),
        (lambda: THREE_POINT.truncated_expectation(-1), ValueError, "cap must be nonnegative, got -1"),
        (
            lambda: dm.CorrelDemandModel(total=THREE_POINT, type_probs=(Fraction(3, 2), Fraction(-1, 2))),
            ValueError,
            "type_probs[1] = -1/2 is negative",
        ),
        (
            lambda: dm.StochasticHorizonModel(total=dm.DemandDistribution.point_mass(2), probs=((0.5, 0.5), (1.0,))),
            ValueError,
            "probs row 2 has inconsistent width",
        ),
        (
            lambda: dm.StochasticHorizonModel(total=dm.DemandDistribution.point_mass(2), probs=((), ())),
            ValueError,
            "need at least one type",
        ),
        (lambda: RealizedDemand((0.5,)), ValueError, "counts[0] = 0.5 is not a nonnegative integer"),
        (
            lambda: dm.Instance(rewards=(), capacities=(), demand=ONE_TYPE),
            ValueError,
            "instance needs at least one resource and one type",
        ),
        (
            lambda: dm.Instance(rewards=((1.0,), (1.0, 2.0)), capacities=(1, 1), demand=ONE_TYPE),
            ValueError,
            "rewards row 1 has length 2, expected 1",
        ),
        (
            lambda: dm.Instance(rewards=((1.0,),), capacities=(1,), demand=THREE_POINT),
            TypeError,
            f"not a demand model: {THREE_POINT!r}",
        ),
        # PMF_TOL is 1e-12: 5e-12 of excess or missing mass is past it, and the
        # 5e-13 of ``test_float_mass_above_one_clamps_at_zero`` within it
        (
            lambda: dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.5 + 5e-12}),
            ValueError,
            "pmf sums to 1.000000000005, outside tolerance 1e-12",
        ),
        (
            lambda: dm.CorrelDemandModel(total=THREE_POINT, type_probs=(0.5, 0.5 - 5e-12)),
            ValueError,
            "type_probs sums to 0.999999999995, expected 1",
        ),
    ],
    ids=["empty-support", "unsorted-support", "negative-cap", "negative-type-prob", "ragged-horizon",
         "horizon-no-types", "fractional-count", "no-rewards", "ragged-rewards", "not-a-model",
         "pmf-past-tolerance", "type-probs-past-tolerance"],
)
def test_constructor_rejects_bad_input(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestExpandUnitCapacity:
    def test_single_resource_duplication(self):
        inst = dm.Instance(
            rewards=((5.0,),),
            capacities=(2,),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        unit = dm.expand_unit_capacity(inst)
        assert unit.rewards == ((5.0,), (5.0,))
        assert unit.capacities == (1, 1)

    def test_copy_to_parent_map(self):
        inst = dm.Instance(
            rewards=((1.0,), (2.0,)),
            capacities=(1, 3),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        unit = dm.expand_unit_capacity(inst)
        assert unit.rewards == ((1.0,), (2.0,), (2.0,), (2.0,))

    def test_unit_instance_is_identity(self):
        inst = dm.Instance(
            rewards=((1.0,), (2.0,)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        assert dm.expand_unit_capacity(inst) == inst

    def test_preserves_lp_and_oracle_values(self):
        from demandmatch.experiments import random_indep_instance

        for trial in range(20):
            inst = random_indep_instance(
                trial_rng(77, trial), max_n=3, max_m=3, max_support=3, max_total_capacity=6
            )
            unit = dm.expand_unit_capacity(inst)
            assert dm.solve_lp(dm.build_fluid_lp(inst)).objective_value == pytest.approx(
                dm.solve_lp(dm.build_fluid_lp(unit)).objective_value, abs=1e-8
            )
            assert dm.build_truncated_lp(inst).solution.objective_value == pytest.approx(
                dm.build_truncated_lp(unit).solution.objective_value, abs=1e-8
            )
            assert dm.expected_offline(inst).value == pytest.approx(
                dm.expected_offline(unit).value, abs=1e-8
            )


class TestSampling:
    def test_correl_zero_total_gives_zero_counts(self):
        model = dm.CorrelDemandModel(
            total=dm.DemandDistribution.from_pmf({0: 1}), type_probs=(0.5, 0.5)
        )
        assert dm.sample_demand(model, np.random.default_rng(1)).counts == (0, 0)

    def test_indep_point_masses(self):
        model = dm.IndepDemandModel(
            per_type=(
                dm.DemandDistribution.point_mass(2),
                dm.DemandDistribution.point_mass(5),
            )
        )
        assert dm.sample_demand(model, np.random.default_rng(3)).counts == (2, 5)

    def test_correl_binomial_mean(self):
        model = dm.CorrelDemandModel(
            total=dm.DemandDistribution.point_mass(2), type_probs=(0.5, 0.5)
        )
        rng = np.random.default_rng(11)
        draws = 100_000
        mean = sum(dm.sample_demand(model, rng).counts[0] for _ in range(draws)) / draws
        assert abs(mean - 1.0) < 0.02

    def test_correl_count_is_binomial_chi_square(self):
        from scipy import stats

        d, p = 4, 0.3
        model = dm.CorrelDemandModel(
            total=dm.DemandDistribution.point_mass(d), type_probs=(p, 1 - p)
        )
        rng = np.random.default_rng(12)
        draws = 100_000
        observed = np.zeros(d + 1)
        for _ in range(draws):
            observed[dm.sample_demand(model, rng).counts[0]] += 1
        expected = np.array([math.comb(d, c) * p**c * (1 - p) ** (d - c) for c in range(d + 1)])
        _, pvalue = stats.chisquare(observed, expected * draws)
        assert pvalue > 1e-3

    def test_horizon_path_respects_rows(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.from_pmf({2: 1}),
            probs=((1.0, 0.0), (0.0, 0.4)),
        )
        rng = np.random.default_rng(4)
        for _ in range(200):
            path = dm.sample_horizon_path(model, rng)
            assert path[0] == 0
            assert path[1] in (1, None)


class TopGenerator(np.random.Generator):
    """Its uniforms are the largest float below one."""

    def random(self, *args, **kwargs):
        return 1 - 2**-53


def route_past_mass(rng):
    model = dm.StochasticHorizonModel(total=dm.DemandDistribution.point_mass(1), probs=((1.0,),))
    inst = dm.Instance(rewards=((1.0,), (1.0,)), capacities=(1, 1), demand=model)
    plan = dataclasses.replace(
        dm.plan_horizon_policy(model, inst), route=np.array([[[0.5], [0.5 - 1e-13]]])
    )
    # both resources accept with probability one, so None means routed nowhere
    assert all(ocrs.accept_probs == (1.0,) for ocrs in plan.plans)
    return HorizonPolicyState(plan=plan).step(1, 0, rng)


@pytest.mark.parametrize(
    "draw, expected",
    [
        (lambda rng: dm.DemandDistribution.from_pmf({0: 0.5, 3: 0.5 - 1e-13}).sample(rng), 3),
        (
            lambda rng: dm.sample_demand(
                dm.CorrelDemandModel(dm.DemandDistribution.point_mass(3), (0.1, 0.2, 0.3, 0.4 - 1e-13)),
                rng,
            ).counts,
            (0, 0, 0, 3),
        ),
        (
            lambda rng: dm.sample_horizon_path(
                dm.StochasticHorizonModel(dm.DemandDistribution.point_mass(2), ((0.5, 0.5 - 1e-13),) * 2),
                rng,
            ),
            (None, None),
        ),
        (route_past_mass, None),
    ],
    ids=["distribution-last-value", "correlated-last-type", "horizon-no-query", "policy-no-route"],
)
def test_draw_past_float_mass(draw, expected):
    """A uniform past a float mass a hair below one: the last value or type, else nothing."""
    assert draw(TopGenerator(np.random.PCG64(0))) == expected


class TestRandomOrder:
    def test_single_arrangement(self):
        order = dm.sample_random_order(RealizedDemand((1, 0)), np.random.default_rng(0))
        assert order.types == (0,)

    def test_empty(self):
        assert dm.sample_random_order(RealizedDemand((0, 0, 0)), np.random.default_rng(0)).types == ()

    def test_two_orders_are_equally_likely(self):
        rng = np.random.default_rng(21)
        draws = 100_000
        hits = sum(
            dm.sample_random_order(RealizedDemand((1, 1)), rng).types == (0, 1)
            for _ in range(draws)
        )
        assert abs(hits / draws - 0.5) < 0.01

    def test_enumeration_counts(self):
        d = RealizedDemand((2, 1))
        orders = list(iter_orders(d))
        assert len(orders) == order_count(d) == 3
        assert len(set(orders)) == 3

    def test_enumeration_is_lexicographic(self):
        d = RealizedDemand((2, 0, 1, 2))
        assert list(iter_orders(d)) == sorted(set(itertools.permutations((0, 0, 2, 3, 3))))
        assert list(iter_orders(RealizedDemand((0, 0)))) == [()]


class TestTruncatedPoisson:
    def test_mass_at_zero(self):
        dist = dm.truncated_poisson(1.0, 1e-9)
        assert abs(float(dist.probability(0)) - math.exp(-1)) < 1e-6

    def test_mean_preserved_to_tail_order(self):
        dist = dm.truncated_poisson(1.0, 1e-9)
        assert abs(float(dist.mean()) - 1.0) < 1e-6

    def test_normalized(self):
        for rate in (0.3, 2.0, 7.5):
            dist = dm.truncated_poisson(rate, 1e-6)
            assert abs(sum(float(p) for _, p in dist.items) - 1.0) <= 1e-12

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            dm.truncated_poisson(1.0, 0.0)
        with pytest.raises(ValueError):
            dm.truncated_poisson(1.0, 1.0)
        with pytest.raises(ValueError):
            dm.truncated_poisson(-1.0, 0.5)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match=f"rate must be positive and finite, got {rate}"):
            dm.truncated_poisson(rate, 1e-6)

    @pytest.mark.parametrize("rate", [740.0, 745.0, 800.0])
    def test_large_rate_keeps_its_tail(self, rate):
        # past rate ~708, exp(-rate) is subnormal or 0: the support must still
        # end where the Poisson tail, summed in logs here, drops below the cutoff
        cutoff = 1e-6
        start = time.perf_counter()
        dist = dm.truncated_poisson(rate, cutoff)
        assert time.perf_counter() - start < 0.1
        top = int(rate + 40 * math.sqrt(rate))
        logs = [v * math.log(rate) - rate - math.lgamma(v + 1) for v in range(top + 1)]
        tail = [0.0] * (top + 2)  # tail[v] = Pr[X >= v]
        for v in range(top, -1, -1):
            tail[v] = tail[v + 1] + math.exp(logs[v])
        assert dist.max_support == next(v for v in range(top + 1) if tail[v + 1] < cutoff)
        assert abs(float(dist.mean()) - rate) < 1e-3


class TestSupportEnumeration:
    @pytest.mark.parametrize("kind", ["indep", "correl", "horizon"])
    def test_support_probabilities_sum_to_one(self, kind):
        from demandmatch.experiments import random_horizon_instance, random_indep_instance

        maker = {
            "indep": random_indep_instance,
            "correl": random_correl_instance,
            "horizon": random_horizon_instance,
        }[kind]
        for trial in range(10):
            inst = maker(trial_rng(31, trial))
            pairs = list(iter_demand_support(inst.demand))
            assert abs(sum(float(p) for _, p in pairs) - 1.0) < 1e-9
            assert len(pairs) <= inst.demand.support_size()

    @pytest.mark.parametrize("total, type_probs", [(1040, (0.5, 0.5)), (650, (0.2, 0.3, 0.5))])
    def test_large_float_correl_total(self, total, type_probs):
        # multinomial coefficients past the float range: the mass still sums to one
        model = dm.CorrelDemandModel(total=dm.DemandDistribution.from_pmf({total: 1.0}), type_probs=type_probs)
        assert abs(sum(p for _, p in iter_demand_support(model)) - 1.0) < 1e-9

    def test_horizon_counts_match_simulation(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.from_pmf({1: 0.5, 2: 0.5}),
            probs=((0.6, 0.4), (0.5, 0.2)),
        )
        exact = dict(iter_demand_support(model))
        rng = np.random.default_rng(8)
        draws = 50_000
        freq: dict = {}
        for _ in range(draws):
            counts = dm.sample_demand(model, rng).counts
            freq[counts] = freq.get(counts, 0) + 1
        for counts, prob in exact.items():
            assert abs(freq.get(counts, 0) / draws - float(prob)) < 0.01
