"""Demand distributions, models, instances, and sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandmatch as dm
from demandmatch.demand import (
    RealizedDemand,
    demand_support_size,
    iter_demand_support,
    iter_orders,
    order_count,
    trial_rng,
)

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


class TestDistributionValidation:
    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="negative"):
            dm.DemandDistribution.from_pmf({0: 1.5, 1: -0.5})

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="sums to"):
            dm.DemandDistribution.from_pmf({0: 0.5, 1: 0.4})

    def test_rejects_exact_bad_mass(self):
        with pytest.raises(ValueError, match="sums to"):
            dm.DemandDistribution.from_pmf({0: Fraction(1, 2), 1: Fraction(1, 3)})

    def test_rejects_negative_support(self):
        with pytest.raises(ValueError):
            dm.DemandDistribution.from_pmf({-1: 0.5, 1: 0.5})

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
        assert marginal.pmf == {
            0: Fraction(1, 4),
            1: Fraction(1, 2),
            2: Fraction(1, 4),
        }

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

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="positive integers"):
            dm.Instance(
                rewards=((1.0,),),
                capacities=(0,),
                demand=dm.IndepDemandModel((THREE_POINT,)),
            )


class TestExpandUnitCapacity:
    def test_single_resource_duplication(self):
        inst = dm.Instance(
            rewards=((5.0,),),
            capacities=(2,),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        unit, parent = dm.expand_unit_capacity(inst)
        assert unit.rewards == ((5.0,), (5.0,))
        assert unit.capacities == (1, 1)
        assert parent == (0, 0)

    def test_copy_to_parent_map(self):
        inst = dm.Instance(
            rewards=((1.0,), (2.0,)),
            capacities=(1, 3),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        unit, parent = dm.expand_unit_capacity(inst)
        assert parent == (0, 1, 1, 1)
        assert unit.rewards == ((1.0,), (2.0,), (2.0,), (2.0,))

    def test_unit_instance_is_identity(self):
        inst = dm.Instance(
            rewards=((1.0,), (2.0,)),
            capacities=(1, 1),
            demand=dm.IndepDemandModel((THREE_POINT,)),
        )
        unit, parent = dm.expand_unit_capacity(inst)
        assert unit == inst
        assert parent == (0, 1)

    def test_preserves_lp_and_oracle_values(self):
        from demandmatch.experiments import random_indep_instance

        for trial in range(20):
            inst = random_indep_instance(
                trial_rng(77, trial), max_n=3, max_m=3, max_support=3, max_total_capacity=6
            )
            unit, _ = dm.expand_unit_capacity(inst)
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
        assert dm.sample_demand(model, 1).counts == (0, 0)

    def test_indep_point_masses(self):
        model = dm.IndepDemandModel(
            per_type=(
                dm.DemandDistribution.point_mass(2),
                dm.DemandDistribution.point_mass(5),
            )
        )
        assert dm.sample_demand(model, 3).counts == (2, 5)

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

    def test_correl_draw_past_float_mass_takes_last_type(self):
        # type_probs summing a hair below one leave a gap under 1.0
        class TopGenerator(np.random.Generator):
            def random(self, *args, **kwargs):
                return 1 - 2**-53

        model = dm.CorrelDemandModel(
            total=dm.DemandDistribution.point_mass(3), type_probs=(0.1, 0.2, 0.3, 0.4 - 1e-13)
        )
        assert dm.sample_demand(model, TopGenerator(np.random.PCG64(0))).counts == (0, 0, 0, 3)

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


class TestRandomOrder:
    def test_single_arrangement(self):
        order = dm.sample_random_order(RealizedDemand((1, 0)), 0)
        assert order.types == (0,)

    def test_empty(self):
        assert dm.sample_random_order(RealizedDemand((0, 0, 0)), 0).types == ()

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


class TestSupportEnumeration:
    @pytest.mark.parametrize("kind", ["indep", "correl", "horizon"])
    def test_support_probabilities_sum_to_one(self, kind):
        from demandmatch.experiments import (
            random_correl_instance,
            random_horizon_instance,
            random_indep_instance,
        )

        maker = {
            "indep": random_indep_instance,
            "correl": random_correl_instance,
            "horizon": random_horizon_instance,
        }[kind]
        for trial in range(10):
            inst = maker(trial_rng(31, trial))
            pairs = list(iter_demand_support(inst.demand))
            assert abs(sum(float(p) for _, p in pairs) - 1.0) < 1e-9
            assert len(pairs) <= demand_support_size(inst.demand)

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
