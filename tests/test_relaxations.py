"""Fluid, subset-tightened, and conditional relaxations."""

import json
from fractions import Fraction

import numpy as np
import pytest

import demandmatch as dm
from demandmatch.builtin import EXAMPLES
from demandmatch.demand import trial_rng
from demandmatch.experiments import (
    gen_counterexample,
    random_correl_instance,
    random_horizon_instance,
    random_indep_instance,
)
from demandmatch.cli import main
from demandmatch.linprog import LpStatus, check_feasible, solve_lp
from demandmatch.policies import plan_horizon_policy
from demandmatch.relaxations import (
    UnsupportedDemandModel,
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    enumerate_violated_cut,
    horizon_model_of,
    separation_oracle,
    transportation_lp,
)

THREE_POINT = EXAMPLES["demo3"].dist.to_float()


def single_type_instance(n, dist, rewards=None):
    rewards = rewards or tuple((1.0,) for _ in range(n))
    return dm.Instance(
        rewards=rewards,
        capacities=tuple(1 for _ in range(n)),
        demand=dm.IndepDemandModel((dist,)),
    )


class TestFluidLp:
    def test_two_point_family_value_one(self):
        inst = gen_counterexample("fluid_gap_single", {"eps": Fraction(1, 4)})
        assert solve_lp(build_fluid_lp(inst)).objective_value == pytest.approx(1.0, abs=1e-9)

    def test_zero_rewards(self):
        inst = single_type_instance(2, THREE_POINT, rewards=((0.0,), (0.0,)))
        assert solve_lp(build_fluid_lp(inst)).objective_value == 0.0

    def test_capacity_bound(self):
        # two unit resources, one type with mean 3: value capped at 2
        dist = dm.DemandDistribution.point_mass(3)
        inst = single_type_instance(2, dist)
        assert solve_lp(build_fluid_lp(inst)).objective_value == pytest.approx(2.0, abs=1e-9)

    def test_rejects_horizon_model(self):
        inst = random_horizon_instance(np.random.default_rng(0))
        with pytest.raises(UnsupportedDemandModel):
            build_fluid_lp(inst)


class TestSeparationOracle:
    def test_zero_vector_feasible(self):
        inst = single_type_instance(2, THREE_POINT)
        assert separation_oracle([0.0, 0.0], inst) is None

    def test_pair_cut(self):
        inst = single_type_instance(2, THREE_POINT)
        cut = separation_oracle([0.8, 0.8], inst)
        assert cut is not None
        assert cut.subset == (0, 1)
        assert cut.rhs == pytest.approx(1.5, abs=1e-12)
        assert cut.violation == pytest.approx(0.1, abs=1e-9)

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_subset_enumeration(self, trial):
        rng = trial_rng(654, trial)
        inst = random_indep_instance(
            rng, max_n=12, max_m=2, max_support=4, max_value=6, max_total_capacity=15
        )
        x = rng.uniform(0.0, 1.3, size=inst.n * inst.m)
        fast = separation_oracle(x, inst)
        slow = enumerate_violated_cut(x, inst)
        assert (fast is None) == (slow is None)
        if fast is not None and slow is not None:
            # both must name genuinely violated rows of the same worst margin
            assert fast.violation == pytest.approx(slow.violation, abs=1e-9)


class TestTruncatedLp:
    def test_single_type_prefix_value(self):
        inst = single_type_instance(3, THREE_POINT)
        result = build_truncated_lp(inst)
        assert result.solution.objective_value == pytest.approx(1.75, abs=1e-9)

    def test_capped_family_binds_to_offline(self):
        inst = gen_counterexample("fluid_gap_capped", {"n": 10})
        result = build_truncated_lp(inst)
        assert result.solution.objective_value == pytest.approx(0.1, abs=1e-9)
        # the rewarded resource alone is the binding cut
        assert any(cut.subset == (0,) for cut in result.pool.cuts)

    @pytest.mark.parametrize("trial", range(30))
    def test_never_exceeds_fluid(self, trial):
        inst = random_indep_instance(trial_rng(321, trial))
        trunc = build_truncated_lp(inst).solution.objective_value
        fluid = solve_lp(build_fluid_lp(inst)).objective_value
        assert trunc <= fluid + 1e-9

    @pytest.mark.parametrize("trial", range(15))
    def test_output_feasible_for_all_subsets(self, trial):
        rng = trial_rng(432, trial)
        inst = random_indep_instance(
            rng, max_n=12, max_m=2, max_support=3, max_value=4, max_total_capacity=14
        )
        result = build_truncated_lp(inst)
        assert result.solution.status is LpStatus.OPTIMAL
        assert enumerate_violated_cut(result.solution.values, inst) is None

    def test_accepts_correlated_marginals(self):
        inst = random_correl_instance(np.random.default_rng(3))
        result = build_truncated_lp(inst)
        assert result.solution.status is LpStatus.OPTIMAL

    @pytest.mark.parametrize("trial", range(20))
    def test_single_type_binding_rows_are_prefixes(self, trial):
        """With the solution sorted descending, any tight subset row carries
        the same load as the prefix of its cardinality, so prefix rows
        dominate the whole family."""
        rng = trial_rng(543, trial)
        n = int(rng.integers(2, 6))
        size = int(rng.integers(1, 4))
        values = sorted(rng.choice(n + 1, size=size, replace=False).tolist())
        w = rng.uniform(0.1, 1, size=size)
        w /= w.sum()
        probs = [float(p) for p in w]
        probs[0] += 1.0 - sum(probs)
        dist = dm.DemandDistribution.from_pmf(dict(zip(values, probs)))
        rewards = tuple((float(rng.uniform(0.5, 2.0)),) for _ in range(n))
        inst = single_type_instance(n, dist, rewards=rewards)
        result = build_truncated_lp(inst)
        x = sorted(result.solution.values, reverse=True)
        prefix = np.cumsum(x)
        for s in range(1, n + 1):
            bound = float(dist.truncated_expectation(s))
            assert prefix[s - 1] <= bound + 1e-9
        # every tight subset row is explained by its prefix row
        for mask in range(1, 1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            load = sum(result.solution.values[i] for i in subset)
            bound = float(dist.truncated_expectation(len(subset)))
            if abs(load - bound) <= 1e-9:
                assert prefix[len(subset) - 1] == pytest.approx(bound, abs=1e-9)

    def test_cut_pool_rejects_duplicates(self):
        from demandmatch.relaxations import Cut, CutPool

        pool = CutPool()
        pool.add(Cut(type_index=0, subset=(0, 1), rhs=1.0))
        with pytest.raises(ValueError, match="duplicate"):
            pool.add(Cut(type_index=0, subset=(0, 1), rhs=1.0))

    def test_repeated_cut_raises(self, monkeypatch):
        # an oracle stuck on a row already in the pool is an error, not a point
        from demandmatch import relaxations

        cut = relaxations.Cut(type_index=0, subset=(0, 1), rhs=0.5, violation=1.0)
        monkeypatch.setattr(relaxations, "separation_oracle", lambda x, inst: cut)
        with pytest.raises(ValueError, match="duplicate cut"):
            build_truncated_lp(single_type_instance(3, THREE_POINT))

    def test_float_mass_above_one_solves_to_zero(self):
        # atoms a hair above one on zero: survivals clamp at 0.0, so every
        # rhs is nonnegative and both relaxations are worth nothing
        inst = single_type_instance(2, dm.DemandDistribution.from_pmf({0: 1 + 5e-13, 3: 1e-13}))
        assert solve_lp(build_fluid_lp(inst)).objective_value == 0.0
        result = build_truncated_lp(inst)
        assert result.solution.status is LpStatus.OPTIMAL
        assert result.solution.objective_value == 0.0


def greedy_single_resource_conditional(model, inst) -> float:
    """Independent oracle for n = 1: the conditional LP is a fractional
    knapsack with budget k, item caps p[t][j], and weights survival * r."""
    items = []
    for t in range(1, model.horizon + 1):
        s = float(model.total.survival(t))
        for j in range(inst.m):
            items.append((s * inst.rewards[0][j], float(model.probs[t - 1][j])))
    items.sort(reverse=True)
    budget = float(inst.capacities[0])
    value = 0.0
    for weight, cap in items:
        take = min(cap, budget)
        value += weight * take
        budget -= take
        if budget <= 0:
            break
    return value


class TestConditionalLp:
    def test_deterministic_single_step_matches_fluid(self):
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.point_mass(1), probs=((0.6, 0.4),)
        )
        inst = dm.Instance(
            rewards=((2.0, 1.0), (1.0, 3.0)),
            capacities=(1, 1),
            demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        cond = solve_lp(conditional_lp(model, inst)).objective_value
        one_step = dm.Instance(
            rewards=inst.rewards,
            capacities=inst.capacities,
            demand=dm.CorrelDemandModel(
                total=dm.DemandDistribution.point_mass(1), type_probs=(0.6, 0.4)
            ),
        )
        fluid = solve_lp(build_fluid_lp(one_step)).objective_value
        assert cond == pytest.approx(fluid, abs=1e-9)

    def test_zero_rewards(self):
        inst = random_horizon_instance(np.random.default_rng(9))
        zeroed = dm.Instance(
            rewards=tuple(tuple(0.0 for _ in row) for row in inst.rewards),
            capacities=inst.capacities,
            demand=inst.demand,
            arrival=inst.arrival,
        )
        model = horizon_model_of(zeroed)
        assert solve_lp(conditional_lp(model, zeroed)).objective_value == 0.0

    def test_rare_long_horizon_value(self):
        inst = gen_counterexample("rare_long_horizon", {"N": 10})
        model = horizon_model_of(inst)
        value = solve_lp(conditional_lp(model, inst)).objective_value
        assert value >= 2 - 1e-3 - 1e-9
        assert value == pytest.approx(greedy_single_resource_conditional(model, inst), abs=1e-7)

    @pytest.mark.parametrize("trial", range(25))
    def test_single_resource_matches_greedy(self, trial):
        inst = random_horizon_instance(trial_rng(765, trial), max_n=1)
        model = horizon_model_of(inst)
        lp = solve_lp(conditional_lp(model, inst)).objective_value
        assert lp == pytest.approx(greedy_single_resource_conditional(model, inst), abs=1e-8)

    def test_solution_rows_feasible(self):
        inst = random_horizon_instance(np.random.default_rng(13), max_n=3, max_m=3)
        model = horizon_model_of(inst)
        lp = conditional_lp(model, inst)
        sol = solve_lp(lp)
        assert check_feasible(lp, sol.values)


class TestOrderingOnCorrelated:
    """Both tightened relaxations exist for correlated demand, and each
    bounds its own side (prophet under the subset LP, online optimum under
    the conditional LP); the two LPs themselves are ordered neither way."""

    @pytest.mark.parametrize("trial", range(15))
    def test_each_side_bounds_its_benchmark(self, trial):
        inst = random_correl_instance(trial_rng(876, trial))
        model = horizon_model_of(inst)
        off = dm.expected_offline(inst).value
        trunc = build_truncated_lp(inst).solution.objective_value
        opt = dm.optimal_online_dp(model, inst).value
        cond = solve_lp(conditional_lp(model, inst)).objective_value
        assert off <= trunc + 1e-9
        assert opt <= cond + 1e-9


def _loop_transportation(inst, demand_rhs):
    """The capacity/demand rows written out element by element."""
    n, m = inst.n, inst.m
    rows, rhs = [], []
    for i in range(n):
        row = [0.0] * (n * m)
        for j in range(m):
            row[i * m + j] = 1.0
        rows.append(row)
        rhs.append(float(inst.capacities[i]))
    for j in range(m):
        row = [0.0] * (n * m)
        for i in range(n):
            row[i * m + j] = 1.0
        rows.append(row)
        rhs.append(float(demand_rhs[j]))
    objective = [float(inst.rewards[i][j]) for i in range(n) for j in range(m)]
    return objective, rows, rhs


def _loop_conditional(model, inst):
    """The horizon LP written out element by element, variable y[t,i,j]."""
    n, m, horizon = inst.n, inst.m, model.horizon

    def vid(t, i, j):
        return ((t - 1) * n + i) * m + j

    num = horizon * n * m
    objective = [0.0] * num
    for t in range(1, horizon + 1):
        weight = float(model.total.survival(t))
        for i in range(n):
            for j in range(m):
                objective[vid(t, i, j)] = weight * float(inst.rewards[i][j])
    rows, rhs = [], []
    for i in range(n):
        row = [0.0] * num
        for t in range(1, horizon + 1):
            for j in range(m):
                row[vid(t, i, j)] = 1.0
        rows.append(row)
        rhs.append(float(inst.capacities[i]))
    for t in range(1, horizon + 1):
        for j in range(m):
            row = [0.0] * num
            for i in range(n):
                row[vid(t, i, j)] = 1.0
            rows.append(row)
            rhs.append(float(model.probs[t - 1][j]))
    return objective, rows, rhs


class TestBipartiteRows:
    """Both builders lay out exactly the element-by-element matrices."""

    @pytest.mark.parametrize("horizon,n,m", [(1, 1, 1), (3, 2, 4), (5, 3, 2)])
    def test_matrices_match_loops(self, horizon, n, m):
        rng = np.random.default_rng((431, horizon, n, m))
        ends = {t: float(p) for t, p in zip(range(1, horizon + 1), rng.dirichlet(np.ones(horizon)))}
        model = dm.StochasticHorizonModel(
            total=dm.DemandDistribution.from_pmf(ends),
            probs=tuple(
                tuple(float(p) for p in rng.dirichlet(np.ones(m)) * 0.9) for _ in range(horizon)
            ),
        )
        inst = dm.Instance(
            rewards=tuple(tuple(float(r) for r in rng.uniform(0, 5, size=m)) for _ in range(n)),
            capacities=tuple(int(k) for k in rng.integers(1, 4, size=n)),
            demand=model,
            arrival=dm.Arrival.RANDOM_ORDER,
        )
        demand_rhs = [float(v) for v in rng.uniform(0, 3, size=m)]
        for lp, (objective, rows, rhs) in (
            (transportation_lp(inst, demand_rhs), _loop_transportation(inst, demand_rhs)),
            (conditional_lp(model, inst), _loop_conditional(model, inst)),
        ):
            assert np.array_equal(lp.objective, np.array(objective))
            assert np.array_equal(lp.rows, np.array(rows))
            assert np.array_equal(lp.rhs, np.array(rhs))


class TestZeroStepHorizon:
    """A total demand that is always zero gives a horizon of no steps."""

    INSTANCE = dm.Instance(
        rewards=((1.0, 2.0), (3.0, 0.5)),
        capacities=(1, 2),
        demand=dm.CorrelDemandModel(
            total=dm.DemandDistribution.point_mass(0), type_probs=(0.5, 0.5)
        ),
    )

    def test_lp_has_only_capacity_rows(self):
        model = horizon_model_of(self.INSTANCE)
        lp = conditional_lp(model, self.INSTANCE)
        assert lp.num_vars == 0
        assert lp.num_rows == self.INSTANCE.n

    def test_solves_to_zero(self):
        model = horizon_model_of(self.INSTANCE)
        solution = solve_lp(conditional_lp(model, self.INSTANCE))
        assert solution.status is LpStatus.OPTIMAL
        assert solution.objective_value == 0.0
        assert plan_horizon_policy(model, self.INSTANCE).lp_value == 0.0

    def test_cli_solve(self, tmp_path, capsys):
        doc = {
            "rewards": [[1.0, 2.0], [3.0, 0.5]],
            "capacities": [1, 2],
            "demand": {"kind": "correl", "total": {"0": 1.0}, "type_probs": [0.5, 0.5]},
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--instance", str(path), "--lp", "cond", "--dump-lp"]) == 0
        assert "cond LP value: 0.000000" in capsys.readouterr().out
