"""Fluid, subset-tightened, and conditional relaxations."""

import importlib.util
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

import demandmatch as dm
from demandmatch import relaxations
from demandmatch.builtin import EXAMPLES
from demandmatch.demand import UnsupportedDemandModel, trial_rng
from demandmatch.experiments import (
    gen_counterexample,
    random_horizon_instance,
    random_indep_instance,
)
from demandmatch.cli import main
from demandmatch.linprog import LpStatus, solve_lp
from demandmatch.policies import plan_horizon_policy
from demandmatch.relaxations import (
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    enumerate_violated_cut,
    horizon_model_of,
    separation_oracle,
    transportation_lp,
)
from reference import (
    density_prefix_cuts,
    first_largest,
    is_feasible,
    knapsack_cuts,
    random_correl_instance,
)

THREE_POINT = EXAMPLES["demo3"].dist.to_float()


def bench_workloads():
    """The benchmark's instance generators, ``bench/workloads.py``."""
    name = "bench_workloads"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


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


NO_MARGINAL = "stochastic-horizon demand has no per-type marginal here; use the conditional LP"
NO_HORIZON = "independent demand has no canonical horizon view"
DEMAND_KINDS = {
    "indep": (random_indep_instance, {"cond": NO_HORIZON}),
    "correl": (random_correl_instance, {}),
    "horizon": (random_horizon_instance, {"fluid": NO_MARGINAL, "trunc": NO_MARGINAL}),
}


@pytest.mark.parametrize("kind", DEMAND_KINDS)
@pytest.mark.parametrize("name", relaxations.RELAXATIONS)
def test_each_relaxation_solves_or_names_what_the_model_lacks(name, kind):
    """Every relaxation and demand kind: an optimal solve, or the model's own refusal."""
    make, refusals = DEMAND_KINDS[kind]
    inst = make(np.random.default_rng(28))
    if name in refusals:
        with pytest.raises(UnsupportedDemandModel) as exc:
            relaxations.solve_relaxation(name, inst)
        assert str(exc.value) == refusals[name]
    else:
        assert relaxations.solve_relaxation(name, inst)[1].is_optimal


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


class TestSeparationReference:
    @pytest.mark.parametrize("trial", range(40))
    def test_matches_per_type_loop_exactly(self, trial):
        rng = trial_rng(655, trial)
        if trial % 4:
            inst = random_indep_instance(
                rng, max_n=12, max_m=3, max_support=4, max_value=6, max_total_capacity=15
            )
        else:
            inst = random_correl_instance(rng)
        for _ in range(5):
            # zeros and exact ties between resources are the hard cases
            x = np.round(rng.uniform(0.0, 1.3, size=inst.n * inst.m), 1)
            x *= rng.random(x.size) < 0.7
            # the cutting-plane round's cut list: every violated type's best,
            # by the stated tie rule, bit for bit
            cuts = relaxations._violated_cuts(x, inst, relaxations._expectation_table(inst))
            assert cuts == density_prefix_cuts(x, inst)
            assert separation_oracle(x, inst) == first_largest(cuts)
            # the knapsack, an independent check: the same violated types and
            # the same largest violation; tied subsets may differ
            knapsack = knapsack_cuts(x, inst)
            assert [c.type_index for c in cuts] == [c.type_index for c in knapsack]
            for cut, other in zip(cuts, knapsack):
                assert abs(cut.violation - other.violation) <= 1e-12

    def test_density_order_beats_value_order(self):
        # D is 2 or 4, so E[min(D, k)] = 1, 2, 2.5, 3 at k = 1..4.  Resource 0
        # (capacity 3) carries more mass, resource 1 (capacity 1) more per
        # unit: {1} is violated by 0.3, {0, 1} by 0.2 and {0} not at all.
        dist = dm.DemandDistribution.from_pmf({2: 0.5, 4: 0.5})
        inst = dm.Instance(rewards=((1.0,), (1.0,)), capacities=(3, 1), demand=dm.IndepDemandModel((dist,)))
        cut = separation_oracle([1.9, 1.3], inst)
        assert (cut.type_index, cut.subset, cut.rhs) == (0, (1,), 1.0)
        assert cut.violation == pytest.approx(0.3, abs=1e-12)
        assert enumerate_violated_cut([1.9, 1.3], inst) == cut

    @pytest.mark.parametrize("trial", range(30))
    def test_each_type_matches_subset_enumeration(self, trial):
        # per type, the largest violation over all 2^n subsets, on random
        # capacities; loads scale with k_i and some are zero, so most cuts
        # are proper subsets
        rng = trial_rng(656, trial)
        inst = random_indep_instance(
            rng, max_n=10, max_m=3, max_support=5, max_value=12, max_total_capacity=30
        )
        caps = np.repeat(inst.capacities, inst.m)
        x = rng.uniform(0.0, 1.0, size=caps.size) * caps * (rng.random(caps.size) < 0.6)
        cuts = {c.type_index: c for c in relaxations._violated_cuts(x, inst, relaxations._expectation_table(inst))}
        for j in range(inst.m):
            marginal = inst.demand.marginal(j)
            worst = max(
                sum(x[i * inst.m + j] for i in subset)
                - float(marginal.truncated_expectation(sum(inst.capacities[i] for i in subset)))
                for size in range(1, inst.n + 1)
                for subset in itertools.combinations(range(inst.n), size)
            )
            if worst > relaxations.CUT_TOL:
                assert abs(cuts[j].violation - worst) <= 1e-12
                load = sum(x[i * inst.m + j] for i in cuts[j].subset)
                assert abs(load - cuts[j].rhs - worst) <= 1e-12
            else:
                assert j not in cuts


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
        assert any(cut.subset == (0,) for cut in result.pool)

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

    @staticmethod
    def rare_tail_instance(rng):
        """n <= 8 resources and up to three types, each demanding a few units
        or, with probability 1e-7 to 1e-5, the total capacity.  Each unit of
        the tail's mass raises ``E[min(D, k)]`` only by that probability, so a
        cut the LP wants is violated by about that much: a loose cut
        tolerance leaves it violated."""
        n, m = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        caps = tuple(int(c) for c in rng.integers(1, 3, size=n))
        rewards = tuple(tuple(float(r) for r in row) for row in np.round(rng.uniform(0.5, 2.0, size=(n, m)), 3))
        laws = []
        for _ in range(m):
            low, tail = int(rng.integers(0, 3)), float(np.round(10 ** rng.uniform(-7, -5), 12))
            laws.append(dm.DemandDistribution.from_pmf({low: 1 - tail, sum(caps): tail}))
        return dm.Instance(rewards=rewards, capacities=caps, demand=dm.IndepDemandModel(per_type=tuple(laws)))

    def test_no_subset_cut_violated_beyond_ten_times_the_cut_tolerance(self):
        # every subset of every type, against a bound summed from the law's
        # atoms here: a check that never reads ``CUT_TOL``, whose tenfold,
        # 1e-8, it holds the final point to
        for trial in range(20):
            inst = self.rare_tail_instance(trial_rng(8282, trial))
            x = build_truncated_lp(inst).solution.values
            for j, law in enumerate(inst.demand.per_type):
                for mask in range(1, 1 << inst.n):
                    subset = [i for i in range(inst.n) if mask >> i & 1]
                    cap = sum(inst.capacities[i] for i in subset)
                    bound = sum(float(p) * min(v, cap) for v, p in law.items)
                    load = sum(x[i * inst.m + j] for i in subset)
                    assert load - bound <= 1e-8, (trial, j, subset)

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

    def test_bench_ladder_instance_matches_highs(self):
        # the trunc-plan generator at n = 50: 50 unit resources, 10 types,
        # n + m = 60 base rows, then each round's cuts reoptimized from the
        # previous basis
        inst = bench_workloads().trunc_instance(np.random.default_rng(1), 0, 50)
        result = build_truncated_lp(inst)
        # one cut per violated type per round takes 11 rounds here; a loop
        # that adds one cut per round takes 59
        assert result.rounds <= 20
        assert len(result.pool) <= inst.m * result.rounds
        lp = result.lp
        assert lp.num_rows == 60 + len(result.pool)
        res = scipy_linprog(-lp.objective, A_ub=lp.rows, b_ub=lp.rhs, bounds=(0, None), method="highs")
        assert res.status == 0, res.message
        assert abs(result.solution.objective_value + res.fun) <= 1e-9 * max(1.0, abs(res.fun))
        assert is_feasible(lp, result.solution.values)
        assert separation_oracle(result.solution.values, inst) is None

    @pytest.mark.parametrize("trial", range(5))
    def test_round_appends_every_violated_type(self, trial, monkeypatch):
        # the pool is each round's cut list in turn, every list in type
        # order, and every round reads the one table built for the solve
        oracle = relaxations._violated_cuts
        rounds, tables = [], []

        def spy(x, inst, table):
            tables.append(table)
            rounds.append(oracle(x, inst, table))
            return rounds[-1]

        monkeypatch.setattr(relaxations, "_violated_cuts", spy)
        inst = bench_workloads().trunc_instance(np.random.default_rng(trial), 0, 15)
        result = build_truncated_lp(inst)
        assert len(rounds) == result.rounds and rounds[-1] == []
        assert max(len(cuts) for cuts in rounds) > 1
        assert result.pool == tuple(cut for cuts in rounds for cut in cuts)
        for cuts in rounds:
            types = [cut.type_index for cut in cuts]
            assert types == sorted(set(types))
        assert all(table is tables[0] for table in tables)

    def test_repeated_cut_raises(self, monkeypatch):
        # a round oracle stuck on a row already in the pool is an error, not a point
        cut = relaxations.Cut(type_index=0, subset=(0, 1), rhs=0.5, violation=1.0)
        monkeypatch.setattr(relaxations, "_violated_cuts", lambda x, inst, table: [cut])
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
        assert is_feasible(lp, sol.values)


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


    def test_cache_holds_a_sweep_of_small_shapes(self):
        # the horizon oracles' sweep over 2-8 steps, 1-3 resources and 1-3
        # types cycles through 36 shapes; a second pass builds none of them
        shapes = [(n, m, steps) for steps in (2, 4, 6, 8) for n in (1, 2, 3) for m in (1, 2, 3)]
        relaxations._bipartite_rows.cache_clear()
        for _ in range(2):
            for shape in shapes:
                relaxations._bipartite_rows(*shape)
        info = relaxations._bipartite_rows.cache_info()
        relaxations._bipartite_rows.cache_clear()
        assert (info.misses, info.hits) == (36, 36)

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
