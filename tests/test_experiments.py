"""Instance families, ratio experiments, and report rendering."""

import contextlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from demandmatch.demand import UnsupportedDemandModel
from demandmatch.experiments import (
    BENCHMARKS,
    POLICIES,
    ExperimentConfig,
    gen_counterexample,
    random_feasible_column,
    report,
    run_experiment,
)
from demandmatch.linprog import LinearProgram
from demandmatch.oracles import horizon_policy_value, optimal_online_dp
from demandmatch.policies import ocrs_plan, plan_horizon_policy
from demandmatch.relaxations import RELAXATIONS, horizon_model_of, solve_relaxation
from reference import config_from_generator


class TestGenerators:
    def test_fluid_gap_single_shape(self):
        inst = gen_counterexample("fluid_gap_single", {"eps": Fraction(1, 4)})
        dist = inst.demand.per_type[0]
        assert dict(dist.items) == {0: Fraction(3, 4), 4: Fraction(1, 4)}
        assert inst.n == inst.m == 1
        assert inst.capacities == (1,)

    def test_fluid_gap_capped_shape(self):
        inst = gen_counterexample("fluid_gap_capped", {"n": 5})
        assert inst.n == 5
        assert inst.rewards[0] == (1.0,)
        assert all(row == (0.0,) for row in inst.rewards[1:])
        assert dict(inst.demand.per_type[0].items) == {0: Fraction(4, 5), 5: Fraction(1, 5)}

    def test_two_stage_reward_shape(self):
        inst = gen_counterexample("two_stage_reward", {"eps": 0.1, "k1": 3})
        assert inst.capacities == (3,)
        assert inst.rewards[0][1] == pytest.approx(10.0)
        cheap, dear = inst.demand.per_type
        assert dict(cheap.items) == {3: 1}
        assert dear.probability(3) == pytest.approx(0.1)

    def test_escalating_rewards_shape(self):
        inst = gen_counterexample("escalating_rewards", {"T": 4, "eps": 0.1})
        model = inst.demand
        assert model.horizon == 4
        assert model.m == 5
        # step t offers reward 10^t rarely, 10^(t-1) otherwise
        assert model.probs[0][1] == pytest.approx(0.1)
        assert model.probs[0][0] == pytest.approx(0.9)
        assert float(model.total.survival(3)) == pytest.approx(0.01)

    def test_rare_long_horizon_shape(self):
        inst = gen_counterexample("rare_long_horizon", {"N": 10})
        model = inst.demand
        assert model.type_probs == (1 - Fraction(1, 1000), Fraction(1, 1000))
        assert dict(model.total.items) == {1: Fraction(9, 10), 101: Fraction(1, 10)}
        assert inst.rewards[0] == (1.0, 100.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown instance family"):
            gen_counterexample("nope", {})

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            gen_counterexample("fluid_gap_single", {"eps": 2.0})
        with pytest.raises(ValueError):
            gen_counterexample("fluid_gap_capped", {"n": 1})
        with pytest.raises(ValueError):
            gen_counterexample("rare_long_horizon", {"N": 1})
        # a count with a fractional part is rejected, not truncated; an
        # integral float is still a count
        for name, key, params in (
            ("fluid_gap_capped", "n", {}),
            ("two_stage_reward", "k1", {"eps": 0.1}),
            ("escalating_rewards", "T", {"eps": 0.1}),
            ("rare_long_horizon", "N", {}),
        ):
            for bad in (2.7, Fraction(7, 2), math.inf, math.nan):
                with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer, got {bad!r}")):
                    gen_counterexample(name, {**params, key: bad})
            assert gen_counterexample(name, {**params, key: 5.0}) == gen_counterexample(name, {**params, key: 5})

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("two_stage_reward", {"eps": 1.5, "k1": 2}, "eps must lie in (0,1), got 1.5"),
            ("two_stage_reward", {"eps": 0.1, "k1": 0}, "k1 must be positive, got 0"),
            ("escalating_rewards", {"T": 0, "eps": 0.1}, "T must be positive, got 0"),
            ("escalating_rewards", {"T": 3, "eps": 1.0}, "eps must lie in (0,1), got 1.0"),
        ],
    )
    def test_out_of_range_params_rejected(self, name, params, message):
        with pytest.raises(ValueError) as exc:
            gen_counterexample(name, params)
        assert str(exc.value) == message

    def test_single_step_escalating_family_degenerates(self):
        inst = gen_counterexample("escalating_rewards", {"T": 1, "eps": 0.3})
        assert inst.demand.horizon == 1
        assert dict(inst.demand.total.items) == {1: 1.0}


class TestRunExperiment:
    def test_offline_vs_fluid_ratio(self):
        cfg = config_from_generator(
            "fluid_gap_single", {"eps": Fraction(1, 4)}, policy="offline", benchmark="fluid"
        )
        estimate = run_experiment(cfg)
        assert estimate.ratio == pytest.approx(0.25, abs=1e-12)
        assert estimate.mode == "exact"
        assert estimate.stderr == 0.0

    def test_threshold_policy_vs_offline_bound(self):
        cfg = config_from_generator(
            "two_stage_reward", {"eps": 0.1, "k1": 2}, policy="threshold", benchmark="off"
        )
        estimate = run_experiment(cfg)
        assert estimate.numerator <= 2 + 1e-9
        assert estimate.ratio <= 1 / (2 - 0.1) + 1e-9

    def test_opt_vs_cond_on_rare_long_horizon(self):
        cfg = config_from_generator(
            "rare_long_horizon", {"N": 5}, policy="opt", benchmark="cond"
        )
        estimate = run_experiment(cfg)
        assert 0.5 <= estimate.ratio <= 1.0

    def test_exact_horizon_policy_vs_online_optimum(self):
        """The exact horizon numerator and the ``opt`` denominator are the
        oracles' own values, bit for bit."""
        cfg = config_from_generator(
            "rare_long_horizon", {"N": 5}, policy="horizon", benchmark="opt", exact=True
        )
        estimate = run_experiment(cfg)
        inst = cfg.instance
        assert estimate.numerator == horizon_policy_value(plan_horizon_policy(horizon_model_of(inst), inst)).value
        assert estimate.denominator == optimal_online_dp(horizon_model_of(inst), inst).value
        assert estimate.mode == "exact"
        assert 0.5 <= estimate.ratio <= 1.0

    def test_deterministic_given_seed(self):
        cfg = config_from_generator(
            "fluid_gap_single",
            {"eps": 0.25},
            policy="threshold",
            benchmark="trunc",
            trials=500,
            seed=42,
            exact=False,
        )
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_monte_carlo_matches_exact_within_four_se(self):
        exact_cfg = config_from_generator(
            "two_stage_reward", {"eps": 0.2, "k1": 1}, policy="threshold", benchmark="trunc"
        )
        mc_cfg = config_from_generator(
            "two_stage_reward",
            {"eps": 0.2, "k1": 1},
            policy="threshold",
            benchmark="trunc",
            trials=100_000,
            seed=7,
            exact=False,
        )
        exact = run_experiment(exact_cfg)
        mc = run_experiment(mc_cfg)
        assert abs(mc.numerator - exact.numerator) <= 4 * mc.stderr

    def test_monte_carlo_fallback_honours_trials_and_seed(self):
        """An oracle past its support cap samples the configured trials from
        the configured seed."""
        estimates = [
            run_experiment(
                config_from_generator(
                    "escalating_rewards", {"T": 14, "eps": 0.5}, policy="offline",
                    benchmark="cond", trials=50, seed=seed,
                )
            )
            for seed in (3, 4)
        ]
        assert [(e.mode, e.trials) for e in estimates] == [("monte-carlo", 50)] * 2
        assert estimates[0].numerator != estimates[1].numerator

    @pytest.mark.parametrize("against", BENCHMARKS)  # not "benchmark": pytest-benchmark's fixture
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_against_every_benchmark(self, policy, against):
        """Each pair of table entries runs exactly on the small instances of
        the demand kinds that both accept (independent and correlated) and
        raises the CLI's usage error on the rest; only a threshold policy,
        which needs independent demand, against a benchmark that needs a
        horizon, runs on neither."""
        estimates = []
        for name, params in (("two_stage_reward", {"eps": 0.5, "k1": 1}), ("rare_long_horizon", {"N": 3})):
            cfg = config_from_generator(name, params, policy=policy, benchmark=against, trials=7)
            with contextlib.suppress(UnsupportedDemandModel):
                estimates.append(run_experiment(cfg))
        assert bool(estimates) != (policy == "threshold" and against in ("cond", "opt"))
        for e in estimates:
            assert (e.mode, e.trials, e.stderr) == ("exact", 0, 0.0)
            assert 0 < e.numerator and 0 < e.denominator
            assert e.ratio == e.numerator / e.denominator

    def test_validation(self):
        inst = gen_counterexample("fluid_gap_single", {"eps": 0.5})
        with pytest.raises(ValueError, match="policy"):
            ExperimentConfig(
                instance_id="x", policy="nope", benchmark="fluid", instance=inst
            )
        with pytest.raises(ValueError, match="benchmark"):
            ExperimentConfig(
                instance_id="x", policy="offline", benchmark="nope", instance=inst
            )


class TestReport:
    def test_empty_results_header_only(self):
        csv_text, md_text = report([])
        assert csv_text.splitlines() == [
            "instance_id,generator,params,policy,benchmark,numerator,denominator,"
            "ratio,stderr,trials,seed,mode"
        ]
        assert len(md_text.splitlines()) == 2

    def test_exact_row_has_zero_stderr(self):
        cfg = config_from_generator(
            "fluid_gap_single", {"eps": 0.5}, policy="offline", benchmark="fluid"
        )
        csv_text, _ = report([run_experiment(cfg)])
        row = csv_text.splitlines()[1].split(",")
        assert row[8] == "0"
        assert row[7] == "0.500000"

    def test_byte_identical_across_runs(self):
        def render():
            rows = []
            for eps in (0.5, 0.25):
                cfg = config_from_generator(
                    "fluid_gap_single",
                    {"eps": eps},
                    policy="threshold",
                    benchmark="trunc",
                    trials=2000,
                    seed=11,
                    exact=False,
                )
                rows.append(run_experiment(cfg))
            return report(rows)

        first_csv, first_md = render()
        second_csv, second_md = render()
        assert first_csv == second_csv
        assert first_md == second_md


class TestRandomColumnGenerator:
    def test_columns_respect_prefix_budgets(self):
        for trial in range(200):
            rng = np.random.default_rng((2700, trial))
            n = int(rng.integers(1, 9))
            column, dist = random_feasible_column(rng, n)
            ordered = sorted(column, reverse=True)
            used = Fraction(0)
            for pos, x in enumerate(ordered, start=1):
                used += x
                assert used <= dist.truncated_expectation(pos)
                assert 0 <= x <= 1


TWO_STAGE = gen_counterexample("two_stage_reward", {"eps": 0.5, "k1": 1})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ExperimentConfig("x", "offline", "fluid", TWO_STAGE, trials=0), "trials must be at least 1"),
        (lambda: solve_relaxation("nope", TWO_STAGE), f"unknown relaxation 'nope'; pick one of {RELAXATIONS}"),
        (lambda: ocrs_plan([0.5], 0), "capacity must be positive, got 0"),
        (lambda: LinearProgram(objective=(1.0,), rows=((1.0,), (1.0,)), rhs=(1.0,)), "2 rows but 1 rhs entries"),
    ],
    ids=["experiment-trials", "relaxation-name", "ocrs-capacity", "lp-rhs-length"],
)
def test_entry_point_rejects_bad_input(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
