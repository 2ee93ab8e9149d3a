"""Recorded outputs pinned bit for bit: seeded routing samples, exact
branches, OCRS schedules, static-bar values, seeded Monte-Carlo oracle
values and the package's public names.

The rounding replay, the accepted-count step, the transportation-LP builder
and the Monte-Carlo reducer are each shared by several callers; any drift in
their arithmetic or in the order of random draws fails here.  README promises
that seeded runs reproduce.
"""

import dataclasses
import types
from fractions import Fraction

import numpy as np
import pytest

import demandmatch as dm
from demandmatch.builtin import EXAMPLES
from demandmatch.demand import Arrival, DemandDistribution
from demandmatch.experiments import (
    gen_counterexample,
    random_indep_instance,
    run_experiment,
)
from demandmatch import oracles
from demandmatch.oracles import exact_policy_value, expected_offline, mc_policy_value
from demandmatch.policies import ocrs_plan, plan_indep_adv_policy, static_threshold_value
from demandmatch.relaxations import horizon_model_of
from demandmatch.rounding import typeround
from reference import config_from_generator

#: float column whose rounding spawns zero-probability ranks twice
FLOAT_COLUMN = (0.55, 0.1, 0.3, 0.2, 0.05)
FLOAT_DIST = DemandDistribution.from_pmf({1: 0.4, 2: 0.3, 4: 0.3})


def _routing_distribution(name):
    if name == "float":
        return typeround(FLOAT_COLUMN, FLOAT_DIST)
    return typeround(EXAMPLES[name].column, EXAMPLES[name].dist)


def _encode(routing):
    """One character per rank: the resource index, or '-' when idle."""
    return "".join("-" if r is None else str(r) for r in routing.assignment)


# The first 20 routings drawn from one generator seeded with the key's seed.
SAMPLES = {
    ("demo3", 0): "102 012 201 102 201 102 102 102 102 012 012 102 102 201 102 102 012 102 021 102",
    ("demo3", 1): "201 021 012 102 102 102 012 012 012 012 102 021 102 102 021 102 102 201 012 012",
    ("demo3", 2): "012 102 102 012 012 102 012 012 102 012 012 102 021 012 012 021 201 102 102 102",
    ("demo5", 0): "2310- -1203 2-103 3210- 2-103 -1203 2130- 21-03 2-103 2-103 "
    "2310- 2310- -1203 2130- 2310- 2-103 -1203 3120- 21-03 2310-",
    ("demo5", 1): "3210- 2310- 2-103 21-03 2130- 2130- 21-03 21-03 2-103 21-03 "
    "2-103 2-103 21-03 21-03 2-103 2-103 -1203 2-103 21-03 -2103",
    ("demo5", 2): "21-03 21-03 2130- 2310- 2130- -2103 2130- -2103 -1203 2310- "
    "-1203 2310- 2-103 -1203 2-103 2130- 21-03 -1203 -1203 2310-",
    ("float", 0): "-0213 -0231 -0321 -3012 -2031 -0312 -0421 -0321 -0231 -0321 "
    "-0213 -0231 -0321 -2013 -0231 -0213 -0241 -0214 -0231 -0321",
    ("float", 1): "-0241 -0321 -0312 -0231 -0231 -0214 -2031 -0231 -0241 -0231 "
    "-0231 -2031 -0321 -0231 -3021 -0213 -2013 -0231 -2031 -0421",
    ("float", 2): "-0312 -0231 -0231 -0231 -2031 -0321 -0231 -0214 -0231 -0321 "
    "-3021 -0231 -0312 -2041 -0231 -0213 -0231 -0241 -0231 -3012",
}


@pytest.mark.parametrize("name,seed", sorted(SAMPLES))
def test_seeded_samples(name, seed):
    rd = _routing_distribution(name)
    rng = np.random.default_rng(seed)
    drawn = " ".join(_encode(rd.sample(rng)) for _ in range(20))
    assert drawn == SAMPLES[(name, seed)]


def test_demo5_branches_exact():
    got = {_encode(r): p for r, p in _routing_distribution("demo5").branches()}
    assert got == {
        "-1203": Fraction(2, 35),
        "-2103": Fraction(2, 35),
        "2-103": Fraction(8, 35),
        "21-03": Fraction(8, 35),
        "2130-": Fraction(6, 35),
        "2310-": Fraction(6, 35),
        "3120-": Fraction(3, 70),
        "3210-": Fraction(3, 70),
    }


#: ``rank_probs``, one row per resource over the ranks: exact for demo5,
#: ``float.hex()`` for the float column
RANK_PROBS = {
    "demo5": [
        ["0", "0", "0", "1", "0"],
        ["0", "1/2", "1/2", "0", "0"],
        ["4/5", "1/10", "1/10", "0", "0"],
        ["3/35", "6/35", "6/35", "0", "4/7"],
        ["0", "0", "0", "0", "0"],
    ],
    "float": [
        ["0x0.0p+0", "0x1.aaaaaaaaaaaadp-1", "0x1.555555555554cp-3", "0x0.0p+0", "0x0.0p+0"],
        ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.5555555555556p-2", "0x1.5555555555555p-1"],
        ["0x0.0p+0", "0x1.c71c71c71c716p-4", "0x1.1c71c71c71c77p-1", "0x1.c71c71c71c710p-3", "0x1.c71c71c71c711p-4"],
        ["0x0.0p+0", "0x1.6c16c16c16c06p-5", "0x1.c71c71c71c717p-3", "0x1.6c16c16c16c1ep-2", "0x1.6c16c16c16c20p-3"],
        ["0x0.0p+0", "0x1.6c16c16c16bf7p-7", "0x1.c71c71c71c704p-5", "0x1.6c16c16c16c0fp-4", "0x1.6c16c16c16c11p-5"],
    ],
}


@pytest.mark.parametrize("name", sorted(RANK_PROBS))
def test_rank_probs(name):
    rd = _routing_distribution(name)
    kind, encode = (Fraction, str) if name == "demo5" else (float, float.hex)
    assert all(type(q) is kind for row in rd.rank_probs for q in row)
    assert [[encode(q) for q in row] for row in rd.rank_probs] == RANK_PROBS[name]


OCRS = [
    (
        [0.3, 0.2, 0.1, 0.25],
        1,
        "0x1.4000000000000p-1",
        ["0x1.4000000000000p-1", "0x1.89d89d89d89d9p-1", "0x1.d1745d1745d17p-1", "0x1.0000000000000p+0"],
    ),
    (
        [0.9, 0.8, 0.7, 0.4],
        3,
        "0x1.8a3709a200000p-1",
        ["0x1.8a3709a200000p-1", "0x1.8a3709a200000p-1", "0x1.8a3709a200000p-1", "0x1.fffffffbfb363p-1"],
    ),
    (
        [0.25] * 8,
        2,
        "0x1.458e5cac00000p-1",
        [
            "0x1.458e5cac00000p-1",
            "0x1.458e5cac00000p-1",
            "0x1.4dfef4649fc57p-1",
            "0x1.5da33f235e03bp-1",
            "0x1.74d1e5af6de20p-1",
            "0x1.951b3b1bf3cfdp-1",
            "0x1.c19a2f2d8e9b9p-1",
            "0x1.fffffffaffd4ap-1",
        ],
    ),
]


@pytest.mark.parametrize("rates,k,gamma,accept", OCRS)
def test_ocrs_schedule(rates, k, gamma, accept):
    plan = ocrs_plan(rates, k)
    assert plan.gamma.hex() == gamma
    assert [c.hex() for c in plan.accept_probs] == accept


#: static_threshold_value at every distinct bar of escalating_rewards, T=6
STATIC = [
    (0.0, "0x1.e666666666666p+0"),
    (1.0, "0x1.e666666666666p+0"),
    (10.0, "0x1.5ae147ae147aep+1"),
    (99.99999999999999, "0x1.5ae147ae147a2p+1"),
    (999.9999999999999, "0x1.5ae147ae1471dp+1"),
    (9999.999999999998, "0x1.5ae147ae141fdp+1"),
    (99999.99999999997, "0x1.5ae147ae10ec2p+1"),
    (999999.9999999997, "0x1.fffffffff8232p-1"),
    (1000000.9999999997, "0x0.0p+0"),
]


def test_static_threshold_values():
    inst = gen_counterexample("escalating_rewards", {"T": 6, "eps": 0.1})
    model = horizon_model_of(inst)
    got = [(bar, static_threshold_value(model, inst, bar).hex()) for bar, _ in STATIC]
    assert got == STATIC


def _two_type_offline():
    dist = DemandDistribution.from_pmf({0: 0.5, 1: 0.5})
    return dm.Instance(
        rewards=((1.0, 2.0),), capacities=(1,), demand=dm.IndepDemandModel((dist, dist))
    )


def _small_threshold_plan(arrival=Arrival.ADVERSARIAL):
    inst = random_indep_instance(
        np.random.default_rng(6), max_n=2, max_m=2, max_support=3, max_value=2,
        max_total_capacity=2,
    )
    return plan_indep_adv_policy(dataclasses.replace(inst, arrival=arrival))


def _horizon_numerator():
    cfg = config_from_generator(
        "rare_long_horizon", {"N": 3}, policy="horizon", benchmark="cond",
        trials=3000, seed=7, exact=False,
    )
    estimate = run_experiment(cfg)
    return estimate.numerator, estimate.stderr, estimate.trials


#: (value, stderr, trials) of each seeded Monte-Carlo estimate, with every
#: demand support above ``oracles.SUPPORT_CAP``
MONTE_CARLO = {
    "expected_offline": (
        lambda: expected_offline(_two_type_offline(), trials=4000, seed=9),
        ("0x1.4083126e978d5p+0", "0x1.a9e0df761c891p-7", 4000),
    ),
    "exact_policy_value": (
        lambda: exact_policy_value(_small_threshold_plan(), trials=2000, seed=1),
        ("0x1.c8fa5e675774ep+2", "0x1.7b472d928eadbp-6", 2000),
    ),
    "mc_policy_value-worst": (
        lambda: mc_policy_value(_small_threshold_plan(), trials=3000, seed=4),
        ("0x1.c885915d43605p+2", "0x1.45e894810c426p-6", 3000),
    ),
    "mc_policy_value-random": (
        lambda: mc_policy_value(_small_threshold_plan(Arrival.RANDOM_ORDER), trials=3000, seed=4),
        ("0x1.c83b379cddaa1p+2", "0x1.494607015c157p-6", 3000),
    ),
}


@pytest.mark.parametrize("name", sorted(MONTE_CARLO))
def test_monte_carlo_values(name, monkeypatch):
    monkeypatch.setattr(oracles, "SUPPORT_CAP", 1)
    compute, expected = MONTE_CARLO[name]
    result = compute()
    assert result.mode == "monte-carlo"
    assert (result.value.hex(), result.stderr.hex(), result.trials) == expected


def test_horizon_monte_carlo_numerator():
    value, stderr, trials = _horizon_numerator()
    assert (value.hex(), stderr.hex(), trials) == (
        "0x1.0a6921735ee40p+0", "0x1.6671a301d0dc7p-5", 3000
    )


PUBLIC_SURFACE = (
    "Arrival ArrivalSequence CorrelDemandModel Cut DemandDistribution "
    "ExperimentConfig HorizonPlan IndepAdvPlan IndepDemandModel InfeasibleColumnError "
    "Instance InstanceFormatError LinearProgram LpSolution LpStatus OcrsPlan OracleValue "
    "RatioEstimate RealizedDemand RoundingState Routing RoutingDistribution "
    "StochasticHorizonModel best_static_threshold build_fluid_lp "
    "build_truncated_lp exact_policy_value expand_unit_capacity expected_offline "
    "gen_counterexample horizon_policy_value load_instance loads_instance ocrs_plan "
    "offline_optimum optimal_online_dp parse_instance plan_horizon_policy "
    "plan_indep_adv_policy report run_experiment sample_demand sample_horizon_path "
    "sample_random_order separation_oracle solve_lp static_threshold_value "
    "truncated_poisson typeround verify_marginals worst_case_order"
).split()


def test_public_surface():
    """Every export added to or dropped from the package shows up here."""
    exported = sorted(
        name
        for name, value in vars(dm).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert exported == PUBLIC_SURFACE
