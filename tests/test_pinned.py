"""Recorded outputs pinned bit for bit: seeded routing samples, exact
branches, OCRS schedules and static-bar values.

The rounding replay, the accepted-count step and the transportation-LP
builder are each shared by several callers; any drift in their arithmetic or
in the order of random draws fails here.  README promises that seeded runs
reproduce.
"""

from fractions import Fraction

import numpy as np
import pytest

from demandmatch.builtin import EXAMPLES
from demandmatch.demand import DemandDistribution
from demandmatch.experiments import gen_counterexample
from demandmatch.policies import ocrs_plan, static_threshold_value
from demandmatch.relaxations import horizon_model_of
from demandmatch.rounding import typeround

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
