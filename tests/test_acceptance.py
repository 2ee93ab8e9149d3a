"""The pinned verification gate.

One test per check; each prints its own PASS/FAIL line with the measured
values so the suite output doubles as the verification report.  Scales,
seeds, and tolerances live in :mod:`demandmatch.acceptance` and are not
calibrated here.
"""

import dataclasses
import math

import pytest

from demandmatch import acceptance
from demandmatch.acceptance import CRITERIA
from demandmatch.oracles import OracleValue


@pytest.mark.parametrize("name", list(CRITERIA))
def test_criterion(name, capsys):
    result = CRITERIA[name]()
    mark = "PASS" if result.passed else "FAIL"
    with capsys.disabled():
        print(f"\n[{mark}] {result.key} ({result.seconds:.1f}s): {result.detail}")
    assert result.passed, f"{result.key}: {result.detail}"


@pytest.mark.parametrize("shortfall, passed", [(1e-8, False), (0.0, True)], ids=["below", "at"])
def test_adversarial_guarantee_twin(shortfall, passed, monkeypatch):
    """Known-bad twin: a policy valued 1e-8 (ten times the gate's TOL of
    1e-9) below half its LP fails the criterion; one exactly at half passes.
    The LP is positive, so a floor of 0.4 or a TOL of 1e-3 would let the bad
    one through."""
    lp_values = []

    def twin(plan):
        lp_values.append(plan.lp_value)
        return OracleValue(value=0.5 * plan.lp_value - shortfall, mode="exact")

    monkeypatch.setattr(acceptance, "exact_policy_value", twin)
    result = acceptance.check_adversarial_guarantee(count=1, seed=3004)
    assert result.passed is passed, result.detail
    assert len(lp_values) == 1 and lp_values[0] > 1.0


def test_adversarial_guarantee_checks_200_of_200_trials():
    """A trial whose truncated LP is 0, where any nonnegative value clears half
    of it, draws again from its own stream; at seed 3003 that redraws 8 of the
    200 trials, so all 200 check the guarantee."""
    result = acceptance.check_adversarial_guarantee()
    assert result.detail.endswith(" over 200 of 200 trials with LP > 1e-12"), result.detail


@pytest.mark.parametrize("excess, passed", [(1e-8, False), (0.0, True)], ids=["above", "at"])
def test_lp_ordering_twin(excess, passed, monkeypatch):
    """Known-bad twin of ``lp-ordering``: the first trial's offline value is
    1e-8 (ten times the gate's TOL of 1e-9) above its truncated LP, which
    fails the criterion; an offline value exactly at the LP passes.  The gate
    compares ``off > trunc + TOL``, so a TOL loosened tenfold to 1e-8 would
    forgive an excess of 1e-8 and let the bad twin through."""
    offline = acceptance.expected_offline
    calls = []

    def twin(inst):
        calls.append(inst)
        if len(calls) > 1:
            return offline(inst)
        trunc = acceptance.solve_relaxation("trunc", inst)[1].objective_value
        assert trunc > 0.1
        return OracleValue(value=trunc + excess, mode="exact")

    monkeypatch.setattr(acceptance, "expected_offline", twin)
    result = acceptance.check_lp_ordering(count=3)
    assert result.passed is passed, result.detail
    assert len(calls) == (1 if not passed else 3)
    if not passed:
        assert result.detail.startswith("trial 0: "), result.detail


@pytest.mark.parametrize("shrink, passed", [(1e-8, False), (0.0, True)], ids=["below", "at"])
def test_ocrs_schedule_twin(shrink, passed, monkeypatch):
    """Known-bad twin: every plan's gamma shrunk by 1e-8 (ten times the gate's
    TOL) while its schedule stays, so a step of rate y accepts ``1e-8 * y``
    more than ``gamma * y``; the first trial has rates above 0.1, so a TOL of
    1e-8 would let it through.  The real plans pass."""
    plan_of = acceptance.ocrs_plan

    def twin(rates, k):
        plan = plan_of(rates, k)
        return dataclasses.replace(plan, gamma=plan.gamma - shrink)

    monkeypatch.setattr(acceptance, "ocrs_plan", twin)
    result = acceptance.check_ocrs_schedule(count=20)
    assert result.passed is passed, result.detail
    if not passed:
        assert result.detail.startswith("trial 0 step "), result.detail


@pytest.mark.parametrize("shortfall, passed", [(1e-8, False), (0.0, True)], ids=["below", "at"])
def test_horizon_capacity_floor_twin(shortfall, passed, monkeypatch):
    """Known-bad twin of the capacity-k floor: a plan whose resources all
    have capacity k >= 2 is valued 1e-8 (ten times the gate's TOL) below
    ``floor_k * LP``, with ``floor_k = 1 - 1/sqrt(k + 3)``, and any other plan
    at its LP.  Both clear LP/2, so only a floor sweep can fail the bad one,
    and floors cut to 0.9 of ``floor_k`` would let it through; a plan
    exactly at the floor passes."""
    capacities = []

    def twin(plan):
        caps = set(plan.instance.capacities)
        k = caps.pop() if len(caps) == 1 else 1
        capacities.append(k)
        if k < 2:
            return OracleValue(value=plan.lp_value, mode="exact")
        floor = 1.0 - 1.0 / math.sqrt(k + 3)
        return OracleValue(value=floor * plan.lp_value - shortfall, mode="exact")

    monkeypatch.setattr(acceptance, "horizon_policy_value", twin)
    # the floors run count // 2 trials each
    result = acceptance.check_horizon_guarantee(count=2)
    assert result.passed is passed, result.detail
    # two half-LP trials, then one trial per floor up to the first failure
    assert capacities[2:] == ([2, 4] if passed else [2])
    if not passed:
        assert result.detail.startswith("k=2 trial 0: "), result.detail
