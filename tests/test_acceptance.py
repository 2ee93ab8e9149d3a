"""The pinned verification gate.

One test per check; each prints its own PASS/FAIL line with the measured
values so the suite output doubles as the verification report.  Scales,
seeds, and tolerances live in :mod:`demandmatch.acceptance` and are not
calibrated here.
"""

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
