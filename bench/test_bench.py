"""Tests of the benchmark itself, at tiny sizes.

Every workload's checks pass on the program as it is, and a value perturbed
by 1e-6 is caught by the check that guards it, so no check is vacuous.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

EPS = 1e-6
SEED = 7


def fired(kind, inst, out) -> set[str]:
    return {p.split(":")[0] for p in checks.CHECK[kind](inst, out)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_passes_its_checks(name):
    workload = workloads.WORKLOADS[name]
    instances = workloads.make_instances(workload, SEED, {g.label: 1 for g in workload.groups})
    for group, inst in instances:
        out = workloads.RUN[group.kind](inst)
        assert checks.CHECK[group.kind](inst, out) == [], group.label
        assert workloads.fingerprint(group.kind, out) == workloads.fingerprint(
            group.kind, workloads.RUN[group.kind](inst)
        )


def test_same_seed_same_instances():
    workload = workloads.WORKLOADS["trunc-plan"]
    counts = {g.label: 1 for g in workload.groups}
    first = workloads.make_instances(workload, SEED, counts)
    again = workloads.make_instances(workload, SEED, counts)
    other = workloads.make_instances(workload, SEED + 1, counts)
    assert [i for _, i in first] == [i for _, i in again]
    assert [i for _, i in first] != [i for _, i in other]


def test_trunc_plan_errors_are_caught():
    # demand at most 3 for each of 3 types against 12 resources: every
    # type's full-set demand row binds, so raising x violates a subset cut
    inst = workloads.trunc_instance(np.random.default_rng(SEED), 0, n=12, m=3)
    plan = workloads.run_trunc(inst)
    assert fired("trunc", inst, plan) == set()
    assert "lp-value" in fired("trunc", inst, dataclasses.replace(plan, lp_value=plan.lp_value + EPS))
    raised = tuple(tuple(v + EPS for v in row) for row in plan.x)
    assert {"separation", "marginals"} <= fired("trunc", inst, dataclasses.replace(plan, x=raised))


def test_cond_plan_errors_are_caught():
    inst = workloads.cond_instance(np.random.default_rng(SEED), 0, horizon=6, n=3, m=3, capacity=2)
    plan = workloads.run_cond(inst)
    assert fired("cond", inst, plan) == set()
    assert "lp-value" in fired("cond", inst, dataclasses.replace(plan, lp_value=plan.lp_value + EPS))
    y = [[list(r) for r in step] for step in plan.y]
    y[0][0][0] += EPS
    y = tuple(tuple(tuple(r) for r in step) for step in y)
    assert "plan-y" in fired("cond", inst, dataclasses.replace(plan, y=y))
    plans = tuple(dataclasses.replace(p, gamma=p.gamma + EPS) for p in plan.plans)
    assert "policy-value" in fired("cond", inst, dataclasses.replace(plan, plans=plans))


def test_prophet_errors_are_caught():
    inst = workloads.prophet_instance(np.random.default_rng(SEED), 26)
    out = workloads.run_prophet(inst)
    assert fired("prophet", inst, out) == set()
    for key, name in (("off", "offline"), ("trunc", "truncated"), ("fluid", "fluid")):
        assert name in fired("prophet", inst, {**out, key: out[key] + EPS})
    assert "ordering" in fired("prophet", inst, {**out, "off": out["trunc"] + EPS})


def test_adversary_errors_are_caught():
    inst = workloads.adversary_instance(np.random.default_rng(SEED), 125)
    out = workloads.run_adversary(inst)
    assert fired("adversary", inst, out) == set()
    plan = out["plan"]
    assert "lp-value" in fired("adversary", inst, {**out, "plan": dataclasses.replace(plan, lp_value=plan.lp_value + EPS)})
    assert "guarantee" in fired("adversary", inst, {**out, "value": plan.lp_value / 2 - EPS})
    counts, p, order, value = out["rows"][-1]
    assert len(order) > 1
    for row, name in (((counts, p, order, value + EPS), "order-value"), ((counts, p, order[:-1], value), "order")):
        assert name in fired("adversary", inst, {**out, "rows": out["rows"][:-1] + [row]})


def test_horizon_errors_are_caught():
    inst = workloads.horizon_instance(np.random.default_rng(SEED), 107)
    out = workloads.run_horizon(inst)
    assert fired("horizon", inst, out) == set()
    plan, dp = out["plan"], out["dp"]
    assert "lp-value" in fired("horizon", inst, {**out, "plan": dataclasses.replace(plan, lp_value=plan.lp_value + EPS)})
    assert "policy-value" in fired("horizon", inst, {**out, "value": out["value"] + EPS})
    assert "online-dp" in fired("horizon", inst, {**out, "dp": dataclasses.replace(dp, value=dp.value + EPS)})
    assert "guarantee" in fired("horizon", inst, {**out, "dp": dataclasses.replace(dp, value=out["value"] - EPS)})


def test_rounding_audit_errors_are_caught():
    inst = workloads.audit_instance(np.random.default_rng(SEED), 1, smallest=7, span=2)
    column, _ = inst
    out = workloads.run_audit(inst)
    assert fired("audit", inst, out) == set()
    rd, report = out["rd"], out["report"]
    assert "invariants" in fired("audit", inst, {**out, "problems": out["problems"] + [["planted"]]})
    achieved = (report.achieved[0] + Fraction(1, 10**6),) + report.achieved[1:]
    assert "verify-marginals" in fired("audit", inst, {**out, "report": dataclasses.replace(report, achieved=achieved)})
    (routing, prob), *rest = rd.branches()
    planted = dataclasses.replace(rd, _cache={"branches": ((routing, prob + Fraction(1, 10**6)), *rest)})
    assert {"branch-mass", "branch-marginals"} <= fired("audit", inst, {**out, "rd": planted})
    survivals = tuple(s - Fraction(1, 10**6) for s in rd.survivals)
    assert "compact-marginals" in fired("audit", inst, {**out, "rd": dataclasses.replace(rd, survivals=survivals)})
    assert any(x != 0 for x in column)


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "trunc-plan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
