"""One-phase simplex: statuses, golden values, and the vertex-enumeration
cross-check for random programs."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from demandmatch.demand import trial_rng
from demandmatch.experiments import random_horizon_instance, random_indep_instance
from demandmatch.linprog import (
    LinearProgram,
    LpStatus,
    check_feasible,
    format_tableau,
    solution_to_csv,
    solve_lp,
)
from demandmatch.relaxations import (
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    horizon_model_of,
)


def enumerate_optimum(lp: LinearProgram) -> float:
    """Brute-force optimum over basic solutions of [A | I] x = b.

    Every vertex of {Ax <= b, x >= 0} is a basic solution of the slack-padded
    system, so scanning all column subsets of size m and solving the square
    system finds the optimum whenever one exists.
    """
    m = lp.num_rows
    n = lp.num_vars
    A = np.hstack([np.array(lp.rows, dtype=float), np.eye(m)])
    b = np.array(lp.rhs, dtype=float)
    c = np.concatenate([np.array(lp.objective, dtype=float), np.zeros(m)])
    best = None
    for cols in itertools.combinations(range(n + m), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        x_basic = np.linalg.solve(B, b)
        if np.any(x_basic < -1e-9):
            continue
        x = np.zeros(n + m)
        x[list(cols)] = x_basic
        value = float(c @ x)
        if best is None or value > best:
            best = value
    assert best is not None, "enumeration found no feasible basis"
    return best


class TestTrivialPrograms:
    def test_empty_program(self):
        sol = solve_lp(LinearProgram(objective=(), rows=(), rhs=()))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == 0.0

    def test_single_bound(self):
        sol = solve_lp(LinearProgram(objective=(1.0,), rows=((1.0,),), rhs=(3.0,)))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert sol.values == (3.0,)

    def test_unbounded(self):
        sol = solve_lp(LinearProgram(objective=(1.0, 0.0), rows=((0.0, 1.0),), rhs=(1.0,)))
        assert sol.status is LpStatus.UNBOUNDED

    def test_unconstrained_zero_objective(self):
        sol = solve_lp(LinearProgram(objective=(0.0, 0.0), rows=(), rhs=()))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == 0.0

    def test_unconstrained_positive_objective_is_unbounded(self):
        # no rows: the improving column finds no leaving row
        sol = solve_lp(LinearProgram(objective=(0.0, 2.0), rows=(), rhs=()))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.objective_value == np.inf

    def test_negative_rhs_rejected(self):
        # x = 0 must be feasible: the normal form has rhs >= 0
        with pytest.raises(ValueError, match=r"rhs\[1\] = -1.0 is not finite and nonnegative"):
            LinearProgram(objective=(1.0, 1.0), rows=((1.0, 0.0), (0.0, 1.0)), rhs=(2.0, -1.0))


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_five_variable_programs(self, seed):
        rng = np.random.default_rng((910, seed))
        n, m = 5, int(rng.integers(2, 6))
        rows = tuple(tuple(float(v) for v in rng.uniform(-1, 2, size=n)) for _ in range(m))
        rhs = tuple(float(v) for v in rng.uniform(0.5, 3.0, size=m))
        objective = tuple(float(v) for v in rng.uniform(-1, 2, size=n))
        # bound the box so the program cannot be unbounded
        box = tuple(tuple(1.0 if i == j else 0.0 for i in range(n)) for j in range(n))
        lp = LinearProgram(
            objective=objective, rows=rows + box, rhs=rhs + tuple(10.0 for _ in range(n))
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(enumerate_optimum(lp), abs=1e-7)
        assert check_feasible(lp, sol.values)

    def test_degenerate_program_terminates(self):
        # classic cycling-prone data; Bland fallback must finish
        lp = LinearProgram(
            objective=(0.75, -150.0, 0.02, -6.0),
            rows=(
                (0.25, -60.0, -0.04, 9.0),
                (0.5, -90.0, -0.02, 3.0),
                (0.0, 0.0, 1.0, 0.0),
            ),
            rhs=(0.0, 0.0, 1.0),
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(0.05, abs=1e-8)


class TestBasisAndExports:
    def test_optimal_solution_is_basic(self):
        lp = LinearProgram(
            objective=(3.0, 2.0),
            rows=((1.0, 1.0), (2.0, 1.0)),
            rhs=(4.0, 6.0),
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert len(sol.basis) == lp.num_rows
        assert sol.objective_value == pytest.approx(10.0, abs=1e-9)

    def test_tableau_and_csv_render(self):
        lp = LinearProgram(
            objective=(1.0, 0.5),
            rows=((1.0, 0.0), (0.0, 1.0)),
            rhs=(1.0, 2.0),
        )
        sol = solve_lp(lp)
        text = format_tableau(lp, ("a", "b"))
        assert "1*a" in text and "<= 2" in text
        csv = solution_to_csv(("a", "b"), sol)
        assert csv.splitlines()[0] == "variable,value"
        assert csv.count("\n") == 3

    def test_row_length_validation(self):
        with pytest.raises(ValueError, match="coefficients"):
            LinearProgram(objective=(1.0, 1.0), rows=((1.0,),), rhs=(1.0,))
        with pytest.raises(ValueError, match="finite"):
            LinearProgram(objective=(1.0,), rows=((1.0,),), rhs=(float("inf"),))


def highs_value(lp: LinearProgram) -> float:
    res = scipy_linprog(
        -lp.objective, A_ub=lp.rows, b_ub=lp.rhs, bounds=(0, None), method="highs"
    )
    assert res.status == 0, res.message
    return -float(res.fun)


class TestAgainstHighs:
    """The simplex and HiGHS agree on the relaxations of random instances."""

    @pytest.mark.parametrize("trial", range(40))
    def test_relaxation_values(self, trial):
        indep = random_indep_instance(trial_rng(5221, trial))
        horizon = random_horizon_instance(trial_rng(5222, trial))
        for lp in (
            build_fluid_lp(indep),
            build_truncated_lp(indep).lp,
            conditional_lp(horizon_model_of(horizon), horizon),
        ):
            expected = highs_value(lp)
            assert solve_lp(lp).objective_value == pytest.approx(expected, rel=1e-9, abs=1e-12)
