"""One-phase simplex: statuses, golden values and pivot counts, the
vertex-enumeration cross-check for random programs, warm reoptimization
after a new row or a new right-hand side against cold solves and HiGHS, a
block of rows appended at once against the same rows one by one, and the
gathered and row-by-row updates of larger tableaux against the blocked
update they replaced."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linprog as scipy_linprog

from demandmatch import linprog, relaxations
from demandmatch.demand import (
    Arrival,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    StochasticHorizonModel,
    trial_rng,
)
from demandmatch.experiments import _rewards, _rounded_probs, random_horizon_instance, random_indep_instance
from demandmatch.linprog import (
    LinearProgram,
    LpStats,
    LpStatus,
    Tableau,
    format_tableau,
    reoptimize,
    solution_to_csv,
    solve_lp,
)
from demandmatch.relaxations import (
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    horizon_model_of,
    transportation_lp,
)
from reference import blocked_pivot, is_feasible, ladder_truncated_instance

#: Beale's example, on which Dantzig's rule cycles without an anti-cycling rule
BEALE = LinearProgram(
    objective=(0.75, -150.0, 0.02, -6.0),
    rows=(
        (0.25, -60.0, -0.04, 9.0),
        (0.5, -90.0, -0.02, 3.0),
        (0.0, 0.0, 1.0, 0.0),
    ),
    rhs=(0.0, 0.0, 1.0),
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
        assert is_feasible(lp, sol.values)

    def test_degenerate_program_terminates(self):
        # classic cycling-prone data; Bland fallback must finish
        sol = solve_lp(BEALE)
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


def ladder_horizon_lp(rng: np.random.Generator, horizon: int, n: int, m: int) -> LinearProgram:
    """The conditional LP of an instance shaped like a cond-plan ladder rung:
    ``n`` resources of capacity 2, ``m`` types, and a horizon of at most
    ``horizon`` steps with four support points, the last one ``horizon``;
    each step's arrival probabilities sum to between 1/2 and 1."""
    rewards = _rewards(rng, n, m)
    ends = sorted(set(rng.choice(np.arange(1, horizon), size=3, replace=False).tolist()) | {horizon})
    total = DemandDistribution.from_pmf(dict(zip(ends, _rounded_probs(rng, len(ends)))))
    rows = []
    for _ in range(horizon):
        weights = rng.uniform(0.0, 1.0, size=m)
        row = weights / weights.sum() * rng.uniform(0.5, 1.0)
        rows.append(tuple(float(np.round(p, 6)) for p in row))
    inst = Instance(
        rewards=rewards,
        capacities=(2,) * n,
        demand=StochasticHorizonModel(total=total, probs=tuple(rows)),
        arrival=Arrival.RANDOM_ORDER,
    )
    return conditional_lp(horizon_model_of(inst), inst)


#: (T, n, m) of the cond-plan ladder's two largest dense rungs
LADDER_SHAPES = {"T25": (25, 8, 8), "T50": (50, 10, 10)}


class TestAgainstHighs:
    """The simplex and HiGHS agree on the relaxations of random instances."""

    @pytest.mark.parametrize("shape", LADDER_SHAPES.values(), ids=LADDER_SHAPES.keys())
    def test_conditional_lp_at_ladder_sizes(self, shape):
        lp = ladder_horizon_lp(np.random.default_rng((5223, *shape)), *shape)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert is_feasible(lp, sol.values)
        expected = highs_value(lp)
        assert abs(sol.objective_value - expected) <= 1e-9 * abs(expected)

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


def assert_agrees(warm, lp: LinearProgram) -> None:
    """The warm value equals a cold solve and HiGHS to 1e-9 relative."""
    assert warm.status is LpStatus.OPTIMAL
    assert is_feasible(lp, warm.values)
    for reference in (solve_lp(lp).objective_value, highs_value(lp)):
        assert abs(warm.objective_value - reference) <= 1e-9 * max(1.0, abs(reference))


def random_bounded_lp(rng, n: int, m: int) -> LinearProgram:
    """Random normal-form rows plus the box x <= 10, so the LP is bounded."""
    rows = np.vstack([rng.uniform(-1, 2, size=(m, n)), np.eye(n)])
    rhs = np.concatenate([rng.uniform(0.5, 3.0, size=m), np.full(n, 10.0)])
    return LinearProgram(objective=rng.uniform(-1, 2, size=n), rows=rows, rhs=rhs)


class TestReoptimize:
    """Dual-simplex reoptimization of a live tableau, differentially tested."""

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_appended_one_at_a_time(self, seed):
        rng = np.random.default_rng((7301, seed))
        lp = random_bounded_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(1, 5)))
        tab = Tableau(lp)
        assert_agrees(reoptimize(tab), lp)
        for _ in range(6):
            a, b = rng.uniform(-1, 2, size=lp.num_vars), float(rng.uniform(0.0, 3.0))
            tab.add_row(a, b)
            lp = LinearProgram(lp.objective, np.vstack([lp.rows, a]), np.append(lp.rhs, b))
            assert_agrees(reoptimize(tab), lp)

    @pytest.mark.parametrize("seed", range(20))
    def test_rhs_replaced(self, seed):
        rng = np.random.default_rng((7302, seed))
        lp = random_bounded_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(1, 5)))
        tab = Tableau(lp)
        assert_agrees(reoptimize(tab), lp)
        for _ in range(6):
            # some zeros make the new basis degenerate
            rhs = rng.uniform(0.0, 3.0, size=lp.num_rows) * (rng.random(lp.num_rows) < 0.8)
            tab.set_rhs(rhs)
            lp = LinearProgram(lp.objective, lp.rows, rhs)
            assert_agrees(reoptimize(tab), lp)

    @pytest.mark.parametrize("seed", range(10))
    def test_degenerate_transportation_under_bland(self, seed, monkeypatch):
        # equal rewards make every dual step zero, so every dual pivot is
        # degenerate; a switch after one such pivot puts the dual phase under
        # Bland's rule, which must still reach the optimum
        bland_dual_pivots = []
        dual_entering = Tableau._dual_entering

        def spy(self, row):
            bland_dual_pivots.append(self.bland)
            return dual_entering(self, row)

        monkeypatch.setattr(Tableau, "_dual_entering", spy)
        rng = np.random.default_rng((7303, seed))
        n, m = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        inst = Instance(
            rewards=tuple((1.0,) * m for _ in range(n)),
            capacities=tuple(int(k) for k in rng.integers(1, 4, size=n)),
            demand=IndepDemandModel(tuple(DemandDistribution.point_mass(1) for _ in range(m))),
        )
        tab = Tableau(transportation_lp(inst, [0] * m))
        tab.bland_after = 1
        for step in range(12):
            # a drop to low demand drives several basic variables out at once
            counts = rng.integers(0, 4 if step % 2 else 2, size=m)
            lp = transportation_lp(inst, counts)
            tab.set_rhs(lp.rhs)
            assert_agrees(reoptimize(tab), lp)
        assert any(bland_dual_pivots)


class TestStats:
    """Each ``reoptimize`` call reports its own pivot counts."""

    def test_golden_counts(self):
        # Dantzig's rule cycles on Beale's example, so after bland_after = 35
        # degenerate pivots the run switches to Bland's rule, which takes one
        # more degenerate pivot and one that improves
        tab = Tableau(BEALE)
        assert tab.bland_after == 35
        first = reoptimize(tab)
        assert first.stats == LpStats(primal_pivots=37, dual_pivots=0, degenerate_pivots=36, bland_switches=1)
        # x1 <= 0 cuts the optimum off; one dual pivot restores it
        tab.add_row(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
        second = reoptimize(tab)
        assert second.stats == LpStats(primal_pivots=0, dual_pivots=1, degenerate_pivots=0, bland_switches=0)
        assert reoptimize(tab).stats == LpStats()
        assert first.stats == LpStats(primal_pivots=37, dual_pivots=0, degenerate_pivots=36, bland_switches=1)

    def test_unbounded_counts(self):
        sol = solve_lp(LinearProgram(objective=(1.0, 1.0), rows=((1.0, -1.0),), rhs=(1.0,)))
        assert sol.status is LpStatus.UNBOUNDED
        assert sol.stats == LpStats(primal_pivots=1)


class TestRowwiseUpdate:
    """Above ``_WHOLE_CELLS`` cells a pivot updates only the rows it changes:
    as one gathered block up to ``_BLOCK_CELLS`` cells, each row in place
    above that.  Every answer is bit for bit that of the blocked update those
    replaced, which updates every tableau of at most ``_BLOCK_CELLS`` whole."""

    @staticmethod
    def answers(monkeypatch, pivot, solve) -> tuple[list, list[int]]:
        """Every ``reoptimize`` answer of ``solve()`` with ``pivot`` as the
        pivot routine, and the size of the tableau at each pivot."""
        answers, sizes = [], []

        def recorded(tab):
            answers.append(reoptimize(tab))
            return answers[-1]

        def spy(tab, row, col, factors):
            sizes.append(tab._aug.size)
            pivot(tab, row, col, factors)

        monkeypatch.setattr(Tableau, "_pivot", spy)
        monkeypatch.setattr(linprog, "reoptimize", recorded)
        monkeypatch.setattr(relaxations, "reoptimize", recorded)
        solve()
        return answers, sizes

    def assert_same_as_blocked(self, monkeypatch, solve) -> tuple[list, list[int]]:
        (old, old_sizes), (new, new_sizes) = (
            self.answers(monkeypatch, pivot, solve) for pivot in (blocked_pivot, Tableau._pivot)
        )
        assert new_sizes == old_sizes
        assert len(new) == len(old)
        for a, b in zip(old, new):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.basis == b.basis
            assert a.objective_value.hex() == b.objective_value.hex()
            assert a.stats == b.stats
        return new, new_sizes

    @pytest.mark.parametrize("shape", LADDER_SHAPES.values(), ids=LADDER_SHAPES.keys())
    def test_conditional_lp(self, monkeypatch, shape):
        lp = ladder_horizon_lp(np.random.default_rng((5224, *shape)), *shape)
        (sol,), sizes = self.assert_same_as_blocked(monkeypatch, lambda: solve_lp(lp))
        assert min(sizes) > linprog._BLOCK_CELLS
        assert sol.stats.primal_pivots > 100

    def test_truncated_lp_with_cuts(self, monkeypatch):
        inst = ladder_truncated_instance(np.random.default_rng((5225, 50)), n=50)
        sols, sizes = self.assert_same_as_blocked(monkeypatch, lambda: build_truncated_lp(inst))
        assert min(sizes) > linprog._BLOCK_CELLS
        # the cuts after the first solve bring dual pivots
        assert len(sols) > 2
        assert sum(s.stats.dual_pivots for s in sols[1:]) > 0

    @pytest.mark.parametrize("n, regime", [(10, "whole"), (15, "gathered"), (20, "gathered")])
    def test_truncated_lp_at_trunc_plan_sizes(self, monkeypatch, n, regime):
        # the trunc-plan rungs: n = 10 pivots only on tableaux updated whole,
        # n = 15 and 20 only on tableaux updated as one gathered block
        inst = ladder_truncated_instance(np.random.default_rng((5226, n)), n=n)
        sols, sizes = self.assert_same_as_blocked(monkeypatch, lambda: build_truncated_lp(inst))
        whole, block = linprog._WHOLE_CELLS, linprog._BLOCK_CELLS
        assert {"whole" if s <= whole else "gathered" if s <= block else "rowwise" for s in sizes} == {regime}
        assert len(sizes) > 15
        assert sum(s.stats.dual_pivots for s in sols[1:]) > 0


class TestBlockAppend:
    """``add_row`` with a ``(k, n)`` block gives the tableau that ``k`` one-row
    calls give, byte for byte."""

    @pytest.mark.parametrize("seed", range(10))
    def test_block_matches_rows_one_by_one(self, seed):
        rng = np.random.default_rng((7304, seed))
        lp = random_bounded_lp(rng, n=int(rng.integers(3, 9)), m=int(rng.integers(1, 5)))
        by_block, by_row = Tableau(lp), Tableau(lp)
        for tab in (by_block, by_row):
            reoptimize(tab)
        for _ in range(5):
            k = int(rng.integers(1, 7))
            a, b = rng.uniform(-1, 2, size=(k, lp.num_vars)), rng.uniform(0.0, 3.0, size=k)
            by_block.add_row(a, b)
            for row, bound in zip(a, b):
                by_row.add_row(row, bound)
            assert by_block.T.tobytes() == by_row.T.tobytes()
            assert by_block.rhs.tobytes() == by_row.rhs.tobytes()
            assert by_block.basis == by_row.basis
            x, y = reoptimize(by_block), reoptimize(by_row)
            assert x.values.tobytes() == y.values.tobytes()
            assert x.basis == y.basis
            assert x.objective_value.hex() == y.objective_value.hex()
            assert x.stats == y.stats

    def test_block_that_outgrows_the_spare_rows(self):
        # a block longer than the spare rows left by an earlier one
        lp = random_bounded_lp(np.random.default_rng(7305), n=4, m=2)
        by_block, by_row = Tableau(lp), Tableau(lp)
        a = np.random.default_rng(7306).uniform(-1, 2, size=(10, 4))
        by_block.add_row(a[:2], [1.0, 2.0])
        spare = by_block._buffer.shape[0] - by_block._aug.shape[0]
        buffer = by_block._buffer
        by_block.add_row(a[2:], np.arange(8.0))
        assert spare < 8 and by_block._buffer is not buffer
        for row, bound in zip(a, [1.0, 2.0, *np.arange(8.0)]):
            by_row.add_row(row, bound)
        assert by_block._aug.tobytes() == by_row._aug.tobytes()
        assert by_block.basis == by_row.basis
        x, y = reoptimize(by_block), reoptimize(by_row)
        assert x.values.tobytes() == y.values.tobytes()
        assert x.stats == y.stats

    @pytest.mark.parametrize(
        "a, b, message",
        [
            (np.ones((2, 2)), [1.0, 1.0], "^row has 2 coefficients, expected 3$"),
            (np.ones((2, 3)), [1.0], "^2 rows but 1 rhs entries$"),
            (np.ones((2, 3)), [1.0, -0.5], r"^rhs\[1\] = -0.5 is not finite and nonnegative$"),
            (np.ones((2, 3)), [np.inf, 1.0], r"^rhs\[0\] = inf is not finite and nonnegative$"),
            (np.array([1.0, np.nan, 1.0]), 1.0, r"^a\[1\] = nan is not finite$"),
            (np.array([[1.0, 1.0, 1.0], [1.0, 1.0, -np.inf]]), [1.0, 1.0], r"^a\[1, 2\] = -inf is not finite$"),
        ],
    )
    def test_bad_rows_rejected_untouched(self, a, b, message):
        tab = Tableau(LinearProgram(objective=(1.0, 1.0, 1.0), rows=np.eye(3), rhs=(1.0, 1.0, 1.0)))
        assert reoptimize(tab).objective_value == 3.0
        before = tab._aug.copy()
        with pytest.raises(ValueError, match=message):
            tab.add_row(a, b)
        assert tab._aug.tobytes() == before.tobytes() and len(tab.basis) == 3
        assert reoptimize(tab).objective_value == 3.0


class TestReoptimizeFailures:
    """Breakdowns raise instead of returning a point."""

    def test_negative_basic_value_without_entering_column_raises(self):
        tab = Tableau(LinearProgram(objective=(1.0,), rows=((1.0,),), rhs=(1.0,)))
        assert reoptimize(tab).objective_value == 1.0
        # basic x = -1 in a row [1 | 1]: no negative entry can enter
        tab.rhs[0] = -1.0
        with pytest.raises(RuntimeError, match="no entering column"):
            reoptimize(tab)

    def test_primal_pivot_budget_raises(self, monkeypatch):
        lp = LinearProgram(objective=(3.0, 2.0), rows=((1.0, 1.0), (2.0, 1.0)), rhs=(4.0, 6.0))
        monkeypatch.setattr(linprog, "_MAX_PIVOTS", 1)
        with pytest.raises(RuntimeError, match="^simplex exceeded the pivot budget"):
            solve_lp(lp)

    def test_dual_pivot_budget_raises(self, monkeypatch):
        tab = Tableau(LinearProgram(objective=(1.0, 1.0), rows=((1.0, 0.0), (0.0, 1.0)), rhs=(1.0, 1.0)))
        assert reoptimize(tab).objective_value == 2.0
        tab.add_row(np.array([1.0, 1.0]), 1.0)
        monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
        with pytest.raises(RuntimeError, match="dual simplex exceeded the pivot budget"):
            reoptimize(tab)

    def test_wrong_length_row_rejected(self):
        # a one-entry row must not broadcast to x1 + x2 + x3 <= 1
        tab = Tableau(LinearProgram(objective=(1.0, 1.0, 1.0), rows=np.eye(3), rhs=(1.0, 1.0, 1.0)))
        assert reoptimize(tab).objective_value == 3.0
        with pytest.raises(ValueError, match="^row has 1 coefficients, expected 3$"):
            tab.add_row(np.array([1.0]), 1.0)
        assert reoptimize(tab).objective_value == 3.0

    def test_wrong_length_rhs_rejected(self):
        tab = Tableau(LinearProgram(objective=(1.0, 1.0, 1.0), rows=np.eye(3), rhs=(1.0, 1.0, 1.0)))
        with pytest.raises(ValueError, match="^rhs has 2 entries, expected 3$"):
            tab.set_rhs([1.0, 2.0])

    def test_negative_new_bound_rejected(self):
        tab = Tableau(LinearProgram(objective=(1.0,), rows=((1.0,),), rhs=(1.0,)))
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            tab.add_row(np.array([1.0]), -0.5)
        with pytest.raises(ValueError, match="not finite and nonnegative"):
            tab.set_rhs([-1.0])


def leaving_by_loop(tab: Tableau, col: int) -> int:
    """Row-by-row ratio test: a strictly smaller ratio wins, a tie within
    1e-12 goes to the lower basic index."""
    best, best_ratio = -1, np.inf
    for r in range(tab.T.shape[0]):
        a = tab.T[r, col]
        if a > linprog.PIVOT_TOL:
            ratio = tab.rhs[r] / a
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12 and (best == -1 or tab.basis[r] < tab.basis[best])
            ):
                best, best_ratio = r, ratio
    return best


def entering_by_loop(tab: Tableau) -> int:
    """Dantzig's rule column by column: the first index of the most negative
    reduced cost below -RC_TOL, or -1."""
    best = -1
    for j, c in enumerate(tab.cost):
        if c < -linprog.RC_TOL and (best == -1 or c < tab.cost[best]):
            best = j
    return best


class TestPivotRules:
    """The vectorized ratio test and both entering rules against loops, on
    small-integer tableaux, where exact ratio and cost ties are common."""

    def test_against_loops(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            r, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            tab = Tableau(
                LinearProgram(
                    objective=rng.integers(-3, 4, n).astype(float),
                    rows=rng.integers(-3, 4, (r, n)).astype(float),
                    rhs=rng.integers(0, 4, r).astype(float),
                )
            )
            rng.shuffle(tab.basis)  # the tie-break reads the basic indices' order
            for col in range(n + r):
                assert tab._leaving(tab.T[:, col]) == leaving_by_loop(tab, col)
            for cost in (tab.cost.copy(), rng.integers(-3, 4, n + r)):
                tab.cost[:] = cost  # the slack columns' costs too
                tab.bland = False
                assert tab._entering() == entering_by_loop(tab)
            tab.bland = True
            first = next((j for j, c in enumerate(tab.cost) if c < -linprog.RC_TOL), -1)
            assert tab._entering() == first
