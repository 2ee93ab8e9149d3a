"""The lossless rounding scheme: golden distributions, stage invariants,
feasibility rejection, and sampling consistency."""

import dataclasses
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import demandmatch as dm
from demandmatch.builtin import EXAMPLES
from demandmatch.demand import trial_rng
from demandmatch.experiments import random_feasible_column
from demandmatch.relaxations import CUT_TOL
from demandmatch.rounding import (
    COLUMN_SLACK,
    InfeasibleColumnError,
    RoundingState,
    _unique_idle,
    typeround,
    verify_marginals,
)
from demandmatch.policies import plan_indep_adv_policy
from reference import FractionRounding, fraction_branches, ladder_truncated_instance, round_in_order


def perm(*one_based):
    """Golden tuples read like the worked examples: 1-based, 0 for idle."""
    return tuple(None if r == 0 else r - 1 for r in one_based)


DEMO3 = EXAMPLES["demo3"]
DEMO5 = EXAMPLES["demo5"]


class TestGoldenDistributions:
    def test_worked_example_support(self):
        rd = typeround(DEMO3.column, DEMO3.dist)
        got = {r.assignment: p for r, p in rd.branches()}
        assert got == {
            perm(1, 2, 3): Fraction(5, 12),
            perm(2, 1, 3): Fraction(5, 12),
            perm(1, 3, 2): Fraction(1, 12),
            perm(3, 1, 2): Fraction(1, 12),
        }

    def test_worked_example_marginals_exact(self):
        rd = typeround(DEMO3.column, DEMO3.dist)
        report = verify_marginals(rd, DEMO3.column, DEMO3.dist)
        assert report.achieved == (Fraction(3, 4), Fraction(2, 3), Fraction(1, 3))
        assert report.max_abs_error == 0
        assert report.exact

    @pytest.mark.parametrize("extra", [1, -1])
    def test_column_of_the_wrong_length_is_rejected(self, extra):
        rd = typeround(DEMO3.column, DEMO3.dist)
        column = DEMO3.column + (Fraction(1),) if extra > 0 else DEMO3.column[:-1]
        with pytest.raises(ValueError, match=f"column has {3 + extra} entries for 3 resources"):
            verify_marginals(rd, column, DEMO3.dist)

    def test_rational_error_below_float_resolution_is_not_exact(self):
        rd = typeround(DEMO3.column, DEMO3.dist)
        target = (DEMO3.column[0] + Fraction(1, 10**400),) + tuple(DEMO3.column[1:])
        report = verify_marginals(rd, target, DEMO3.dist)
        assert report.max_abs_error == 0.0
        assert not report.exact

    def test_tight_column_unique_point_mass(self):
        tight = EXAMPLES["demo3-tight"]
        for order in [(0, 1, 2), (2, 1, 0), (1, 0, 2), (0, 2, 1)]:
            rd = round_in_order(tight.column, tight.dist, order)
            assert [(r.assignment, p) for r, p in rd.branches()] == [
                (perm(1, 2, 3), Fraction(1))
            ]

    def test_zero_column_all_idle(self):
        rd = typeround((Fraction(0), Fraction(0), Fraction(0)), DEMO3.dist)
        assert [(r.assignment, p) for r, p in rd.branches()] == [
            (perm(0, 0, 0), Fraction(1))
        ]


def demo5_stage_three():
    state = RoundingState(DEMO5.dist, 5, track_branches=True)
    for x in DEMO5.column[:3]:
        state.advance(x)
    return state


def nudge(numerators, den, index, amount):
    """Add ``amount`` to entry ``index`` of the ``numerators`` over ``den`` and
    return the new denominator: every numerator and the denominator scale by
    the amount's denominator (1 for a float), then the entry gains the
    amount's numerator times the old denominator."""
    exact = not isinstance(amount, float)
    num, scale = (amount.numerator, amount.denominator) if exact else (amount, 1)
    before = Fraction(numerators[index], den) if exact else None
    numerators[:] = [v * scale for v in numerators]
    numerators[index] += num * den
    assert not exact or Fraction(numerators[index], den * scale) == before + amount
    return den * scale


def nudge_first_branch(state, amount):
    """Add the rational ``amount`` to the first tracked branch's probability."""
    weights = [w for _, w in state.branches]
    state.branch_den = nudge(weights, state.branch_den, 0, amount)
    state.branches = [(a, w) for (a, _), w in zip(state.branches, weights)]


def nudge_idle_prob(state, index, amount):
    """Add ``amount`` to the idle probability of rank ``index + 1``; the kept
    segment survivals, over ``idle_den`` too, scale with it and keep their values."""
    den = state.idle_den
    state.idle_den = nudge(state.idle_num, den, index, amount)
    state.segment_survivals = [s * (state.idle_den // den) for s in state.segment_survivals]


def nudge_rank_survival(state, index, amount):
    """Add ``amount`` to the survival of rank ``index + 1``; the kept segment
    survivals, over ``surv_den`` too, scale with it and keep their values."""
    den = state.surv_den
    state.surv_den = nudge(state.surv_num, den, index, amount)
    state.segment_survivals = [s * (state.surv_den // den) for s in state.segment_survivals]


@pytest.mark.parametrize("example", ["demo3", "demo5"])
class TestVerifyMarginalsIsIndependent:
    """``verify_marginals`` replays the coins over the law: it reads neither
    the rank table nor the kept segment survivals, and a coin off by less
    than any float can tell is caught."""

    def test_garbage_rank_table_leaves_the_report(self, example):
        ex = EXAMPLES[example]
        rd = typeround(ex.column, ex.dist)
        report = verify_marginals(rd, ex.column, ex.dist)
        garbled = dataclasses.replace(rd, rank_probs=tuple((Fraction(7, 3),) * rd.length for _ in rd.rank_probs))
        assert garbled.marginals() != report.achieved
        assert verify_marginals(garbled, ex.column, ex.dist) == report
        assert report.exact

    def test_perturbed_segment_survivals_leave_the_report(self, example):
        ex = EXAMPLES[example]
        state = RoundingState(ex.dist, len(ex.column), track_branches=False)
        for x in ex.column:
            state.advance(x)
        report = verify_marginals(state.distribution(), ex.column, ex.dist)
        state.segment_survivals = [s + Fraction(1, 3) for s in state.segment_survivals]
        assert verify_marginals(state.distribution(), ex.column, ex.dist) == report
        assert report.exact

    def test_coin_nudged_below_float_resolution_is_not_exact(self, example):
        ex = EXAMPLES[example]
        rd = typeround(ex.column, ex.dist)
        assert rd.decisions
        for k, dec in enumerate(rd.decisions):
            decisions = rd.decisions[:k] + (dataclasses.replace(dec, lam=dec.lam + Fraction(1, 10**400)),)
            nudged = dataclasses.replace(rd, decisions=decisions + rd.decisions[k + 1 :], _cache={})
            report = verify_marginals(nudged, ex.column, ex.dist)
            assert report.achieved[dec.resource] != ex.column[dec.resource]
            assert not report.exact


class TestStageState:
    def three_stage_state(self):
        return demo5_stage_three()

    def test_five_rank_stage_three_branches(self):
        state = self.three_stage_state()
        got = {tuple(a): Fraction(w, state.branch_den) for a, w in state.branches}
        assert got == {
            perm(3, 2, 0, 1, 0): Fraction(2, 5),
            perm(3, 0, 2, 1, 0): Fraction(2, 5),
            perm(0, 3, 2, 1, 0): Fraction(1, 10),
            perm(0, 2, 3, 1, 0): Fraction(1, 10),
        }

    def test_five_rank_stage_three_has_two_segments(self):
        state = self.three_stage_state()
        assert state.segments == [(1, 3), (4, 5)]

    def test_five_rank_stage_three_marginal_of_third_resource(self):
        state = self.three_stage_state()
        achieved = Fraction(0)
        for assignment, w in state.branches:
            for rank, res in enumerate(assignment, start=1):
                if res == 2:
                    achieved += Fraction(w, state.branch_den) * Fraction(state.surv_num[rank - 1], state.surv_den)
        assert achieved == Fraction(7, 8)

    def test_invariants_hold_at_stage_three(self):
        assert self.three_stage_state().check_invariants() == []

    @pytest.mark.parametrize(
        "segments",
        [[(1, 2), (4, 5)], [(1, 3), (3, 5)], [(1, 3), (4, 4)]],
        ids=["gap", "overlap", "short"],
    )
    def test_segments_that_do_not_tile_are_the_one_problem(self, segments):
        # every other check maps ranks to segments, so a bad tiling stops there
        state = self.three_stage_state()
        state.segments = segments
        assert state.check_invariants() == [f"segments {segments} do not tile ranks 1..5"]

    def test_zero_marginal_stage_is_a_no_op(self):
        state = self.three_stage_state()
        state.advance(DEMO5.column[3])
        before = ([list(a) for a, _ in state.branches], list(state.segments))
        state.advance(Fraction(0))
        after = ([list(a) for a, _ in state.branches], list(state.segments))
        assert before == after

    def test_boundary_marginal_routes_deterministically(self):
        # marginal equal to the residual arrival mass: the coin degenerates
        dist = dm.DemandDistribution.from_pmf({1: Fraction(1, 2), 2: Fraction(1, 2)})
        state = RoundingState(dist, 2, track_branches=True)
        state.advance(Fraction(1))  # equals Pr[D >= 1]: always take rank 1
        assert [(tuple(a), Fraction(w, state.branch_den)) for a, w in state.branches] == [
            (perm(1, 0), Fraction(1))
        ]

    def test_functional_and_compact_paths_agree(self):
        state = RoundingState(DEMO3.dist, 3, track_branches=True)
        for x in DEMO3.column:
            state.advance(x)
        rd = typeround(DEMO3.column, DEMO3.dist)
        # the explicit state keeps appended never-arriving ranks; project
        got = {tuple(a[: state.real_length]): Fraction(w, state.branch_den) for a, w in state.branches}
        assert got == {r.assignment: p for r, p in rd.branches()}


class TestBrokenStates:
    """Each invariant broken on purpose on the stage-3 state of DEMO5.  Its
    branches, as 0-based resources per rank, are [2,1,-,0,-] 2/5,
    [-,1,2,0,-] 1/10, [2,-,1,0,-] 2/5 and [-,2,1,0,-] 1/10; its segments
    are (1,3) and (4,5)."""

    def test_clean(self):
        assert demo5_stage_three().check_invariants() == []

    def test_branch_weight_nudged(self):
        state = demo5_stage_three()
        nudge_first_branch(state, Fraction(1, 1000))
        problems = state.check_invariants()
        assert problems[0] == "branch probabilities sum to 1.001"

    def test_routed_rank_set_idle(self):
        state = demo5_stage_three()
        state.branches[0][0][3] = None  # resource 0 leaves rank 4
        assert state.check_invariants() == [
            "resource 0 achieves 0.075, wants 0.125",
            "segment 1 span (4, 5) has 2 idle ranks in a branch",
            "segment 1 survival 0.0625 != branch-side value 0.0875",
            "resource 0 appears 0 times in a branch",
        ]

    def test_resource_moved_into_another_segment(self):
        state = demo5_stage_three()
        assignment = state.branches[0][0]
        assignment[0], assignment[4] = None, 2  # resource 2: rank 1 -> rank 5
        problems = state.check_invariants()
        assert "segment 0 span (1, 3) has 2 idle ranks in a branch" in problems
        assert "segment 1 span (4, 5) has 0 idle ranks in a branch" in problems
        assert problems[-1] == "resource 2 spreads across segments [0, 1]"

    def test_idle_prob_perturbed(self):
        state = demo5_stage_three()
        nudge_idle_prob(state, 0, Fraction(1, 7))
        assert state.check_invariants() == [
            "segment 0 idle mass sums to 1.1428571428571428",
            "segment 0 survival 0.6428571428571429 != branch-side value 0.5",
        ]

    def test_rank_survival_halved(self):
        # both sides of the residual-survival check read the halved value;
        # the marginals of the resources routed to rank 2 fall short
        state = demo5_stage_three()
        nudge_rank_survival(state, 1, -Fraction(state.surv_num[1], 2 * state.surv_den))
        assert state.check_invariants() == [
            "resource 1 achieves 0.25, wants 0.375",
            "resource 2 achieves 0.85, wants 0.875",
        ]

    def test_branch_weight_nudged_below_float_resolution(self):
        state = demo5_stage_three()
        nudge_first_branch(state, Fraction(1, 10**400))
        assert state.check_invariants() == [
            "branch probabilities sum to 1.0",
            "resource 0 achieves 0.125, wants 0.125",
            "resource 1 achieves 0.375, wants 0.375",
            "resource 2 achieves 0.875, wants 0.875",
            "segment 0 survival 0.5 != branch-side value 0.5",
            "segment 1 survival 0.0625 != branch-side value 0.0625",
        ]

    def test_idle_prob_nudged_below_float_resolution(self):
        state = demo5_stage_three()
        nudge_idle_prob(state, 0, Fraction(1, 10**400))
        assert state.check_invariants() == [
            "segment 0 idle mass sums to 1.0",
            "segment 0 survival 0.5 != branch-side value 0.5",
        ]

    def test_rank_survival_nudged_below_float_resolution(self):
        # rank 2 holds resource 1 or 2 on every branch; as with the halved
        # survival, both sides of the residual-survival check read the nudge
        state = demo5_stage_three()
        nudge_rank_survival(state, 1, Fraction(1, 10**400))
        assert state.check_invariants() == [
            "resource 1 achieves 0.375, wants 0.375",
            "resource 2 achieves 0.875, wants 0.875",
        ]

    def test_target_nudged_below_float_resolution(self):
        state = demo5_stage_three()
        state.targets[1] += Fraction(1, 10**400)
        assert state.check_invariants() == ["resource 1 achieves 0.375, wants 0.375"]

    def test_target_changed(self):
        state = demo5_stage_three()
        state.targets[1] += Fraction(1, 100)
        assert state.check_invariants() == ["resource 1 achieves 0.375, wants 0.385"]

    def test_unprocessed_resource_with_mass(self):
        state = demo5_stage_three()
        del state.targets[2]
        assert state.check_invariants() == ["unprocessed resource 2 already has mass 7/8"]


class TestFloatInvariants:
    #: the float column of ``tests/test_pinned.py``; its rounding spawns
    #: zero-probability ranks twice
    FLOAT_COLUMN = (0.55, 0.1, 0.3, 0.2, 0.05)
    FLOAT_DIST = dm.DemandDistribution.from_pmf({1: 0.4, 2: 0.3, 4: 0.3})

    def float_state(self, column, dist):
        state = RoundingState(dist, len(column), track_branches=True)
        assert not state.exact
        stages = []
        for x in column:
            state.advance(x)
            stages.append(state.check_invariants())
        return state, stages

    def test_demo3_float(self):
        column = tuple(float(x) for x in DEMO3.column)
        _, stages = self.float_state(column, DEMO3.dist.to_float())
        assert stages == [[], [], []]

    def test_column_spawning_twice(self):
        state, stages = self.float_state(self.FLOAT_COLUMN, self.FLOAT_DIST)
        assert state.universe == state.real_length + 2
        assert stages == [[]] * len(self.FLOAT_COLUMN)

    @pytest.mark.parametrize(
        "column, pmf",
        [
            ((5e-10,), {0: 1 - 5e-10, 1: 5e-10}),
            ((1e-16,), {0: 1.0}),  # one segment, of survival 0: the coin at h = g
            ((0.5, 1e-10), {0: 0.5, 1: 0.5}),  # the walk passes a spawned last segment of survival 0
        ],
        ids=["below-slack", "point-mass-0", "after-spawn"],
    )
    def test_every_positive_marginal_is_routed(self, column, pmf):
        dist = dm.DemandDistribution.from_pmf(pmf)
        state, stages = self.float_state(column, dist)
        assert stages == [[]] * len(column)
        assert [d.resource for d in state.decisions] == list(range(len(column)))
        assert all(0.0 <= d.lam <= 1.0 for d in state.decisions)
        assert verify_marginals(state.distribution(), column, dist).max_abs_error <= COLUMN_SLACK

    def test_perturbed_idle_prob_is_flagged(self):
        state, _ = self.float_state(self.FLOAT_COLUMN, self.FLOAT_DIST)
        nudge_idle_prob(state, 0, 1e-6)
        problems = state.check_invariants()
        assert problems and problems[0].startswith("segment 0 idle mass sums to 1.000001")

    def test_perturbed_branch_weight_is_flagged(self):
        # FLOAT_TOL is 1e-12: a branch weight off by 1e-10 of itself is past it,
        # and still within the COLUMN_SLACK of every other check
        column = tuple(float(x) for x in DEMO3.column)
        state, _ = self.float_state(column, DEMO3.dist.to_float())
        assignment, weight = state.branches[0]
        state.branches[0] = (assignment, weight * (1 + 1e-10))
        problems = state.check_invariants()
        assert len(problems) == 1 and problems[0].startswith("branch probabilities sum to")

    def test_perturbation_within_tolerance_passes(self):
        state, _ = self.float_state(self.FLOAT_COLUMN, self.FLOAT_DIST)
        nudge_idle_prob(state, 0, 1e-12)
        assert state.check_invariants() == []


class TestStageScope:
    """A check that follows exactly one ``advance`` at a middle stage reads
    only what that stage changed.  DEMO5 is rounded in the order 0, 1, 2, 4,
    3: stage 3 routes resource 2 and merges segment 0 into ranks 1..3, as in
    ``TestBrokenStates``; stage 4 is resource 4's zero marginal, which changes
    nothing; stage 5, the last, routes resource 3."""

    ORDER = (0, 1, 2, 4, 3)

    def checked_through(self, stages):
        """The state after ``stages`` stages, each checked clean."""
        state = RoundingState(DEMO5.dist, 5, order=self.ORDER, track_branches=True)
        for _ in range(stages):
            state.advance(DEMO5.column[state.order[state.stage]])
            assert state.check_invariants() == []
        return state

    def stage_three(self):
        """Stage 3 advanced after a clean check at stage 2: the next check is
        in the stage scope, segment 0 over ranks 1..3 and resource 2."""
        state = self.checked_through(2)
        state.advance(DEMO5.column[2])
        return state

    @staticmethod
    def swap(assignment, a, b):
        """Swap the entries of 1-based ranks ``a`` and ``b``."""
        assignment[a - 1], assignment[b - 1] = assignment[b - 1], assignment[a - 1]

    @staticmethod
    def drop_resource_two(state):
        state.branches[0][0][0] = None  # resource 2 leaves rank 1: ranks 1 and 3 idle

    @staticmethod
    def move_resource_two(state):
        TestStageScope.swap(state.branches[0][0], 1, 3)  # to idle rank 3, of survival 1/4

    @staticmethod
    def shift_idle_mass(state):
        # idle mass moves from rank 3 to rank 1: the segment's sum stays 1
        nudge_idle_prob(state, 0, Fraction(1, 10))
        nudge_idle_prob(state, 2, -Fraction(1, 10))

    @pytest.mark.parametrize(
        "plant, expected",
        [
            (
                drop_resource_two,
                [
                    "resource 2 achieves 0.475, wants 0.875",
                    "segment 0 span (1, 3) has 2 idle ranks in a branch",
                    "segment 0 survival 0.5 != branch-side value 0.8",
                    "resource 2 appears 0 times in a branch",
                ],
            ),
            (
                move_resource_two,
                ["resource 2 achieves 0.575, wants 0.875", "segment 0 survival 0.5 != branch-side value 0.8"],
            ),
            (shift_idle_mass, ["segment 0 survival 0.575 != branch-side value 0.5"]),
            (
                lambda state: nudge_idle_prob(state, 0, Fraction(1, 7)),
                [
                    "segment 0 idle mass sums to 1.1428571428571428",
                    "segment 0 survival 0.6428571428571429 != branch-side value 0.5",
                ],
            ),
            (
                lambda state: nudge_first_branch(state, Fraction(1, 1000)),
                [
                    "branch probabilities sum to 1.001",
                    "resource 2 achieves 0.876, wants 0.875",
                    "segment 0 survival 0.5 != branch-side value 0.50025",
                ],
            ),
        ],
        ids=["idle-count", "routed-mass", "segment-survival", "idle-mass", "branch-weight"],
    )
    def test_break_in_the_merged_segment_is_reported_as_the_full_check_does(self, plant, expected):
        state = self.stage_three()
        plant(state)
        stage, full = state.check_invariants(), state.check_invariants()  # the second reads every rank
        assert stage == expected
        assert [p for p in full if p in stage] == stage

    def test_merged_segment_off_its_span_is_the_one_problem(self):
        state = self.stage_three()
        state.segments = [(1, 2), (3, 5)]  # tiles ranks 1..5, but not the span that stage 3 merged
        assert state.check_invariants() == ["segments [(1, 2), (3, 5)] do not tile ranks 1..3"]

    def test_break_outside_the_scope_is_reported_at_the_last_stage(self):
        state = self.checked_through(3)
        self.swap(state.branches[0][0], 4, 5)  # resource 0 to rank 5, outside the next two scopes
        state.advance(DEMO5.column[4])
        assert state.check_invariants() == []
        state.advance(DEMO5.column[3])
        assert state.check_invariants() == [
            "resource 0 achieves 0.1, wants 0.125",
            "resource 3 achieves 0.2642857142857143, wants 0.25",
            "segment 0 survival 0.3125 != branch-side value 0.32321428571428573",
        ]

    def test_the_first_stage_reads_every_rank_after_a_check_before_it(self):
        state = RoundingState(DEMO5.dist, 5, order=self.ORDER, track_branches=True)
        assert state.check_invariants() == []
        state.advance(DEMO5.column[0])  # merges ranks 4..5 for resource 0
        state.branches[0][0][0] = 3  # unprocessed resource 3 on rank 1
        assert state.check_invariants() == [
            "unprocessed resource 3 already has mass 1",
            "segment 0 span (1, 1) has 0 idle ranks in a branch",
            "segment 0 survival 1.0 != branch-side value 0.5",
            "segment 1 survival 0.5 != branch-side value 0.25",
            "segment 2 survival 0.25 != branch-side value 0.0625",
        ]

    def test_a_second_check_of_a_stage_reads_every_rank(self):
        state = self.stage_three()
        self.swap(state.branches[0][0], 4, 5)
        assert state.check_invariants() == []
        assert state.check_invariants() == [
            "resource 0 achieves 0.1, wants 0.125",
            "segment 1 survival 0.0625 != branch-side value 0.0875",
        ]


def hexes(values):
    return [v.hex() for v in values]


class TestAgainstFractionBookkeeping:
    """The integer numerators of ``RoundingState`` against the values that
    ``reference.FractionRounding`` keeps, after every stage: equal as
    `Fraction`s over an exact law, bit for bit over a float law."""

    @staticmethod
    def stages(column, dist, order):
        state = RoundingState(dist, len(column), order=order, track_branches=False)
        ref = FractionRounding(dist, len(column))
        for i in order:
            state.advance(column[i])
            ref.advance(i, column[i])
            yield state, ref

    @staticmethod
    def exact_columns():
        """demo3, demo5 and 200 random rational columns, each in a random order."""
        yield DEMO3.column, DEMO3.dist, (0, 1, 2)
        yield DEMO5.column, DEMO5.dist, tuple(range(5))
        for trial in range(200):
            rng = trial_rng(2525, trial)
            n = int(rng.integers(1, 9))
            column, dist = random_feasible_column(rng, n)
            yield column, dist, tuple(int(i) for i in rng.permutation(n))

    @staticmethod
    def float_columns():
        """The pinned float column, and every type's column of the truncated
        LP at the trunc-plan ladder's n = 10, 15 and 20, over the float law."""
        yield TestFloatInvariants.FLOAT_COLUMN, TestFloatInvariants.FLOAT_DIST
        for n in (10, 15, 20):
            inst = ladder_truncated_instance(np.random.default_rng((2526, n)), n)
            plan = plan_indep_adv_policy(inst)
            for j, dist in enumerate(inst.demand.per_type):
                yield [plan.x[i][j] for i in range(n)], dist.to_float()

    def test_exact_state_equals_the_fraction_values(self):
        # the idle denominator is the product of the coins' denominators, never
        # reduced; on these columns it stays within 64 bits
        widest = 0
        for column, dist, order in self.exact_columns():
            for state, ref in self.stages(column, dist, order):
                den = state.idle_den * state.surv_den
                assert [Fraction(v, state.idle_den) for v in state.idle_num] == ref.idle_prob
                assert [Fraction(s, state.surv_den) for s in state.surv_num] == ref.rank_survival
                assert [Fraction(s, den) for s in state.segment_survivals] == ref.segment_survivals
                assert state.rank_probs == ref.rank_probs
                assert all(type(q) is Fraction for row in state.rank_probs for q in row)
                assert [(d.resource, d.segment, d.lam) for d in state.decisions] == ref.coins
                assert state.segments == ref.segments
                assert state.idle_den == math.prod(d.lam.denominator for d in state.decisions)
                widest = max(widest, state.idle_den.bit_length())
        assert 32 < widest <= 64

    def test_float_state_is_bit_for_bit_the_float_values(self):
        stages = 0
        for column, dist in self.float_columns():
            for state, ref in self.stages(column, dist, range(len(column))):
                assert state.idle_den == state.surv_den == 1
                assert hexes(state.idle_num) == hexes(ref.idle_prob)
                assert hexes(state.surv_num) == hexes(ref.rank_survival)
                assert hexes(state.segment_survivals) == hexes(ref.segment_survivals)
                assert [hexes(row) for row in state.rank_probs] == [hexes(row) for row in ref.rank_probs]
                coins = [(r, seg, lam.hex()) for r, seg, lam in ref.coins]
                assert [(d.resource, d.segment, d.lam.hex()) for d in state.decisions] == coins
                stages += len(ref.coins) > 0
        assert stages > 100


class TestRankTable:
    """``rank_probs[i][ℓ-1]`` is the mass of the support that routes rank ℓ
    to resource ``i``."""

    @staticmethod
    def routed_mass(rd):
        zero = Fraction(0) if rd.exact else 0.0
        mass = [[zero] * rd.length for _ in range(rd.num_resources)]
        for routing, prob in rd.branches():
            for rank, res in enumerate(routing.assignment, start=1):
                if res is not None:
                    mass[res][rank - 1] += prob
        return mass

    @staticmethod
    def rational_columns():
        """50 random rational columns, each rounded in a random order."""
        for trial in range(50):
            rng = trial_rng(6060, trial)
            n = int(rng.integers(1, 9))
            column, dist = random_feasible_column(rng, n)
            yield round_in_order(column, dist, tuple(int(i) for i in rng.permutation(n)))

    def test_rational_columns(self):
        for rd in self.rational_columns():
            assert [list(row) for row in rd.rank_probs] == self.routed_mass(rd)

    def test_branches_match_the_fraction_expansion(self):
        # the integer replay builds one Fraction per merged routing; the
        # expansion in Fraction weights gives the same pairs in the same order
        worked = [typeround(ex.column, ex.dist) for ex in (DEMO3, DEMO5)]
        for rd in [*self.rational_columns(), *worked]:
            got = rd.branches()
            assert got == fraction_branches(rd)
            assert all(type(p) is Fraction for _, p in got)

    def test_float_branches_match_the_float_expansion(self):
        rd = typeround(TestFloatInvariants.FLOAT_COLUMN, TestFloatInvariants.FLOAT_DIST)
        want = [(r, p.hex()) for r, p in fraction_branches(rd)]
        assert [(r, p.hex()) for r, p in rd.branches()] == want

    def test_pinned_float_column(self):
        rd = typeround(TestFloatInvariants.FLOAT_COLUMN, TestFloatInvariants.FLOAT_DIST)
        for row, mass in zip(rd.rank_probs, self.routed_mass(rd)):
            assert row == pytest.approx(mass, rel=0, abs=1e-15)

    def test_float_column_over_exact_law_rounds_over_its_float_copy(self):
        cases = [(DEMO3.column, DEMO3.dist), (DEMO5.column, DEMO5.dist)]
        for trial in range(20):
            rng = trial_rng(6161, trial)
            cases.append(random_feasible_column(rng, int(rng.integers(1, 9))))
        for column, dist in cases:
            floats = tuple(float(x) for x in column)
            rd, floated = typeround(floats, dist), typeround(floats, dist.to_float())
            assert not rd.exact
            assert rd == floated
            assert rd.branches() == floated.branches()


class TestFeasibilityRejection:
    def test_rejects_overfull_prefix(self):
        # prefix sum 3/4 + 2/3 + 1/2 = 23/12 > 7/4: impossible to round
        with pytest.raises(InfeasibleColumnError):
            typeround((Fraction(3, 4), Fraction(2, 3), Fraction(1, 2)), DEMO3.dist)

    def test_rejects_single_marginal_above_arrival_mass(self):
        dist = dm.DemandDistribution.from_pmf({0: Fraction(1, 2), 1: Fraction(1, 2)})
        with pytest.raises(InfeasibleColumnError):
            typeround((Fraction(3, 4),), dist)

    def test_rejects_negative_marginal(self):
        with pytest.raises(InfeasibleColumnError):
            typeround((Fraction(-1, 4), Fraction(0), Fraction(0)), DEMO3.dist)

    def test_rejects_exact_overshoot_below_float_slack(self):
        # 1/10**10 above the tight column's last residual: a float slack would
        # round it into a coin above one and a negative branch weight
        tight = EXAMPLES["demo3-tight"]
        column = tight.column[:2] + (tight.column[2] + Fraction(1, 10**10),)
        with pytest.raises(InfeasibleColumnError):
            typeround(column, tight.dist)

    #: demo3's column with LP noise below ``COLUMN_SLACK`` on its first entry
    NOISY_COLUMN = (0.75 + 5e-10, 2 / 3, 1 / 3)

    def test_float_tolerance_forgives_solver_noise(self):
        dist = DEMO3.dist.to_float()
        rd = typeround(self.NOISY_COLUMN, dist)
        report = verify_marginals(rd, self.NOISY_COLUMN, dist)
        assert report.max_abs_error < 1e-9

    def test_float_tolerance_forgives_solver_noise_stage_by_stage(self):
        # the path of ``demandmatch round``
        state = RoundingState(DEMO3.dist.to_float(), 3, track_branches=True)
        for x in self.NOISY_COLUMN:
            state.advance(x)
            assert state.check_invariants() == []
        assert all(0.0 <= d.lam <= 1.0 for d in state.decisions)

    def test_float_slack_is_the_cutting_plane_tolerance(self):
        assert COLUMN_SLACK == CUT_TOL

    def test_no_rounding_options(self):
        assert list(inspect.signature(typeround).parameters) == ["x_col", "dist"]
        assert "tol" not in inspect.signature(RoundingState).parameters


def _advance_past_the_last():
    state = RoundingState(DEMO3.dist, 1)
    state.advance(Fraction(1, 2))
    state.advance(0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: RoundingState(DEMO3.dist, 0), ValueError, "need at least one resource"),
        (
            lambda: RoundingState(DEMO3.dist, 2, order=(0, 0)),
            ValueError,
            "order (0, 0) is not a permutation of the resources",
        ),
        (_advance_past_the_last, ValueError, "all resources already processed"),
        (
            lambda: RoundingState(DEMO3.dist, 1).advance(0.5),
            TypeError,
            "exact-mode rounding got a float marginal 0.5; pass Fractions or round over dist.to_float()",
        ),
        (
            lambda: RoundingState(DEMO3.dist, 1, track_branches=False).check_invariants(),
            ValueError,
            "invariant checking needs track_branches=True",
        ),
        (
            lambda: typeround([Fraction(1, 3)] * 30, dm.DemandDistribution.from_pmf({0: Fraction(1, 2), 30: Fraction(1, 2)})).branches(),
            ValueError,
            "support may reach 1048576 routings, above MAX_SUPPORT = 65536",
        ),
    ],
    ids=["no-resources", "not-a-permutation", "past-the-last", "float-in-exact", "untracked", "above-max-support"],
)
def test_rounding_state_guards(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


class TestRandomColumns:
    @pytest.mark.parametrize("trial", range(300))
    def test_invariants_every_stage_and_exact_marginals(self, trial):
        rng = trial_rng(8080, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        state = RoundingState(dist, n, track_branches=True)
        for idx in range(n):
            state.advance(column[idx])
            assert state.check_invariants() == []
        rd = typeround(column, dist)
        report = verify_marginals(rd, column, dist)
        assert report.max_abs_error == 0

    @pytest.mark.parametrize("trial", range(50))
    def test_all_processing_orders_hit_the_marginals(self, trial):
        rng = trial_rng(9090, trial)
        n = int(rng.integers(2, 5))
        column, dist = random_feasible_column(rng, n)
        order = tuple(int(i) for i in rng.permutation(n))
        rd = round_in_order(column, dist, order)
        assert verify_marginals(rd, column, dist).max_abs_error == 0

    @pytest.mark.parametrize("trial", range(50))
    def test_exact_coins_and_weights_stay_in_range(self, trial):
        # an exact column nudged up by less than any float slack either rounds
        # exactly, with every coin in (0, 1] and every branch weight positive,
        # or is rejected
        rng = trial_rng(7070, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        k = int(rng.integers(0, n))
        nudged = column[:k] + (column[k] + Fraction(1, 10**10),) + column[k + 1 :]
        for col in (column, nudged):
            try:
                rd = typeround(col, dist)
            except InfeasibleColumnError:
                assert col is nudged
                continue
            assert all(0 < d.lam <= 1 for d in rd.decisions)
            assert all(p > 0 for _, p in rd.branches())
            assert verify_marginals(rd, col, dist).exact

    @pytest.mark.parametrize("trial", range(40))
    def test_kept_segment_survivals_match_the_loop(self, trial):
        # each segment's survival is kept across stages; after every stage it
        # equals a fresh segment_survival sum, exactly over the rational law
        # and bit for bit over its float copy
        rng = trial_rng(6060, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        order = tuple(int(i) for i in rng.permutation(n))
        for law, col in ((dist, column), (dist.to_float(), [float(x) for x in column])):
            state = RoundingState(law, n, order=order, track_branches=False)
            for i in order:
                state.advance(col[i])
                fresh = [state.segment_survival(k) for k in range(len(state.segments))]
                if state.exact:
                    assert state.segment_survivals == fresh
                else:
                    assert [s.hex() for s in state.segment_survivals] == [s.hex() for s in fresh]

    @pytest.mark.parametrize("trial", range(50))
    def test_kept_segment_survivals_match_a_fraction_sum(self, trial):
        # the integer numerators over the common denominators equal the plain
        # Fraction sum of idle probability times survival over each span
        rng = trial_rng(5050, trial)
        n = int(rng.integers(1, 9))
        column, dist = random_feasible_column(rng, n)
        state = RoundingState(dist, n, track_branches=False)
        for x in column:
            state.advance(x)
            idle = [Fraction(v, state.idle_den) for v in state.idle_num]
            surv = [Fraction(s, state.surv_den) for s in state.surv_num]
            fresh = [
                sum((idle[k] * surv[k] for k in range(lo - 1, hi)), Fraction(0)) for lo, hi in state.segments
            ]
            assert [Fraction(s, state.idle_den * state.surv_den) for s in state.segment_survivals] == fresh

    def test_compact_marginals_match_branch_summation(self):
        for trial in range(50):
            rng = trial_rng(7070, trial)
            n = int(rng.integers(1, 7))
            column, dist = random_feasible_column(rng, n)
            rd = typeround(column, dist)
            assert rd.marginals() == verify_marginals(rd, column, dist).achieved


class TestSampling:
    def test_sampled_frequencies_match_marginals(self):
        column, dist = (Fraction(3, 4), Fraction(2, 3), Fraction(1, 3)), DEMO3.dist
        rd = typeround(column, dist)
        rng = np.random.default_rng(505)
        draws = 100_000
        routed = np.zeros(3)
        for _ in range(draws):
            routing = rd.sample(rng)
            demand = dist.sample(rng)
            for rank, res in enumerate(routing.assignment, start=1):
                if res is not None and demand >= rank:
                    routed[res] += 1
        for i, target in enumerate(column):
            p = float(target)
            se = np.sqrt(p * (1 - p) / draws)
            assert abs(routed[i] / draws - p) <= 4 * se + 1e-12

    def test_sampled_routings_lie_in_the_support(self):
        rd = typeround(DEMO3.column, DEMO3.dist)
        support = {r.assignment for r, _ in rd.branches()}
        rng = np.random.default_rng(42)
        for _ in range(200):
            assert rd.sample(rng).assignment in support

    def test_support_bound(self):
        rd = typeround(DEMO3.column, DEMO3.dist)
        assert len(rd.branches()) <= rd.support_bound() <= 2**3

    def test_support_bound_counts_an_exact_coin_just_below_one(self):
        # the coin is 1 - 1e-20, which a float reads as 1.0
        column = (Fraction(10**20 - 1, 10**20),)
        rd = typeround(column, dm.DemandDistribution.from_pmf({1: Fraction(1)}))
        assert len(rd.branches()) == 2
        assert rd.support_bound() == 2

    @pytest.mark.parametrize(
        "x, routed",
        [(Fraction(10**20 - 1, 10**20), (0,)), (Fraction(1, 10**400), (None,))],
        ids=["coin-reads-one", "coin-reads-zero"],
    )
    def test_a_coin_that_reads_one_or_zero_draws_nothing(self, x, routed):
        # one rank: the coin splits it from a spawned zero-probability rank
        rd = typeround((x,), dm.DemandDistribution.from_pmf({1: Fraction(1)}))
        assert rd.support_bound() == 2
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        assert rd.sample(rng).assignment == routed
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "assignment, idle", [([0, None, None], 2), ([0, 1, 2], 0)], ids=["assignment0", "assignment1"]
    )
    def test_replay_rejects_span_without_one_idle_rank(self, assignment, idle):
        message = f"span (1, 3) holds {idle} idle ranks; the decisions do not replay"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _unique_idle(assignment, (1, 3))

    @pytest.mark.parametrize("span, rank", [((1, 1), 1), ((1, 3), 1), ((2, 4), 4), ((4, 4), 4)])
    def test_replay_finds_the_one_idle_rank_of_a_span(self, span, rank):
        assert _unique_idle([None, 0, 1, None], span) == rank


class TestRoutingType:
    def test_rejects_duplicate_resource(self):
        with pytest.raises(ValueError, match="twice"):
            dm.Routing(assignment=(0, 0, None))

    def test_rank_lookups(self):
        routing = dm.Routing(assignment=perm(2, 0, 1))
        assert routing.resource_at(1) == 1
        assert routing.resource_at(2) is None
