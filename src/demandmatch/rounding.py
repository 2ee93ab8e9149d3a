"""Lossless rounding of a feasible single-type LP column into routings.

Setting: one query type with random demand ``D`` (``p̄[ℓ] = Pr[D >= ℓ]``) and
unit-capacity resources.  Given a column ``x`` that is feasible for the
subset-tightened relaxation (sorted prefix sums bounded by ``E[min(D, s)]``),
the scheme builds a distribution over *routings* -- partial permutations
sending arrival ranks to resources -- such that resource ``i`` is routed a
query with probability exactly ``x[i]``:

    sum over routings pi of  P(pi) * sum_ℓ p̄[ℓ] * 1{pi(ℓ) = i}  =  x[i].

Resources are processed one at a time.  The state keeps a partition of the
ranks into contiguous *segments*; within each segment every branch of the
randomization has exactly one still-idle rank, and those idle events are
mutually exclusive across ranks, so a segment behaves like a single combined
arrival whose survival probability is the idle-weighted sum of its ranks'
survivals.  Each stage picks the latest segment whose combined arrival is
frequent enough, splits a Bernoulli coin between that segment and the next,
routes the branch's idle rank there, and merges the two segments.

When the chosen segment is already the last one, a fresh rank that arrives
with probability zero is appended first and plays the role of "the next
segment": the branch that routes there parks the resource on a query that
never arrives.  This keeps the one-idle-per-segment structure exact on every
branch, which both the stage invariants and the final marginals rely on.

A zero marginal routes nothing.  Every other stage records one decision, its
coin, and writes the stage's routing probabilities into the resource's row of
the rank table ``rank_probs[i][ℓ-1] = Pr[rank ℓ is routed to i]``; the coins
and that table are the whole rounded distribution.  Its marginals are the
table times the rank survivals, and the threshold policy's exact oracle reads
the table directly.

One replay of the recorded stage decisions, ``_apply_decision``, spawns the
zero-probability rank, splits each branch on the stage coin and merges the two
segments.  The branch set tracked while rounding, the support expansion
(``RoutingDistribution.branches``) and the marginal check go through it, and
so does the draw of a single routing (``RoutingDistribution.sample``), which
replays each coin as decided, so each coin yields one child.  The stage
invariants are checked on the tracked branch set, after a stage only where it changed.

Arithmetic is exact when the law and the column are rational: the rounded
distribution is in `fractions.Fraction`, so the worked examples reproduce
exactly.  Inside, the compact state and the replays are integer numerators
over common denominators, a coin ``a / b`` scaling a branch weight or an idle
probability by ``a`` or ``b - a`` and every other idle probability by ``b``, so
no gcd is taken per stage and no slack is forgiven.  A float column rounds over
the law's float copy, every denominator 1, and may overshoot by ``COLUMN_SLACK``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .demand import DemandDistribution, Prob, is_exact_number

FLOAT_TOL = 1e-12
#: how far a float column may overshoot the residual demand: the cutting-plane
#: loop stops once no subset cut is violated by more than ``relaxations.CUT_TOL``
COLUMN_SLACK = 1e-9
#: ``RoutingDistribution.branches`` refuses supports that may exceed this
MAX_SUPPORT = 1 << 16


class InfeasibleColumnError(ValueError):
    """The column cannot be rounded: its marginal demand ran out mid-scheme."""


@dataclass(frozen=True)
class Routing:
    """A partial permutation: arrival rank ℓ -> resource, or None for idle.

    ``assignment[ℓ-1]`` is the resource (0-based) routed the ℓ-th arrival.
    No resource may appear at two ranks.
    """

    assignment: tuple[Optional[int], ...]

    def __post_init__(self) -> None:
        used = [r for r in self.assignment if r is not None]
        if len(used) != len(set(used)):
            raise ValueError(f"routing assigns some resource twice: {self.assignment}")

    def resource_at(self, rank: int) -> Optional[int]:
        """Resource receiving the arrival of 1-based rank ``rank``."""
        if 1 <= rank <= len(self.assignment):
            return self.assignment[rank - 1]
        return None


@dataclass(frozen=True)
class StageDecision:
    """The coin of one routed resource, sufficient to replay the branch; on
    the last segment the replay first spawns a zero-probability rank."""

    resource: int
    segment: int  # chosen segment index at decision time
    lam: Prob  # probability of routing into the chosen segment


@dataclass(frozen=True)
class MarginalReport:
    """Achieved routing marginals versus the requested column.  ``exact``
    compares the values themselves; ``max_abs_error`` is a float for display."""

    achieved: tuple[Prob, ...]
    target: tuple[Prob, ...]
    max_abs_error: float

    @property
    def exact(self) -> bool:
        return all(a == t for a, t in zip(self.achieved, self.target))


class RoundingState:
    """Mutable stage-by-stage state of the rounding scheme.

    Branch tracking is optional: the compact state is enough to run all stages,
    while the explicit weighted branch set is what the invariant checks inspect.
    The compact state is the segments and integer numerators over common
    denominators: rank survivals over ``surv_den``, idle probabilities over
    ``idle_den`` (the product of the coin denominators), segment survivals over both.
    The arithmetic is exact exactly when the law ``dist`` is, and then forgives
    no slack; over a float law, ``COLUMN_SLACK``, with floats over denominators 1.
    """

    def __init__(
        self,
        dist: DemandDistribution,
        num_resources: int,
        order: Optional[Sequence[int]] = None,
        track_branches: bool = True,
    ):
        if num_resources < 1:
            raise ValueError("need at least one resource")
        self.order = tuple(order) if order is not None else tuple(range(num_resources))
        if sorted(self.order) != list(range(num_resources)):
            raise ValueError(f"order {self.order} is not a permutation of the resources")
        self.exact = dist.is_exact
        self.num = Fraction if self.exact else float
        self.slack = 0 if self.exact else COLUMN_SLACK
        self.real_length = max(num_resources, dist.max_support)
        self.survivals = [self.num(dist.survival(k)) for k in range(1, self.real_length + 1)]
        self.surv_num, self.surv_den = _common_denominator(self.survivals, self.exact)
        self.idle_num, self.idle_den = _common_denominator([self.num(1)] * self.real_length, self.exact)
        # segment_survival of each segment, kept across stages: a singleton
        # of idle probability one sums to its rank's survival exactly
        self.segment_survivals: list[Prob] = list(self.surv_num)
        self.segments: list[tuple[int, int]] = [(k, k) for k in range(1, self.real_length + 1)]
        self.stage = 0
        self.decisions: list[StageDecision] = []
        self.targets: dict[int, Prob] = {}
        # rank_probs[i][ℓ-1] = Pr[rank ℓ is routed to resource i], real ranks only
        zero = self.num(0)
        self.rank_probs: list[list[Prob]] = [[zero] * self.real_length for _ in range(num_resources)]
        self.branch_den = 1  # of the branch weights: product of coin denominators, or 1 in floats
        self.branches: Optional[list[tuple[list[Optional[int]], Prob]]] = (
            [([None] * self.real_length, 1 if self.exact else 1.0)] if track_branches else None
        )
        # the last stage's change (segments, rank span, resources) and the last checked stage
        self._changed: tuple[range, tuple[int, int], tuple[int, ...]] = (range(0), (1, 0), ())
        self._checked: Optional[int] = None

    # -- queries ---------------------------------------------------------

    @property
    def universe(self) -> int:
        """Current rank count, including appended zero-probability ranks."""
        return len(self.surv_num)

    def segment_survival(self, seg_index: int) -> Prob:
        """Idle-weighted survival mass of one segment, the probability that its
        combined arrival occurs, as a numerator over ``idle_den * surv_den``."""
        lo, hi = self.segments[seg_index]
        total = 0
        for a, b in zip(self.idle_num[lo - 1 : hi], self.surv_num[lo - 1 : hi]):
            total = total + a * b
        return total

    # -- the stage step --------------------------------------------------

    def _coerce(self, x: Prob) -> Prob:
        if self.exact and not is_exact_number(x):
            raise TypeError(
                f"exact-mode rounding got a float marginal {x!r}; "
                "pass Fractions or round over dist.to_float()"
            )
        return self.num(x)

    def advance(self, x_next: Prob) -> None:
        """Process the next resource in the order with marginal ``x_next``."""
        if self.stage >= len(self.order):
            raise ValueError("all resources already processed")
        resource = self.order[self.stage]
        x = self._coerce(x_next)
        if x < -self.slack:
            raise InfeasibleColumnError(f"negative marginal {x} for resource {resource}")
        self._changed = self._route(resource, x) if x > 0 else (range(0), (1, 0), ())
        self.targets[resource] = x
        self.stage += 1

    def _route(self, resource: int, x: Prob) -> tuple[range, tuple[int, int], tuple[int, ...]]:
        """Route ``resource`` into the latest segment whose combined arrival covers
        ``x = p / q`` or into the next one, merge the two and return what changed.  The
        walk cross-multiplies and stops at ``g / den < x <= h / den + slack``, over the
        survivals' ``den``: with no slack the coin ``(p·den − g·q) / (q·(h − g))``
        is in ``(0, 1]``.  It passes every segment of survival 0 but segment 0,
        where a float ``x`` within the slack stops at ``h = g = 0`` with the coin 1."""
        exact = self.exact
        p, q = _over(x, exact)
        den = self.idle_den * self.surv_den
        # walk back from the last segment to the first that covers x
        chosen = len(self.segments) - 1
        h, g = self.segment_survivals[chosen], 0
        while chosen > 0 and (h == 0 or h * q < p * den - self.slack):
            chosen -= 1
            h, g = self.segment_survivals[chosen], h
        if h * q < p * den - self.slack:
            raise InfeasibleColumnError(
                f"resource {resource} needs marginal {x} but the residual demand "
                f"arrives with probability only {_ratio(h, den, exact)}"
            )

        if chosen == len(self.segments) - 1:  # _apply_decision spawns the next segment
            self.surv_num.append(0 if exact else 0.0)
            self.idle_num.append(self.idle_den)
            self.segment_survivals.append(0)
        lam = _ratio(p * den - g * q, q * (h - g), exact) if h != g else self.num(1)
        if not exact:
            lam = min(1.0, max(0.0, lam))

        decision = StageDecision(resource=resource, segment=chosen, lam=lam)
        hi_a = self.segments[chosen][1]
        coin, b = _split(lam, exact)
        branches = _apply_decision(decision, self.segments, self.branches or [], coin)
        if self.branches is not None:
            self.branches = branches
            self.branch_den *= b
        lo_a, hi_b = self.segments[chosen]

        # over idle_den * b, the chosen segment's idle rank takes the resource with
        # weight coin[0] and the next's with coin[1]; all else scales by b
        idle, survivals = self.idle_num, self.segment_survivals
        if b != 1:
            idle[: lo_a - 1] = [v * b for v in idle[: lo_a - 1]]
            idle[hi_b:] = [v * b for v in idle[hi_b:]]
            survivals[:] = [s * b for s in survivals]
        self.idle_den *= b
        row, into_chosen, into_next = self.rank_probs[resource], *coin
        for k in range(lo_a - 1, hi_b):
            routed, kept = (into_chosen, into_next) if k < hi_a else (into_next, into_chosen)
            if k < self.real_length:
                row[k] = _ratio(routed * idle[k], self.idle_den, exact)
            idle[k] = kept * idle[k]
        survivals[chosen : chosen + 2] = [self.segment_survival(chosen)]
        self.decisions.append(decision)
        return range(chosen, chosen + 1), (lo_a, hi_b), (resource,)

    def distribution(self) -> "RoutingDistribution":
        """The rounded distribution: the recorded coins and the rank table.
        Resources not processed yet are never routed."""
        return RoutingDistribution(
            num_resources=len(self.order),
            length=self.real_length,
            survivals=tuple(self.survivals),
            decisions=tuple(self.decisions),
            rank_probs=tuple(tuple(row) for row in self.rank_probs),
            exact=self.exact,
        )

    # -- invariants -------------------------------------------------------

    def check_invariants(self) -> list[str]:
        """All stage invariants against the explicit branch set.

        Returns human-readable violation strings (empty means all hold):

        * the segments tile the ranks ``1..universe``; when they do not, that
          is the one problem reported, as every other check maps ranks to
          segments;
        * matched marginals: processed resources achieve their target mass,
          unprocessed resources none;
        * combined arrivals (a): per branch exactly one idle rank per
          segment, and the idle-rank probabilities of a segment sum to one;
        * combined arrivals (b): the stored residual survival of segment ℓ
          equals the arrival probability of the ℓ-th idle rank across
          branches;
        * separated routing: a routed resource sits in one fixed segment on
          every branch.

        The checks run over one of two scopes.  The full scope, every rank,
        segment and resource, runs on a state's first check, on the first and
        the last stage, and on any check that does not follow exactly one
        ``advance`` since the previous one.  Every other check runs in the stage
        scope: on every branch, the segment that the last stage merged, its rank
        span and the resource it routed (none for a zero marginal).  The rest is
        unchanged up to a common denominator, and the last stage reads it again.

        In exact mode the branch weights, survivals and idle probabilities are
        integer numerators over the state's denominators and each target is
        compared over its own, so every sum runs in integers and every
        comparison is a cross-multiplication: an error below the smallest
        float is still reported, and a `Fraction` is built only to format a
        problem.  Float mode runs the same sums, branch by branch, in floats
        and compares within its slack.
        """
        if self.branches is None:
            raise ValueError("invariant checking needs track_branches=True")
        if self._checked == self.stage - 1 and 1 < self.stage < len(self.order):
            segs, (first, last), resources = self._changed
        else:
            segs, (first, last), resources = range(len(self.segments)), (1, self.universe), range(len(self.order))
        self._checked = self.stage
        seg_at: list[Optional[int]] = []  # segment per rank from `first`; a span off the next rank adds a None
        for idx in segs:
            lo, hi = self.segments[idx]
            seg_at += [idx] * (hi + 1 - lo) if lo == first + len(seg_at) <= hi else [None]
        if len(seg_at) != last + 1 - first or None in seg_at:
            return [f"segments {self.segments} do not tile ranks {first}..{last}"]
        exact = self.exact
        problems: list[str] = []

        def differ(a, aden: int, b, bden: int, tol: float = self.slack) -> bool:
            """``a / aden != b / bden``; in float mode (denominators 1) beyond ``tol``."""
            return a * bden != b * aden if exact else abs(a / aden - b / bden) > tol

        wden, surv, sden, idle, iden = self.branch_den, self.surv_num, self.surv_den, self.idle_num, self.idle_den
        start, nseg = first - 1, len(segs)
        mden, window_surv = wden * sden, surv[start:last]
        homes: dict[int, set[int]] = {r: set() for r in resources if self.targets.get(r, 0) != 0}
        mass = [0] * len(self.order)  # per resource, over mden
        direct = [0] * nseg  # per ℓ: arrival mass of the ℓ-th idle rank of the scope, over mden
        bad_idle: dict[int, int] = {}  # segment -> its idle ranks in the first bad branch
        bad_count: dict[int, int] = {}  # routed resource -> its ranks in the first bad branch
        checked, total = nseg, 0  # the segments whose ℓ-th idle rank is on every branch; the weights' sum
        ells, distinct = list(enumerate(segs)), len(seg_at) - nseg + 1  # the values of a tiled window, none repeated
        placed = [(r, homes.get(r)) for r in resources]  # each resource with its segments, if routed
        for assignment, w in self.branches:
            total += w
            window = assignment[start:last]  # read by C-level scans
            idles, k = window.count(None), -1
            tiled = idles == nseg  # each ℓ-th idle rank in the ℓ-th segment
            for ell, seg in ells[:idles]:
                k = window.index(None, k + 1)
                direct[ell] += w * window_surv[k]
                tiled = tiled and seg_at[k] == seg
            if not tiled:
                counts = Counter(seg for seg, r in zip(seg_at, window) if r is None)
                for s in segs:
                    if counts[s] != 1:
                        bad_idle.setdefault(s, counts[s])
                checked = min(checked, idles)
            present = set(window)
            unique = tiled and len(present) == distinct  # no resource on two ranks
            for res, home in placed:
                if res in present and (unique or window.count(res) == 1):
                    k = window.index(res)
                    mass[res] += w * window_surv[k]
                    if home is not None:
                        home.add(seg_at[k])
                elif (count := window.count(res)) or home is not None:  # on no rank or on several
                    mass[res] = sum((w * s for r, s in zip(window, window_surv) if r == res), mass[res])
                    if home is not None and res not in bad_count:
                        bad_count[res] = count
                        homes[res] = set(home)  # the segments before its first bad branch; later ones go to `home`

        if differ(total, wden, 1, 1, FLOAT_TOL):
            problems.append(f"branch probabilities sum to {float(_ratio(total, wden, exact))!r}")

        for res in resources:
            if res not in self.targets and mass[res] != 0:
                problems.append(f"unprocessed resource {res} already has mass {_ratio(mass[res], mden, exact)}")
            elif differ(mass[res], mden, *_over(self.targets.get(res, 0), exact)):
                achieved, want = float(_ratio(mass[res], mden, exact)), float(self.targets.get(res, 0))
                problems.append(f"resource {res} achieves {achieved!r}, wants {want!r}")

        arrival = []  # per segment of the scope: its idle-weighted survival, over iden * sden
        for seg_idx in segs:
            lo, hi = self.segments[seg_idx]
            if seg_idx in bad_idle:
                problems.append(
                    f"segment {seg_idx} span {(lo, hi)} has {bad_idle[seg_idx]} idle ranks in a branch"
                )
            union = arrival_num = 0
            for k in range(lo - 1, hi):
                union, arrival_num = union + idle[k], arrival_num + idle[k] * surv[k]
            arrival.append(arrival_num)
            if differ(union, iden, 1, 1):
                problems.append(f"segment {seg_idx} idle mass sums to {float(_ratio(union, iden, exact))!r}")

        # residual survival: ℓ-th idle arrival across branches (both over sden)
        for ell, seg_idx in enumerate(segs[:checked]):
            if differ(direct[ell], wden, arrival[ell], iden):
                problems.append(
                    f"segment {seg_idx} survival {float(_ratio(arrival[ell], iden * sden, exact))!r} "
                    f"!= branch-side value {float(_ratio(direct[ell], mden, exact))!r}"
                )

        for res in homes:  # a resource never routed has no segment to pin down
            if res in bad_count:
                problems.append(f"resource {res} appears {bad_count[res]} times in a branch")
            if len(homes[res]) > 1:
                problems.append(f"resource {res} spreads across segments {sorted(homes[res])}")
        return problems


@dataclass(frozen=True)
class RoutingDistribution:
    """Compact encoding of the rounded distribution over routings.

    The state is one coin per routed resource plus the rank table
    ``rank_probs[i][ℓ-1] = Pr[rank ℓ is routed to resource i]``.  A routing is
    materialized by replaying the coins, so sampling costs O(n * L) and the
    full support (at most one doubling per coin) is expanded only on demand.
    """

    num_resources: int
    length: int  # real rank count; appended zero-probability ranks are hidden
    survivals: tuple[Prob, ...]
    decisions: tuple[StageDecision, ...]  # one per routed resource
    rank_probs: tuple[tuple[Prob, ...], ...]  # per resource, over the real ranks
    exact: bool
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def marginals(self) -> tuple[Prob, ...]:
        """Routed-arrival probability per resource: its row times the survivals."""
        return tuple(sum(q * s for q, s in zip(row, self.survivals)) for row in self.rank_probs)

    def support_bound(self) -> int:
        splits = sum(1 for d in self.decisions if d.lam != 0 and d.lam != 1)
        return 1 << splits

    def branches(self) -> tuple[tuple[Routing, Prob], ...]:
        """Expand the full weighted support (projected to real ranks).

        Branches that differ only in where a resource was parked on a
        never-arriving rank collapse together, adding integer weights.
        """
        if "branches" in self._cache:
            return self._cache["branches"]
        if self.support_bound() > MAX_SUPPORT:
            raise ValueError(
                f"support may reach {self.support_bound()} routings, above MAX_SUPPORT = {MAX_SUPPORT}"
            )
        work, den = self._support()
        merged: dict[tuple[Optional[int], ...], Prob] = {}
        for assignment, weight in work:
            key = tuple(assignment[: self.length])
            merged[key] = merged.get(key, 0) + weight
        order = sorted(merged, key=lambda key: tuple(-1 if r is None else r for r in key))
        result = tuple((Routing(k), _ratio(merged[k], den, self.exact)) for k in order)
        self._cache["branches"] = result
        return result

    def sample(self, rng: np.random.Generator) -> Routing:
        """Draw one routing: flip each stage coin and replay the decided coin
        (child weights 1 and 0), so each coin yields one child.  A coin that
        reads 1.0 or 0.0 as a float draws no uniform."""
        if "coins" not in self._cache:
            self._cache["coins"] = tuple(float(d.lam) for d in self.decisions)
        decided = (
            (1, 0) if coin == 1.0 or (coin > 0.0 and rng.random() < coin) else (0, 1)
            for coin in self._cache["coins"]
        )
        return Routing(tuple(self._replay(decided)[0][0][: self.length]))

    def _support(self) -> tuple[list[tuple[list[Optional[int]], Prob]], int]:
        """The unmerged branches, over the product of the coins' denominators."""
        coins = [_split(d.lam, self.exact) for d in self.decisions]
        return self._replay(coin for coin, _ in coins), math.prod(den for _, den in coins)

    def _replay(self, coins: Iterable[tuple[Prob, Prob]]) -> list[tuple[list[Optional[int]], Prob]]:
        """Replay each decision on its pair of child weights from ``coins``."""
        segments = [(k, k) for k in range(1, self.length + 1)]
        work: list[tuple[list[Optional[int]], Prob]] = [([None] * self.length, 1)]
        for dec, coin in zip(self.decisions, coins):
            work = _apply_decision(dec, segments, work, coin)
        return work


def _over(x: Prob, exact: bool) -> tuple[Prob, int]:
    """``x`` as a numerator over a denominator: ``(a, b)`` for an exact ``x = a / b``, ``(x, 1)`` for a float."""
    return (x.numerator, x.denominator) if exact else (x, 1)


def _ratio(num: Prob, den: int, exact: bool) -> Prob:
    """``num / den`` as a `Fraction` in exact mode, as a float otherwise."""
    return Fraction(num, den) if exact else num / den


def _split(lam: Prob, exact: bool) -> tuple[tuple[Prob, Prob], int]:
    """A coin's child weights over their denominator: ``(a, b - a)`` over ``b`` for ``lam = a / b``."""
    a, b = _over(lam, exact)
    return (a, b - a), b


def _apply_decision(
    dec: StageDecision,
    segments: list[tuple[int, int]],
    branches: list[tuple[list[Optional[int]], Prob]],
    coin: tuple[Prob, Prob],
) -> list[tuple[list[Optional[int]], Prob]]:
    """Replay one stage decision: the only place ranks are spawned, branches
    split on the coin, and segments merged.

    ``segments`` is updated in place; a decision on the last segment first
    appends a zero-probability rank as the next one.  Each branch yields a
    child that routes the resource to its idle rank in the chosen segment
    (weight times ``coin[0]``) and then one that routes it to its idle rank in
    the next segment (times ``coin[1]``); a child of weight zero is left out.
    """
    if dec.segment == len(segments) - 1:
        rank = segments[-1][1] + 1
        segments.append((rank, rank))
        for assignment, _ in branches:
            assignment.append(None)
    seg, resource = dec.segment, dec.resource
    into_chosen, into_next = coin
    chosen, following = segments[seg], segments[seg + 1]
    children: list[tuple[list[Optional[int]], Prob]] = []
    for assignment, weight in branches:
        if into_chosen:
            routed = list(assignment)
            routed[_unique_idle(assignment, chosen) - 1] = resource
            children.append((routed, weight * into_chosen))
        if into_next:
            parked = list(assignment)
            parked[_unique_idle(assignment, following) - 1] = resource
            children.append((parked, weight * into_next))
    segments[seg] = (chosen[0], following[1])
    del segments[seg + 1]
    return children


def _unique_idle(assignment: list[Optional[int]], span: tuple[int, int]) -> int:
    lo, hi = span
    window = assignment[lo - 1 : hi]
    if (idle := window.count(None)) != 1:
        raise ValueError(f"span {span} holds {idle} idle ranks; the decisions do not replay")
    return lo + window.index(None)


def typeround(x_col: Sequence[Prob], dist: DemandDistribution) -> RoutingDistribution:
    """Round a feasible column into a routing distribution with exact marginals,
    processing the resources in index order.

    An infeasible column is rejected as soon as the residual demand cannot
    cover the next requested marginal, rather than rounded approximately.  The
    arithmetic is exact when the law and the column are, and then forgives
    nothing; a float column, as an LP solver returns it, rounds over
    ``dist.to_float()`` and may overshoot by ``COLUMN_SLACK``.
    """
    if dist.is_exact and not all(is_exact_number(x) for x in x_col):
        dist = dist.to_float()
    state = RoundingState(dist, len(x_col), track_branches=False)
    for x in x_col:
        state.advance(x)
    return state.distribution()


def verify_marginals(
    rd: RoutingDistribution, x_col: Sequence[Prob], dist: DemandDistribution
) -> MarginalReport:
    """Recompute achieved marginals by replaying the coins.

    This path reads only the decisions and the law, independently of the
    compact bookkeeping used while rounding, and reports the worst absolute
    error (zero in exact mode).  Exact sums run in integers over the product
    of the coins' and the survivals' denominators.
    """
    if len(x_col) != rd.num_resources:
        raise ValueError(f"column has {len(x_col)} entries for {rd.num_resources} resources")
    exact = rd.exact and dist.is_exact
    work, wden = rd._support()
    surv, sden = _common_denominator([dist.survival(k) for k in range(1, rd.length + 1)], exact)
    mass = [0] * rd.num_resources  # over wden * sden
    for assignment, w in work:
        for res, s in zip(assignment, surv):  # spawned ranks never arrive
            if res is not None:
                mass[res] = mass[res] + w * s
    achieved = tuple(_ratio(m, wden * sden, exact) for m in mass)
    worst = max((abs(float(a - x)) for a, x in zip(achieved, x_col)), default=0.0)
    return MarginalReport(achieved=achieved, target=tuple(x_col), max_abs_error=worst)


def _common_denominator(values: Sequence[Prob], exact: bool) -> tuple[list, int]:
    """Exact ``values`` as integer numerators over their least common
    denominator; float values pass through, over the denominator 1."""
    if not exact:
        return list(values), 1
    ratios = [v.as_integer_ratio() for v in values]
    denom = math.lcm(*(d for _, d in ratios))
    return [n * (denom // d) for n, d in ratios], denom
