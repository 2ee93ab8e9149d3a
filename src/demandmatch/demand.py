"""Demand models and instances for online stochastic matching.

The matching problem has ``n`` resources with starting capacities ``k_i``
and ``m`` query types; serving a type-``j`` query with resource ``i`` earns
``r[i][j]``.  The random object is the *demand vector* ``D = (D_1,...,D_m)``
counting how many queries of each type arrive.  Three demand models are
supported:

* ``IndepDemandModel`` -- each ``D_j`` follows an arbitrary finite-support
  distribution, independently across types.  Demand variance is unrestricted,
  so a type can idiosyncratically spike.
* ``CorrelDemandModel`` -- the total count ``D`` follows an arbitrary
  distribution and each of the ``D`` queries draws an IID type from a fixed
  probability vector.  A high total lifts every type simultaneously.
* ``StochasticHorizonModel`` -- the sequence view of the correlated model:
  ordered steps ``t = 1..D`` with a (possibly time-varying) per-step type
  distribution, the total ``D`` unknown until the sequence stops.

All distributions here have finite support.  Probabilities may be floats or
`fractions.Fraction`; when every input is rational, derived quantities
(survival probabilities, truncated expectations) stay exact, which the
rounding golden tests rely on.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

Prob = Union[int, float, Fraction]

#: additive tolerance for float probability mass checks
PMF_TOL = 1e-12


def is_exact_number(value: Prob) -> bool:
    """True for numeric types that support exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def as_generator(seed: Union[int, Sequence[int], np.random.Generator]) -> np.random.Generator:
    """Accept either a seed (int or sequence of ints) or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial, derived by counter.

    Trial ``t`` of a run always sees ``default_rng((seed, t))``, so results
    cannot depend on execution order or parallel scheduling.
    """
    return np.random.default_rng((seed, trial))


class Arrival(enum.Enum):
    """Arrival-pattern tag: who decides the interleaving of query types."""

    ADVERSARIAL = "adversarial"
    RANDOM_ORDER = "random"


@dataclass(frozen=True)
class DemandDistribution:
    """Finite-support law of a nonnegative integer demand count.

    ``items`` is the canonical support: sorted ``(value, probability)`` pairs
    with strictly positive probabilities summing to one.  Use
    :meth:`from_pmf` rather than the raw constructor.
    """

    items: tuple[tuple[int, Prob], ...]
    _survival: tuple[Prob, ...] = field(repr=False, compare=False, default=())

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("demand distribution needs at least one support point")
        total: Prob = 0
        prev = -1
        for value, prob in self.items:
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"support values must be nonnegative integers, got {value!r}")
            if value <= prev:
                raise ValueError("support values must be sorted and distinct")
            prev = value
            if prob < 0:
                raise ValueError(f"pmf({value}) = {prob} is negative")
            total = total + prob
        if self.is_exact:
            if total != 1:
                raise ValueError(f"pmf sums to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > PMF_TOL:
            raise ValueError(f"pmf sums to {float(total)!r}, outside tolerance {PMF_TOL}")
        # Survival table Pr[D >= ell] for ell = 1..max_support, built once.
        # Exact atoms sum to exactly one; float atoms may sum a hair above
        # it, so a float survival is clamped at 0.0 rather than go negative.
        surv: list[Prob] = []
        tail: Prob = 1 if self.is_exact else 1.0
        support = dict(self.items)
        for ell in range(1, self.max_support + 1):
            tail = tail - support.get(ell - 1, 0)
            surv.append(tail if tail >= 0 else 0.0)
        object.__setattr__(self, "_survival", tuple(surv))

    @classmethod
    def from_pmf(cls, pmf: Mapping[int, Prob]) -> "DemandDistribution":
        """Build from a value -> probability mapping; zero entries are dropped."""
        items = tuple(sorted((int(v), p) for v, p in pmf.items() if p != 0))
        if not items and 0 in pmf:
            items = ((0, pmf[0]),)
        return cls(items)

    @classmethod
    def point_mass(cls, value: int) -> "DemandDistribution":
        return cls.from_pmf({value: 1})

    @property
    def pmf(self) -> dict[int, Prob]:
        return dict(self.items)

    @property
    def is_exact(self) -> bool:
        return all(is_exact_number(p) for _, p in self.items)

    @property
    def max_support(self) -> int:
        return self.items[-1][0]

    def probability(self, value: int) -> Prob:
        for v, p in self.items:
            if v == value:
                return p
        return 0

    def survival(self, ell: int) -> Prob:
        """Pr[D >= ell]; equals 1 for ell <= 0 and 0 beyond the support."""
        if ell <= 0:
            return 1 if self.is_exact else 1.0
        if ell > self.max_support:
            return 0 if self.is_exact else 0.0
        return self._survival[ell - 1]

    def truncated_expectation(self, cap: int) -> Prob:
        """E[min(D, cap)], computed as the telescoping sum of survivals."""
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        total: Prob = 0
        for ell in range(1, min(cap, self.max_support) + 1):
            total = total + self._survival[ell - 1]
        return total

    def mean(self) -> Prob:
        return self.truncated_expectation(self.max_support)

    def to_float(self) -> "DemandDistribution":
        return DemandDistribution(tuple((v, float(p)) for v, p in self.items))

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        acc = 0.0
        for value, prob in self.items:
            acc += float(prob)
            if u < acc:
                return value
        return self.items[-1][0]


def _check_prob_vector(probs: Sequence[Prob], what: str, target: str = "one") -> None:
    total: Prob = 0
    for idx, p in enumerate(probs):
        if p < 0:
            raise ValueError(f"{what}[{idx}] = {p} is negative")
        total = total + p
    exact = all(is_exact_number(p) for p in probs)
    if target == "one":
        ok = total == 1 if exact else abs(float(total) - 1.0) <= PMF_TOL
        if not ok:
            raise ValueError(f"{what} sums to {float(total)!r}, expected 1")
    else:  # at most one
        ok = total <= 1 if exact else float(total) <= 1.0 + PMF_TOL
        if not ok:
            raise ValueError(f"{what} sums to {float(total)!r}, above 1")


@dataclass(frozen=True)
class IndepDemandModel:
    """Independent per-type demand counts with arbitrary marginals."""

    per_type: tuple[DemandDistribution, ...]

    def __post_init__(self) -> None:
        if not self.per_type:
            raise ValueError("need at least one type")

    @property
    def m(self) -> int:
        return len(self.per_type)

    def marginal(self, j: int) -> DemandDistribution:
        return self.per_type[j]


@dataclass(frozen=True)
class CorrelDemandModel:
    """Total demand drawn first; each query then draws an IID type."""

    total: DemandDistribution
    type_probs: tuple[Prob, ...]

    def __post_init__(self) -> None:
        if not self.type_probs:
            raise ValueError("need at least one type")
        _check_prob_vector(self.type_probs, "type_probs", target="one")

    @property
    def m(self) -> int:
        return len(self.type_probs)

    def marginal(self, j: int) -> DemandDistribution:
        """Law of the count of type-``j`` queries: a mixture of binomials.

        Exact when both the total's pmf and ``type_probs`` are rational.
        """
        p = self.type_probs[j]
        exact = is_exact_number(p) and self.total.is_exact
        one: Prob = 1 if exact else 1.0
        pmf: dict[int, Prob] = {}
        for total_value, total_prob in self.total.items:
            q = one - p
            for count in range(total_value + 1):
                w = math.comb(total_value, count) * p**count * q ** (total_value - count)
                pmf[count] = pmf.get(count, 0) + total_prob * w
        return DemandDistribution.from_pmf(pmf)

    def to_horizon(self) -> "StochasticHorizonModel":
        """Sequence view: constant per-step type distribution over T steps."""
        rows = tuple(self.type_probs for _ in range(max(self.total.max_support, 1)))
        return StochasticHorizonModel(total=self.total, probs=rows)


@dataclass(frozen=True)
class StochasticHorizonModel:
    """Ordered steps ``t = 1..D`` with per-step type probabilities.

    ``probs[t-1][j]`` is the chance that the step-``t`` query has type ``j``,
    conditional on the horizon lasting at least ``t`` steps.  Rows may sum to
    less than one; the residual mass means "no query this step".
    """

    total: DemandDistribution
    probs: tuple[tuple[Prob, ...], ...]

    def __post_init__(self) -> None:
        # A total that is identically zero still carries one (never reached)
        # row so the type count stays well defined.
        expected_rows = max(self.total.max_support, 1)
        if len(self.probs) != expected_rows:
            raise ValueError(
                f"probs has {len(self.probs)} rows but the max total demand is "
                f"{self.total.max_support}"
            )
        width = len(self.probs[0])
        for t, row in enumerate(self.probs, start=1):
            if len(row) != width:
                raise ValueError(f"probs row {t} has inconsistent width")
            _check_prob_vector(row, f"probs[{t}]", target="at_most_one")

    @property
    def horizon(self) -> int:
        return self.total.max_support

    @property
    def m(self) -> int:
        return len(self.probs[0])

    def no_query_mass(self, t: int) -> Prob:
        row = self.probs[t - 1]
        total: Prob = 0
        for p in row:
            total = total + p
        one: Prob = 1 if all(is_exact_number(p) for p in row) else 1.0
        residual = one - total
        if not is_exact_number(residual):
            residual = max(0.0, float(residual))
        return residual


DemandModel = Union[IndepDemandModel, CorrelDemandModel, StochasticHorizonModel]


@dataclass(frozen=True)
class Instance:
    """A matching instance: rewards, capacities, demand model, arrival tag."""

    rewards: tuple[tuple[float, ...], ...]
    capacities: tuple[int, ...]
    demand: DemandModel
    arrival: Arrival = Arrival.ADVERSARIAL

    def __post_init__(self) -> None:
        n = len(self.rewards)
        if n == 0 or len(self.rewards[0]) == 0:
            raise ValueError("instance needs at least one resource and one type")
        m = len(self.rewards[0])
        for i, row in enumerate(self.rewards):
            if len(row) != m:
                raise ValueError(f"rewards row {i} has length {len(row)}, expected {m}")
            for j, r in enumerate(row):
                if r < 0:
                    raise ValueError(f"rewards[{i}][{j}] = {r} is negative")
        if len(self.capacities) != n:
            raise ValueError(f"{len(self.capacities)} capacities for {n} resources")
        for i, k in enumerate(self.capacities):
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"capacities[{i}] = {k!r}; capacities are positive integers")
        model_m = _model_type_count(self.demand)
        if model_m != m:
            raise ValueError(f"demand model has {model_m} types, rewards have {m}")

    @property
    def n(self) -> int:
        return len(self.rewards)

    @property
    def m(self) -> int:
        return len(self.rewards[0])

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)


def _model_type_count(model: DemandModel) -> int:
    if isinstance(model, (IndepDemandModel, CorrelDemandModel, StochasticHorizonModel)):
        return model.m
    raise TypeError(f"not a demand model: {model!r}")


@dataclass(frozen=True)
class RealizedDemand:
    """One realization of the demand vector: per-type arrival counts."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for j, d in enumerate(self.counts):
            if not isinstance(d, int) or d < 0:
                raise ValueError(f"counts[{j}] = {d!r} is not a nonnegative integer")

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ArrivalSequence:
    """An ordered interleaving of query types realizing some demand vector."""

    types: tuple[int, ...]

    def counts(self, m: int) -> RealizedDemand:
        tally = [0] * m
        for j in self.types:
            tally[j] += 1
        return RealizedDemand(tuple(tally))


def expand_unit_capacity(inst: Instance) -> tuple[Instance, tuple[int, ...]]:
    """Split every resource into unit-capacity copies.

    Returns the expanded instance together with a copy -> parent index map.
    Copies inherit the parent's reward row, so every LP value and oracle
    value is unchanged; an already unit-capacity instance round-trips to an
    identical one (with the identity map).
    """
    rewards: list[tuple[float, ...]] = []
    parent: list[int] = []
    for i, k in enumerate(inst.capacities):
        for _ in range(k):
            rewards.append(inst.rewards[i])
            parent.append(i)
    expanded = Instance(
        rewards=tuple(rewards),
        capacities=tuple(1 for _ in rewards),
        demand=inst.demand,
        arrival=inst.arrival,
    )
    return expanded, tuple(parent)


def sample_demand(model: DemandModel, rng_seed: Union[int, np.random.Generator]) -> RealizedDemand:
    """Draw one demand vector.

    Independent model: one draw per type.  Correlated model: draw the total,
    then that many categorical type draws.  Horizon model: draw the total and
    walk the steps; a step whose row sums below one may produce no query.
    """
    rng = as_generator(rng_seed)
    if isinstance(model, IndepDemandModel):
        return RealizedDemand(tuple(dist.sample(rng) for dist in model.per_type))
    if isinstance(model, CorrelDemandModel):
        total = model.total.sample(rng)
        counts = [0] * model.m
        cum = np.cumsum([float(p) for p in model.type_probs])
        for _ in range(total):
            # float type_probs may sum a hair below one; past it, the last type
            j = int(np.searchsorted(cum, rng.random(), side="right"))
            counts[min(j, model.m - 1)] += 1
        return RealizedDemand(tuple(counts))
    if isinstance(model, StochasticHorizonModel):
        path = sample_horizon_path(model, rng)
        counts = [0] * model.m
        for j in path:
            if j is not None:
                counts[j] += 1
        return RealizedDemand(tuple(counts))
    raise TypeError(f"not a demand model: {model!r}")


def sample_horizon_path(
    model: StochasticHorizonModel, rng_seed: Union[int, np.random.Generator]
) -> tuple[Optional[int], ...]:
    """Step-by-step realization of a horizon model.

    Entry ``t-1`` is the type arriving at step ``t``, or ``None`` when the
    row's residual "no query" mass fires.  The tuple has length ``D``.
    """
    rng = as_generator(rng_seed)
    total = model.total.sample(rng)
    path: list[Optional[int]] = []
    for t in range(1, total + 1):
        row = model.probs[t - 1]
        u = rng.random()
        acc = 0.0
        arrived: Optional[int] = None
        for j, p in enumerate(row):
            acc += float(p)
            if u < acc:
                arrived = j
                break
        path.append(arrived)
    return tuple(path)


def sample_random_order(
    d: RealizedDemand, rng_seed: Union[int, np.random.Generator]
) -> ArrivalSequence:
    """Uniform draw over all interleavings of the realized counts."""
    rng = as_generator(rng_seed)
    pool = [j for j, c in enumerate(d.counts) for _ in range(c)]
    rng.shuffle(pool)
    return ArrivalSequence(tuple(int(j) for j in pool))


def iter_orders(d: RealizedDemand) -> Iterator[tuple[int, ...]]:
    """Enumerate every distinct interleaving of the realized counts."""
    counts = list(d.counts)
    total = sum(counts)
    prefix: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(prefix) == total:
            yield tuple(prefix)
            return
        for j, c in enumerate(counts):
            if c > 0:
                counts[j] -= 1
                prefix.append(j)
                yield from rec()
                prefix.pop()
                counts[j] += 1

    yield from rec()


def order_count(d: RealizedDemand) -> int:
    """|S(d)| = multinomial coefficient of the counts."""
    total = sum(d.counts)
    count = math.factorial(total)
    for c in d.counts:
        count //= math.factorial(c)
    return count


def truncated_poisson(rate: float, cutoff_mass: float) -> DemandDistribution:
    """Poisson(rate) truncated at the smallest point leaving tail mass below
    ``cutoff_mass``, then renormalized.

    The bridge from unbounded textbook demand laws to the finite-support
    distributions everything here requires.
    """
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if not 0 < cutoff_mass < 1:
        raise ValueError(f"cutoff_mass must lie in (0, 1), got {cutoff_mass}")
    pmf: dict[int, float] = {}
    term = math.exp(-rate)
    cumulative = 0.0
    value = 0
    while 1.0 - cumulative >= cutoff_mass:
        pmf[value] = term
        cumulative += term
        value += 1
        term *= rate / value
        if value > 10_000_000:
            raise RuntimeError("truncated_poisson failed to converge")
    return DemandDistribution.from_pmf({v: p / cumulative for v, p in pmf.items()})


def iter_demand_support(model: DemandModel) -> Iterator[tuple[tuple[int, ...], Prob]]:
    """Enumerate the joint support of the demand vector with probabilities.

    Independent: the product of per-type supports.  Correlated: total values
    crossed with multinomial splits.  Horizon: a forward pass over steps,
    folding each step's type (or no-query) outcome into a count-vector law.
    """
    if isinstance(model, IndepDemandModel):
        supports = [dist.items for dist in model.per_type]
        for combo in itertools.product(*supports):
            prob: Prob = 1 if all(is_exact_number(p) for _, p in combo) else 1.0
            for _, p in combo:
                prob = prob * p
            yield tuple(v for v, _ in combo), prob
        return
    if isinstance(model, CorrelDemandModel):
        m = model.m
        exact = model.total.is_exact and all(is_exact_number(p) for p in model.type_probs)
        for total_value, total_prob in model.total.items:
            for split in _compositions(total_value, m):
                w: Prob = math.factorial(total_value)
                for c in split:
                    w = w / (Fraction(math.factorial(c)) if exact else math.factorial(c))
                for j, c in enumerate(split):
                    w = w * model.type_probs[j] ** c
                yield split, total_prob * w
        return
    if isinstance(model, StochasticHorizonModel):
        m = model.m
        zero = tuple(0 for _ in range(m))
        # distribution over count vectors after t steps
        layer: dict[tuple[int, ...], Prob] = {zero: 1 if model.total.is_exact else 1.0}
        acc: dict[tuple[int, ...], Prob] = {}
        for t in range(0, model.horizon + 1):
            p_stop = model.total.probability(t)
            if p_stop != 0:
                for counts, prob in layer.items():
                    acc[counts] = acc.get(counts, 0) + p_stop * prob
            if t == model.horizon:
                break
            row = model.probs[t]
            nxt: dict[tuple[int, ...], Prob] = {}
            residual = model.no_query_mass(t + 1)
            for counts, prob in layer.items():
                if residual != 0:
                    nxt[counts] = nxt.get(counts, 0) + prob * residual
                for j, p in enumerate(row):
                    if p == 0:
                        continue
                    bumped = counts[:j] + (counts[j] + 1,) + counts[j + 1 :]
                    nxt[bumped] = nxt.get(bumped, 0) + prob * p
            layer = nxt
        yield from acc.items()
        return
    raise TypeError(f"not a demand model: {model!r}")


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def demand_support_size(model: DemandModel) -> int:
    if isinstance(model, IndepDemandModel):
        size = 1
        for dist in model.per_type:
            size *= len(dist.items)
        return size
    if isinstance(model, CorrelDemandModel):
        return sum(
            math.comb(v + model.m - 1, model.m - 1) for v, _ in model.total.items
        )
    if isinstance(model, StochasticHorizonModel):
        # loose bound: count vectors reachable within the horizon
        return math.comb(model.horizon + model.m, model.m)
    raise TypeError(f"not a demand model: {model!r}")
