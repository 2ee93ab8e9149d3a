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
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

Prob = Union[int, float, Fraction]

#: additive tolerance for float probability mass checks
PMF_TOL = 1e-12


def is_exact_number(value: Prob) -> bool:
    """True for numeric types that support exact rational arithmetic."""
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def as_count(value: Prob, what: str) -> int:
    """``value`` as an int: a bool, NaN, an infinity or a value with a
    fractional part is rejected, not truncated."""
    if isinstance(value, bool) or value % 1 != 0:  # NaN % 1 and inf % 1 are NaN
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent substream for one trial, derived by counter.

    Trial ``t`` of a run always sees ``default_rng((seed, t))``, so results
    cannot depend on execution order or parallel scheduling.
    """
    return np.random.default_rng((seed, trial))


class UnsupportedDemandModel(TypeError):
    """Raised when a demand model is asked for a view its kind does not have."""


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
    _survival: tuple[Prob, ...] = field(init=False, repr=False, compare=False)
    _prefix: tuple[Prob, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("demand distribution needs at least one support point")
        total: Prob = 0
        prev = -1
        for value, prob in self.items:
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"support values must be nonnegative integers, got {value!r}")
            if value <= prev:
                raise ValueError("support values must be sorted and distinct")
            prev = value
            if not 0 <= prob < math.inf:  # also rejects NaN
                raise ValueError(f"pmf({value}) = {prob} is not a finite nonnegative probability")
            total = total + prob
        if self.is_exact:
            if total != 1:
                raise ValueError(f"pmf sums to {total}, expected exactly 1")
        elif abs(float(total) - 1.0) > PMF_TOL:
            raise ValueError(f"pmf sums to {float(total)!r}, outside tolerance {PMF_TOL}")
        # Survival table Pr[D >= ell] for ell = 1..max_support, built once.
        # Exact atoms sum to exactly one; float atoms may sum a hair above
        # it, so a float survival is clamped at 0.0 rather than go negative.
        # Next to it, the prefix sums E[min(D, cap)] for cap = 0..max_support.
        surv: list[Prob] = []
        prefix: list[Prob] = [0]
        tail: Prob = 1 if self.is_exact else 1.0
        support = dict(self.items)
        for ell in range(1, self.max_support + 1):
            tail = tail - support.get(ell - 1, 0)
            surv.append(tail if tail >= 0 else 0.0)
            prefix.append(prefix[-1] + surv[-1])
        object.__setattr__(self, "_survival", tuple(surv))
        object.__setattr__(self, "_prefix", tuple(prefix))

    @classmethod
    def from_pmf(cls, pmf: Mapping[int, Prob]) -> "DemandDistribution":
        """Build from a value -> probability mapping; zero entries are dropped."""
        counts = {as_count(v, "a support value"): p for v, p in pmf.items()}
        items = tuple(sorted((v, p) for v, p in counts.items() if p != 0))
        if not items and 0 in counts:
            items = ((0, counts[0]),)
        return cls(items)

    @classmethod
    def point_mass(cls, value: int) -> "DemandDistribution":
        return cls.from_pmf({value: 1})

    @functools.cached_property
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
        """E[min(D, cap)], the telescoping sum of survivals up to ``cap``."""
        if cap < 0:
            raise ValueError(f"cap must be nonnegative, got {cap}")
        return self._prefix[min(cap, self.max_support)]

    @functools.cached_property
    def _float_prefix(self) -> np.ndarray:
        return np.array([float(v) for v in self._prefix])

    def truncated_expectation_table(self, cap: int) -> np.ndarray:
        """``float(E[min(D, k)])`` for ``k = 0..cap``; the float table is built on first use."""
        return self._float_prefix[np.minimum(np.arange(cap + 1), self.max_support)]

    def mean(self) -> Prob:
        return self.truncated_expectation(self.max_support)

    def to_float(self) -> "DemandDistribution":
        """The law with float probabilities; a law already in floats is its own copy."""
        if all(type(p) is float for _, p in self.items):
            return self
        return DemandDistribution(tuple((v, float(p)) for v, p in self.items))

    def sample(self, rng: np.random.Generator) -> int:
        idx = draw_index((p for _, p in self.items), rng)
        return self.items[-1 if idx is None else idx][0]


def draw_index(probs: Iterable[Prob], rng: np.random.Generator) -> Optional[int]:
    """One categorical draw: the first index whose running float sum of
    ``probs`` exceeds one uniform, or None when the uniform lands past the mass."""
    u = rng.random()
    acc = 0.0
    for idx, p in enumerate(probs):
        acc += float(p)
        if u < acc:
            return idx
    return None


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

    def to_horizon(self) -> "StochasticHorizonModel":
        raise UnsupportedDemandModel("independent demand has no canonical horizon view")

    def sample(self, rng: np.random.Generator) -> "RealizedDemand":
        """One draw per type."""
        return RealizedDemand(tuple(dist.sample(rng) for dist in self.per_type))

    def support(self) -> Iterator[tuple[tuple[int, ...], Prob]]:
        """The product of per-type supports."""
        supports = [dist.items for dist in self.per_type]
        for combo in itertools.product(*supports):
            prob: Prob = 1 if all(is_exact_number(p) for _, p in combo) else 1.0
            for _, p in combo:
                prob = prob * p
            yield tuple(v for v, _ in combo), prob

    def support_size(self) -> int:
        size = 1
        for dist in self.per_type:
            size *= len(dist.items)
        return size


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
        Built once per model.
        """
        return self._marginals[j]

    @functools.cached_property
    def _marginals(self) -> tuple[DemandDistribution, ...]:
        marginals = []
        for p in self.type_probs:
            exact = is_exact_number(p) and self.total.is_exact
            one: Prob = 1 if exact else 1.0
            pmf: dict[int, Prob] = {}
            for total_value, total_prob in self.total.items:
                for split, coef in _compositions(total_value, 2):
                    w = _multinomial(coef, split, (p, one - p), exact)
                    pmf[split[0]] = pmf.get(split[0], 0) + total_prob * w
            marginals.append(DemandDistribution.from_pmf(pmf))
        return tuple(marginals)

    def to_horizon(self) -> "StochasticHorizonModel":
        """Sequence view: constant per-step type distribution over T steps."""
        rows = tuple(self.type_probs for _ in range(max(self.total.max_support, 1)))
        return StochasticHorizonModel(total=self.total, probs=rows)

    def sample(self, rng: np.random.Generator) -> "RealizedDemand":
        """Draw the total, then that many categorical type draws."""
        total = self.total.sample(rng)
        counts = [0] * self.m
        for _ in range(total):
            j = draw_index(self.type_probs, rng)
            counts[self.m - 1 if j is None else j] += 1  # past the float mass: the last type
        return RealizedDemand(tuple(counts))

    def support(self) -> Iterator[tuple[tuple[int, ...], Prob]]:
        """Total values crossed with multinomial splits."""
        m = self.m
        exact = self.total.is_exact and all(is_exact_number(p) for p in self.type_probs)
        for total_value, total_prob in self.total.items:
            for split, coef in _compositions(total_value, m):
                yield split, total_prob * _multinomial(coef, split, self.type_probs, exact)

    def support_size(self) -> int:
        return sum(
            math.comb(v + self.m - 1, self.m - 1) for v, _ in self.total.items
        )


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
        if not width:
            raise ValueError("need at least one type")
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

    def marginal(self, j: int) -> DemandDistribution:
        raise UnsupportedDemandModel(
            "stochastic-horizon demand has no per-type marginal here; use the conditional LP"
        )

    def to_horizon(self) -> "StochasticHorizonModel":
        return self

    def sample(self, rng: np.random.Generator) -> "RealizedDemand":
        """Draw the total and walk the steps; a step whose row sums below one
        may produce no query."""
        path = sample_horizon_path(self, rng)
        return RealizedDemand(tuple(path.count(j) for j in range(self.m)))

    def support(self) -> Iterator[tuple[tuple[int, ...], Prob]]:
        """A forward pass over steps, folding each step's type (or no-query)
        outcome into a count-vector law."""
        m = self.m
        zero = tuple(0 for _ in range(m))
        # distribution over count vectors after t steps
        layer: dict[tuple[int, ...], Prob] = {zero: 1 if self.total.is_exact else 1.0}
        acc: dict[tuple[int, ...], Prob] = {}
        for t in range(0, self.horizon + 1):
            p_stop = self.total.probability(t)
            if p_stop != 0:
                for counts, prob in layer.items():
                    acc[counts] = acc.get(counts, 0) + p_stop * prob
            if t == self.horizon:
                break
            row = self.probs[t]
            nxt: dict[tuple[int, ...], Prob] = {}
            residual = self.no_query_mass(t + 1)
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

    def support_size(self) -> int:
        # loose bound: count vectors reachable within the horizon
        return math.comb(self.horizon + self.m, self.m)

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
                if not 0 <= r < math.inf:  # also rejects NaN
                    raise ValueError(f"rewards[{i}][{j}] = {r} is not a finite nonnegative number")
        if len(self.capacities) != n:
            raise ValueError(f"{len(self.capacities)} capacities for {n} resources")
        for i, k in enumerate(self.capacities):
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"capacities[{i}] = {k!r}; capacities are positive integers")
        if not isinstance(self.demand, (IndepDemandModel, CorrelDemandModel, StochasticHorizonModel)):
            raise TypeError(f"not a demand model: {self.demand!r}")
        if self.demand.m != m:
            raise ValueError(f"demand model has {self.demand.m} types, rewards have {m}")

    @property
    def n(self) -> int:
        return len(self.rewards)

    @property
    def m(self) -> int:
        return len(self.rewards[0])

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities)


@dataclass(frozen=True)
class RealizedDemand:
    """One realization of the demand vector: per-type arrival counts."""

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        for j, d in enumerate(self.counts):
            if not isinstance(d, int) or isinstance(d, bool) or d < 0:
                raise ValueError(f"counts[{j}] = {d!r} is not a nonnegative integer")


@dataclass(frozen=True)
class ArrivalSequence:
    """An ordered interleaving of query types realizing some demand vector."""

    types: tuple[int, ...]


def expand_unit_capacity(inst: Instance) -> Instance:
    """Split every resource into unit-capacity copies.

    Copies inherit the parent's reward row, so every LP value and oracle
    value is unchanged; an already unit-capacity instance round-trips to an
    identical one.
    """
    rewards: list[tuple[float, ...]] = []
    for i, k in enumerate(inst.capacities):
        for _ in range(k):
            rewards.append(inst.rewards[i])
    return Instance(
        rewards=tuple(rewards),
        capacities=tuple(1 for _ in rewards),
        demand=inst.demand,
        arrival=inst.arrival,
    )


def sample_demand(model: DemandModel, rng: np.random.Generator) -> RealizedDemand:
    """Draw one demand vector from the model's own law."""
    return model.sample(rng)


def sample_horizon_path(
    model: StochasticHorizonModel, rng: np.random.Generator
) -> tuple[Optional[int], ...]:
    """Step-by-step realization of a horizon model.

    Entry ``t-1`` is the type arriving at step ``t``, or ``None`` when the
    row's residual "no query" mass fires.  The tuple has length ``D``.
    """
    total = model.total.sample(rng)
    return tuple(draw_index(model.probs[t], rng) for t in range(total))


def sample_random_order(
    d: RealizedDemand, rng: np.random.Generator
) -> ArrivalSequence:
    """Uniform draw over all interleavings of the realized counts."""
    pool = [j for j, c in enumerate(d.counts) for _ in range(c)]
    rng.shuffle(pool)
    return ArrivalSequence(tuple(int(j) for j in pool))


def truncated_poisson(rate: float, cutoff_mass: float) -> DemandDistribution:
    """Poisson(rate) truncated at the smallest point leaving tail mass below
    ``cutoff_mass``, then renormalized.

    The bridge from unbounded textbook demand laws to the finite-support
    distributions everything here requires.  Each term is computed in logs,
    ``exp(v·log(rate) − rate − lgamma(v + 1))``, so that a large rate, whose
    ``exp(-rate)`` underflows, keeps its mass; the rate must be positive and finite.
    """
    if not 0 < rate < math.inf:  # also rejects NaN
        raise ValueError(f"rate must be positive and finite, got {rate}")
    if not 0 < cutoff_mass < 1:
        raise ValueError(f"cutoff_mass must lie in (0, 1), got {cutoff_mass}")
    pmf: dict[int, float] = {}
    cumulative = 0.0
    value = 0
    while 1.0 - cumulative >= cutoff_mass:
        pmf[value] = math.exp(value * math.log(rate) - rate - math.lgamma(value + 1))
        cumulative += pmf[value]
        value += 1
        if value > 10_000_000:
            raise RuntimeError("truncated_poisson failed to converge")
    return DemandDistribution.from_pmf({v: p / cumulative for v, p in pmf.items()})


def iter_demand_support(model: DemandModel) -> Iterator[tuple[tuple[int, ...], Prob]]:
    """Enumerate the joint support of the demand vector with probabilities."""
    yield from model.support()


def _multinomial(coef: int, split: Sequence[int], probs: Sequence[Prob], exact: bool) -> Prob:
    """Weight of the counts ``split``, whose multinomial coefficient is ``coef``,
    under ``probs``: the exact coefficient times the powers, or in floats
    ``exp(log(coef) + Σ c·log(p))``, which no large total overflows.  A
    probability at or below 0 with a positive count weighs 0."""
    if exact:
        return math.prod((p**c for p, c in zip(probs, split)), start=coef)
    if any(c and p <= 0 for p, c in zip(probs, split)):
        return 0.0
    return math.exp(math.log(coef) + sum(c * math.log(p) for p, c in zip(probs, split) if c))


def _compositions(total: int, parts: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every split of ``total`` into ``parts`` counts, in lexicographic order,
    with its multinomial coefficient: ``C(total, head)``, a binomial running
    along the heads, times the tail's coefficient."""
    if parts == 1:
        yield (total,), 1
        return
    binom = 1
    for head in range(total + 1):
        for tail, coef in _compositions(total - head, parts - 1):
            yield (head,) + tail, binom * coef
        binom = binom * (total - head) // (head + 1)
