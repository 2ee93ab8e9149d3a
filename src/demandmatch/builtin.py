"""Built-in example data used by the CLI and the golden tests.

Three rounding examples ship with the package so the tables can be printed
without any fixture files:

* ``demo3`` -- three unit resources, demand in {1,2,3} with probabilities
  (1/2, 1/4, 1/4), column (3/4, 2/3, 1/3).  Rounds to four routings with
  probabilities 5/12, 5/12, 1/12, 1/12.
* ``demo3-tight`` -- the same demand with column (1, 1/2, 1/4), where every
  prefix bound is tight.  Rounds to the single routing that sends rank
  ``l`` to resource ``l - 1``.
* ``demo5`` -- five ranks with geometric survival 1/2^(ℓ-1), column
  (1/8, 3/8, 7/8, 1/4, 0).  After three stages the state splits into four
  branches weighted 0.4, 0.4, 0.1, 0.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .demand import (
    Arrival,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    Prob,
)


@dataclass(frozen=True)
class BuiltinExample:
    dist: DemandDistribution
    column: tuple[Prob, ...]

    def instance(self) -> Instance:
        """Single-type instance over the example's resources: unit rewards."""
        n = len(self.column)
        return Instance(
            rewards=tuple((1.0,) for _ in range(n)),
            capacities=tuple(1 for _ in range(n)),
            demand=IndepDemandModel(per_type=(self.dist,)),
            arrival=Arrival.ADVERSARIAL,
        )


_DEMO3_DIST = DemandDistribution.from_pmf(
    {1: Fraction(1, 2), 2: Fraction(1, 4), 3: Fraction(1, 4)}
)

EXAMPLES: dict[str, BuiltinExample] = {
    "demo3": BuiltinExample(
        dist=_DEMO3_DIST,
        column=(Fraction(3, 4), Fraction(2, 3), Fraction(1, 3)),
    ),
    "demo3-tight": BuiltinExample(
        dist=_DEMO3_DIST,
        column=(Fraction(1), Fraction(1, 2), Fraction(1, 4)),
    ),
    "demo5": BuiltinExample(
        dist=DemandDistribution.from_pmf(
            {
                1: Fraction(1, 2),
                2: Fraction(1, 4),
                3: Fraction(1, 8),
                4: Fraction(1, 16),
                5: Fraction(1, 16),
            }
        ),
        column=(
            Fraction(1, 8),
            Fraction(3, 8),
            Fraction(7, 8),
            Fraction(1, 4),
            Fraction(0),
        ),
    ),
}


def get_example(key: str) -> BuiltinExample:
    if key not in EXAMPLES:
        known = ", ".join(sorted(EXAMPLES))
        raise KeyError(f"unknown example {key!r}; built-ins: {known}")
    return EXAMPLES[key]
