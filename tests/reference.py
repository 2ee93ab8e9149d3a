"""Plain reference forms of library checks, for the tests to compare against."""

import numpy as np

from demandmatch.demand import RealizedDemand
from demandmatch.linprog import LinearProgram


def is_feasible(lp: LinearProgram, values, tol: float = 1e-9) -> bool:
    """Whether a point satisfies ``x >= 0`` and ``rows @ x <= rhs`` up to ``tol``."""
    x = np.asarray(values, dtype=float)
    return bool(np.all(x >= -tol) and np.all(lp.rows @ x <= lp.rhs + tol))


def iter_orders(d: RealizedDemand):
    """Every distinct interleaving of the realized counts, in lexicographic
    order: the next-permutation step on the sorted multiset, without recursion."""
    order = [j for j, c in enumerate(d.counts) for _ in range(c)]
    while True:
        yield tuple(order)
        k = len(order) - 2  # the last ascent
        while k >= 0 and order[k] >= order[k + 1]:
            k -= 1
        if k < 0:
            return
        swap = len(order) - 1  # the last entry above order[k]
        while order[swap] <= order[k]:
            swap -= 1
        order[k], order[swap] = order[swap], order[k]
        order[k + 1 :] = reversed(order[k + 1 :])
