"""Plain reference forms of library checks, for the tests to compare against."""

import numpy as np

from demandmatch.demand import RealizedDemand
from demandmatch.linprog import LinearProgram
from demandmatch.policies import OCRS_TOL, OcrsPlan, _accept_step


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


def _schedule_or_none(rates, k, gamma):
    """Accept probabilities and availabilities at rate ``gamma``, or None
    as soon as a step needs an accept probability above one."""
    counts = [1.0] + [0.0] * k
    cs, avail = [], []
    for y in rates:
        available = 1.0 - counts[k]
        avail.append(available)
        if y > 0.0:
            if available <= 0.0:
                if gamma > 0.0:
                    return None
                c = 0.0
            else:
                c = gamma / available
            if c > 1.0 + 1e-12:
                return None
            c = min(c, 1.0)
        else:
            c = min(1.0, gamma / available) if available > 0.0 else 0.0
        cs.append(c)
        counts = _accept_step(counts, y * c)
    return cs, avail


def ocrs_bisection(rates, k) -> OcrsPlan:
    """``ocrs_plan`` by bisection on ``[0, 1]`` until the bracket is at most
    ``OCRS_TOL / 4`` wide (depth 32), with no floor warning."""
    clean = [max(0.0, float(y)) for y in rates]
    lo, hi = 0.0, 1.0
    schedule = _schedule_or_none(clean, k, 1.0)
    if schedule is not None:
        lo = 1.0
    else:
        while hi - lo > OCRS_TOL / 4.0:
            mid = (lo + hi) / 2.0
            found = _schedule_or_none(clean, k, mid)
            if found is not None:
                lo, schedule = mid, found
            else:
                hi = mid
    cs, avail = schedule or _schedule_or_none(clean, k, 0.0)
    return OcrsPlan(rates=tuple(clean), capacity=k, gamma=lo, accept_probs=tuple(cs), availability=tuple(avail))
