"""JSON instance files.

Schema (all probabilities may be numbers, decimal strings like ``"0.25"``,
or fraction strings like ``"1/4"``; strings are parsed exactly)::

    {
      "rewards":    [[1.0, 2.0], [3.0, 0.0]],      # n rows of m entries
      "capacities": [1, 1],
      "arrival":    "adversarial" | "random",
      "demand": {
        "kind": "indep",
        "distributions": [{"0": "1/2", "2": "1/2"}, ...]   # one pmf per type
      }
      # or {"kind": "correl", "total": {pmf}, "type_probs": [...]}
      # or {"kind": "horizon", "total": {pmf}, "probs": [[...], ...]}
    }

Violations are rejected with the JSON path of the offending field; syntax
errors keep the decoder's line/column position.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .demand import (
    Arrival,
    CorrelDemandModel,
    DemandDistribution,
    IndepDemandModel,
    Instance,
    Prob,
    StochasticHorizonModel,
)


class InstanceFormatError(ValueError):
    """A malformed instance file, with the JSON path that went wrong."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _parse_prob(raw: Any, path: str) -> Prob:
    if isinstance(raw, bool):
        raise InstanceFormatError(path, f"expected a probability, got {raw!r}")
    if isinstance(raw, (int, float)):
        return raw
    if isinstance(raw, str):
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceFormatError(path, f"cannot parse probability {raw!r}: {exc}") from None
    raise InstanceFormatError(path, f"expected a probability, got {type(raw).__name__}")


def _parse_pmf(raw: Any, path: str) -> DemandDistribution:
    if not isinstance(raw, dict) or not raw:
        raise InstanceFormatError(path, "expected a nonempty {value: probability} object")
    pmf: dict[int, Prob] = {}
    for key, value in raw.items():
        try:
            v = int(key)
        except ValueError:
            raise InstanceFormatError(path, f"support value {key!r} is not an integer") from None
        if v < 0:
            raise InstanceFormatError(path, f"support value {v} is negative")
        if v in pmf:
            raise InstanceFormatError(path, f"support value {key!r} repeats the value {v}")
        pmf[v] = _parse_prob(value, f"{path}.{key}")
    try:
        return DemandDistribution.from_pmf(pmf)
    except ValueError as exc:
        raise InstanceFormatError(path, str(exc)) from None


def parse_instance(data: Any) -> Instance:
    """Validate a decoded JSON object into an Instance."""
    if not isinstance(data, dict):
        raise InstanceFormatError("$", "top level must be an object")
    for field in ("rewards", "capacities", "demand"):
        if field not in data:
            raise InstanceFormatError("$", f"missing required field {field!r}")

    rewards_raw = data["rewards"]
    if not isinstance(rewards_raw, list) or not rewards_raw:
        raise InstanceFormatError("$.rewards", "expected a nonempty list of rows")
    rewards = []
    for i, row in enumerate(rewards_raw):
        if not isinstance(row, list) or not row:
            raise InstanceFormatError(f"$.rewards[{i}]", "expected a nonempty list")
        out = []
        for j, r in enumerate(row):
            if not isinstance(r, (int, float)) or isinstance(r, bool) or not 0 <= r < math.inf:
                raise InstanceFormatError(
                    f"$.rewards[{i}][{j}]", f"rewards are finite nonnegative numbers, got {r!r}"
                )
            out.append(float(r))
        rewards.append(tuple(out))

    caps_raw = data["capacities"]
    if not isinstance(caps_raw, list):
        raise InstanceFormatError("$.capacities", "expected a list")
    caps = []
    for i, k in enumerate(caps_raw):
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise InstanceFormatError(
                f"$.capacities[{i}]", f"capacities are positive integers, got {k!r}"
            )
        caps.append(k)

    arrival_raw = data.get("arrival", "adversarial")
    try:
        arrival = Arrival(arrival_raw)
    except ValueError:
        raise InstanceFormatError(
            "$.arrival", f"expected 'adversarial' or 'random', got {arrival_raw!r}"
        ) from None

    demand_raw = data["demand"]
    if not isinstance(demand_raw, dict):
        raise InstanceFormatError("$.demand", "expected an object")
    kind = demand_raw.get("kind")
    if kind == "indep":
        dists_raw = demand_raw.get("distributions")
        if not isinstance(dists_raw, list) or not dists_raw:
            raise InstanceFormatError(
                "$.demand.distributions", "expected a nonempty list of pmfs"
            )
        dists = tuple(
            _parse_pmf(p, f"$.demand.distributions[{j}]") for j, p in enumerate(dists_raw)
        )
        demand = IndepDemandModel(per_type=dists)
    elif kind == "correl":
        total = _parse_pmf(demand_raw.get("total"), "$.demand.total")
        probs_raw = demand_raw.get("type_probs")
        if not isinstance(probs_raw, list) or not probs_raw:
            raise InstanceFormatError("$.demand.type_probs", "expected a nonempty list")
        probs = tuple(
            _parse_prob(p, f"$.demand.type_probs[{j}]") for j, p in enumerate(probs_raw)
        )
        try:
            demand = CorrelDemandModel(total=total, type_probs=probs)
        except ValueError as exc:
            raise InstanceFormatError("$.demand.type_probs", str(exc)) from None
    elif kind == "horizon":
        total = _parse_pmf(demand_raw.get("total"), "$.demand.total")
        rows_raw = demand_raw.get("probs")
        if not isinstance(rows_raw, list) or not rows_raw:
            raise InstanceFormatError("$.demand.probs", "expected a nonempty list of rows")
        rows = []
        for t, row in enumerate(rows_raw):
            if not isinstance(row, list) or not row:
                raise InstanceFormatError(f"$.demand.probs[{t}]", "expected a nonempty list")
            rows.append(
                tuple(_parse_prob(p, f"$.demand.probs[{t}][{j}]") for j, p in enumerate(row))
            )
        try:
            demand = StochasticHorizonModel(total=total, probs=tuple(rows))
        except ValueError as exc:
            raise InstanceFormatError("$.demand.probs", str(exc)) from None
    else:
        raise InstanceFormatError(
            "$.demand.kind", f"expected 'indep', 'correl', or 'horizon', got {kind!r}"
        )

    try:
        return Instance(
            rewards=tuple(rewards), capacities=tuple(caps), demand=demand, arrival=arrival
        )
    except ValueError as exc:
        raise InstanceFormatError("$", str(exc)) from None


def load_instance(source: Union[str, Path]) -> Instance:
    """Load an instance from a JSON file path."""
    return loads_instance(Path(source).read_text())


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise InstanceFormatError("$", f"the object with keys {sorted(obj)} repeats one of them")
    return obj


def loads_instance(text: str) -> Instance:
    """Load an instance from a JSON string."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"line {exc.lineno}, column {exc.colno}", exc.msg
        ) from None
    return parse_instance(data)
