"""Span tracer for the benchmark's traced pass.

``Tracer.install`` wraps, from outside the package, every public function of
the layer modules plus the few methods in ``METHODS``.  A wrapped function
is replaced in every ``demandmatch`` module that holds it, so calls between
modules (``relaxations.solve_lp`` inside the cutting-plane loop) are traced
as well as the benchmark's own calls.  Each call records one span (name,
start, end, parent) in flat arrays kept in memory; ``dump`` writes them out
when the run ends.  Generator functions get no span (their body runs in the
caller); the tracer counts the items they yield instead.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import warnings
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("linprog", "relaxations", "demand", "rounding", "policies", "oracles")

#: methods traced in addition to the module-level functions
METHODS = {
    "demand": {"DemandDistribution": ("truncated_expectation",)},
    "rounding": {
        "RoundingState": ("advance", "check_invariants"),
        "RoutingDistribution": ("branches",),
    },
}

#: calls whose warnings are counted (the OCRS floor check warns)
WARNINGS_COUNTED = frozenset({"policies.ocrs_plan"})


def _observe_solve(tracer: "Tracer", args, kwargs, result) -> None:
    lp = args[0] if args else kwargs["lp"]
    cells = lp.num_rows * (lp.num_vars + lp.num_rows)
    tracer.maxima["tableau_cells"] = max(tracer.maxima.get("tableau_cells", 0), cells)


def _observe_cutting_plane(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["cut_rounds"] += result.rounds
    tracer.counters["cuts_added"] += len(result.pool)


def _observe_separation(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counters["separation_hits"] += result is not None


def _observe_typeround(tracer: "Tracer", args, kwargs, result) -> None:
    bits = result.support_bound().bit_length() - 1
    tracer.maxima["support_bound_log2"] = max(tracer.maxima.get("support_bound_log2", 0), bits)


def _observe_ocrs(tracer: "Tracer", args, kwargs, result) -> None:
    margin = result.gamma - (1.0 - 1.0 / math.sqrt(result.capacity + 3))
    tracer.minima["ocrs_margin"] = min(tracer.minima.get("ocrs_margin", math.inf), margin)


OBSERVERS = {
    "linprog.solve_lp": _observe_solve,
    "relaxations.build_truncated_lp": _observe_cutting_plane,
    "relaxations.separation_oracle": _observe_separation,
    "rounding.typeround": _observe_typeround,
    "policies.ocrs_plan": _observe_ocrs,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.minima: dict[str, float] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        if inspect.isgeneratorfunction(fn):
            counters = self.counters
            key = qualname + ".items"

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    counters[key] += 1
                    yield item

            return counting

        sid = len(self.names)
        self.names.append(qualname)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        observe = OBSERVERS.get(qualname)
        count_warnings = qualname in WARNINGS_COUNTED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = fn(*args, **kwargs)
                    tracer.counters[qualname + ".warnings"] += len(caught)
                else:
                    result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules["demandmatch." + layer]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in methods:
                    original = cls.__dict__[attr]
                    self._patched.append((cls, attr, original))
                    setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", original))
        package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "demandmatch"]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def dump(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id, parent=parent, start=start, end=end
        )

    def per_name(self) -> dict[str, dict]:
        """Calls, inclusive seconds, self seconds and durations per span name.

        A span's self time is its duration minus the durations of its direct
        children, which never overlap each other in this single-threaded run.
        """
        name_id, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - children
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        total = np.bincount(name_id, weights=dur, minlength=size)
        own = np.bincount(name_id, weights=self_time, minlength=size)
        return {
            name: {"calls": int(calls[k]), "s": float(total[k]), "self_s": float(own[k]), "dur": dur[name_id == k]}
            for k, name in enumerate(self.names)
        }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    spans = tracer.per_name()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "dur": np.zeros(0)}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == layer)

    solve = span("linprog.solve_lp")
    separation = span("relaxations.separation_oracle")
    ocrs = span("policies.ocrs_plan")
    counters, maxima = tracer.counters, tracer.maxima
    metrics = {
        "linprog.solve_calls": (solve["calls"], "count"),
        "linprog.solve_s": (solve["s"], "s"),
        "linprog.solve_ms_p50": (float(np.median(solve["dur"])) * 1e3 if solve["calls"] else 0.0, "ms"),
        "linprog.tableau_cells_max": (maxima.get("tableau_cells", 0), "cells"),
        "linprog.self_s": (layer_self("linprog"), "s"),
        "relaxations.cut_rounds": (int(counters["cut_rounds"]), "count"),
        "relaxations.cuts_added": (int(counters["cuts_added"]), "count"),
        "relaxations.separation_calls": (separation["calls"], "count"),
        "relaxations.separation_s": (separation["s"], "s"),
        "relaxations.separation_hit_ratio": (
            counters["separation_hits"] / separation["calls"] if separation["calls"] else 0.0,
            "ratio",
        ),
        "relaxations.cutting_plane.self_s": (span("relaxations.build_truncated_lp")["self_s"], "s"),
        "relaxations.lp_build_s": (
            sum(span("relaxations." + f)["s"] for f in ("truncated_lp_base", "conditional_lp", "build_fluid_lp")),
            "s",
        ),
        "relaxations.self_s": (layer_self("relaxations"), "s"),
        "demand.truncated_expectation_calls": (span("demand.DemandDistribution.truncated_expectation")["calls"], "count"),
        "demand.truncated_expectation_s": (span("demand.DemandDistribution.truncated_expectation")["s"], "s"),
        "demand.self_s": (layer_self("demand"), "s"),
        "rounding.typeround_calls": (span("rounding.typeround")["calls"], "count"),
        "rounding.typeround_s": (span("rounding.typeround")["s"], "s"),
        "rounding.check_invariants_s": (span("rounding.RoundingState.check_invariants")["s"], "s"),
        "rounding.verify_marginals_s": (span("rounding.verify_marginals")["s"], "s"),
        "rounding.support_bound_log2_max": (maxima.get("support_bound_log2", 0), "bits"),
        "rounding.self_s": (layer_self("rounding"), "s"),
        "policies.self_s": (layer_self("policies"), "s"),
        "policies.ocrs_calls": (ocrs["calls"], "count"),
        "policies.ocrs_s": (ocrs["s"], "s"),
        # 0 when no OCRS plan was made (see policies.ocrs_calls)
        "policies.ocrs_floor_margin_min": (tracer.minima.get("ocrs_margin", 0.0), "gamma"),
        "policies.ocrs_floor_warnings": (int(counters["policies.ocrs_plan.warnings"]), "count"),
        "oracles.offline_optimum_calls": (span("oracles.offline_optimum")["calls"], "count"),
        "oracles.offline_optimum_s": (span("oracles.offline_optimum")["s"], "s"),
        "oracles.support_points": (int(counters["demand.iter_demand_support.items"]), "count"),
        "oracles.orders_evaluated": (span("oracles.threshold_value_for_order")["calls"], "count"),
        "oracles.worst_case_order_s": (span("oracles.worst_case_order")["s"], "s"),
        "oracles.online_dp_s": (span("oracles.optimal_online_dp")["s"], "s"),
        "oracles.horizon_value_s": (span("oracles.horizon_policy_value")["s"], "s"),
        "oracles.self_s": (layer_self("oracles"), "s"),
        "trace.spans": (len(tracer.start), "count"),
    }
    return metrics
