"""Seeded benchmark of demandmatch: planning, exact verification and the
rounding audit, end to end and (with ``--trace 1``) layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload trunc-plan --seed 1 --seconds 24 --trace 0

Workloads (see ``workloads.py`` for the instance sets):

* ``trunc-plan``: ``plan_indep_adv_policy`` on a ladder n = 10, 15, 20 of
  unit-capacity, independent-demand instances with m = 10 types.  The
  cutting-plane loop's cold re-solves dominate; OCRS and the oracles are
  bypassed.
* ``cond-plan``: ``plan_horizon_policy`` on a ladder (T, n, m) = (10, 5, 5),
  (25, 8, 8), (50, 10, 10) plus a long horizon (400, 2, 2) with capacity 16.
  One large dense LP solve per instance; warm starts are bypassed.
* ``exact-verify``: the prophet, adversary and horizon oracle families on
  many small instances: thousands of tiny LPs and the order search.
* ``rounding-audit``: the path of ``verify-invariants`` (n = 1..8): rounding
  with branch tracking and ``check_invariants`` after every stage, then exact
  marginals.  No LP at all.

The load is one process and one thread running the instances back to back
(a closed loop); BLAS and OpenMP are pinned to one thread.  Set-up (imports,
instance generation from the seed, one untimed warm-up instance) is timed
separately.  The timed region then repeats passes over the workload's fixed
instance set for ``--seconds`` seconds, at least one pass; an instance's time
is its fastest pass, and ``wall_s`` is the sum of these.  Every output is
checked against a reference (``checks.py``) outside the timed region; a
failed or raising instance counts in ``failed``.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` half the window runs untraced, then
one pass runs under the span tracer (``tracing.py``) and the JSON holds the
per-layer metrics.  Both write a record with the run's metadata under
``bench/out/``; the traced run also writes its spans there.

Exit status: 0 when every output is correct, 1 when a check failed, 2 when
the program's sources or scipy (the reference solver) are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import util
from pathlib import Path

_STARTED = time.perf_counter()

#: BLAS/OpenMP thread pins, set before numpy is first imported
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
#: set-up (generation plus warm-up) is repeated this many times; the median counts
SETUP_REPEATS = 3
#: share of the window run untraced in a traced run, for ``trace.overhead_s``
TRACED_RUN_UNTRACED_SHARE = 0.5
#: percentile reported only when at least ten instances lie beyond it
P90_MIN_INSTANCES = 100

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail_setup(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_pass(instances, run_fns):
    """One pass over the instance set: wall seconds, per-instance seconds,
    outputs (None where the call raised)."""
    times, outputs = [], []
    started = time.perf_counter()
    for group, inst in instances:
        t0 = time.perf_counter()
        try:
            out = run_fns[group.kind](inst)
        except Exception:  # an instance that raises counts as failed; keep going
            traceback.print_exc(file=sys.stderr)
            out = None
        times.append(time.perf_counter() - t0)
        outputs.append(out)
    return time.perf_counter() - started, times, outputs


def fingerprints(instances, outputs, fingerprint) -> list:
    return [None if o is None else fingerprint(g.kind, o) for (g, _), o in zip(instances, outputs)]


def timed_passes(instances, run_fns, fingerprint, budget: float):
    """Repeat passes while the next one fits in ``budget`` seconds (at least one).

    Keeps the first pass's outputs for checking and each later pass's
    fingerprints for the repeat check."""
    walls, times, first, prints = [], [], None, []
    started = time.perf_counter()
    while True:
        wall, pass_times, outputs = run_pass(instances, run_fns)
        walls.append(wall)
        times.append(pass_times)
        if first is None:
            first = outputs
        prints.append(fingerprints(instances, outputs, fingerprint))
        if time.perf_counter() - started + wall > budget:
            return walls, times, first, prints


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if not (ROOT / "src" / "demandmatch" / "__init__.py").is_file():
        return fail_setup(f"no program sources at {ROOT / 'src' / 'demandmatch'}")
    if util.find_spec("scipy") is None:
        return fail_setup("scipy is required for the reference checks and is not installed")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import demandmatch
    import workloads

    if Path(demandmatch.__file__).resolve().parent != ROOT / "src" / "demandmatch":
        return fail_setup(f"imported demandmatch from {demandmatch.__file__}, not this checkout")
    if args.workload not in workloads.WORKLOADS:
        return fail_setup(f"unknown workload {args.workload!r}; pick one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    import_s = time.perf_counter() - _STARTED

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = workloads.make_instances(workload, args.seed)
        group, inst = workloads.warmup_instance(workload, args.seed)
        workloads.RUN[group.kind](inst)
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    budget = args.seconds * (TRACED_RUN_UNTRACED_SHARE if args.trace else 1.0)
    walls, times, outputs, prints = timed_passes(instances, workloads.RUN, workloads.fingerprint, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_wall, _, traced_outputs = run_pass(instances, workloads.RUN)
        finally:
            tracer.uninstall()
        prints.append(fingerprints(instances, traced_outputs, workloads.fingerprint))

    # correctness: the first pass against the references, later passes
    # against the first pass; scipy is imported only now so that it stays
    # out of the set-up time and the memory peak
    import scipy

    import checks

    problems = {}
    for k, ((group, inst), out) in enumerate(zip(instances, outputs)):
        if out is None:
            problems[k] = ["raised"]
            continue
        try:
            found = checks.CHECK[group.kind](inst, out)
        except Exception as exc:  # a reference that cannot be computed fails the instance
            found = [f"check raised {exc!r}"]
        if found:
            problems[k] = found
    failed = 0
    for pass_prints in prints:
        for k, fp in enumerate(pass_prints):
            failed += k in problems or fp is None or fp != prints[0][k]
    attempted = len(prints) * len(instances)
    for k, found in sorted(problems.items())[:10]:
        print(f"# FAILED {instances[k][0].label} #{k}: {'; '.join(found)}")

    # Each instance's fastest pass.  The machine's speed swings by 10-30% for
    # seconds to minutes at a time; a slowdown only adds time, so the minimum
    # over passes spread across the window is the estimate it moves least.
    # ``wall_s`` is a pass made of these.
    per_instance = [min(pass_times[k] for pass_times in times) for k in range(len(instances))]
    labels = [g.label for g in workload.groups]
    counts = {label: sum(1 for g, _ in instances if g.label == label) for label in labels}
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "load": "one process, one thread, instances back to back (closed loop)",
        "instances": counts,
        "passes": len(walls),
        "setup_repeats": SETUP_REPEATS,
    }
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(per_instance), "s"),
        "instance_s_p50": (statistics.median(per_instance), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = {
        "failed_frac": (failed / attempted, "ratio"),
        "instance_samples": (len(per_instance), "count"),
    }
    if len(per_instance) >= P90_MIN_INSTANCES:
        extra["instance_s_p90"] = (float(np.quantile(per_instance, 0.9)), "s")
    # seconds per rung (per family on exact-verify), for the scaling curves
    ladder = {
        f"ladder.{label}_s": (sum(t for (g, _), t in zip(instances, per_instance) if g.label == label), "s")
        for label in labels
    }
    extra.update(ladder)

    if tracer is not None:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - statistics.median(walls), "s")
        for label in [g.label for w in workloads.WORKLOADS.values() for g in w.groups]:
            metrics[f"ladder.{label}_s"] = ladder.get(f"ladder.{label}_s", (0.0, "s"))
    else:
        metrics = end_to_end

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(OUT_DIR / f"{stem}-spans.npz")
    extra["run_s"] = (time.perf_counter() - _STARTED, "s")
    record = {
        "meta": meta,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in {**end_to_end, **extra}.items()},
        "pass_walls_s": walls,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("# meta " + json.dumps(meta))
    shown = {**metrics, **extra} if tracer is not None else {**end_to_end, **extra}
    for name, (value, unit) in shown.items():
        print(f"# {name} = {value:.6g} {unit}")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
