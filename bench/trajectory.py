"""Run the benchmark over several seeds and summarize it as one trajectory point.

For every workload and end-to-end metric the summary holds the values of
the untraced runs (one per seed), their median, quartiles and spread (the
distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound.  With ``--trace-seed`` it also holds the per-layer metrics of one
traced run per workload, each timed layer metric as a share of the traced
pass, and each rung's (family's) share of the untraced pass.  Runs are made
one after another, from the root of the checkout, with the command and run
length in ``BENCHMARK.json``.

    python3 bench/trajectory.py --label <commit> --seeds 1-10 --trace-seed 1 --out bench/BENCH_seed.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run([*command, *args], cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="what was measured, e.g. the commit")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [sys.executable, *bench["command"][1:]]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"label": args.label, "run_seconds": seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for name in names:
        runs = [run_once(command, name, seed, seconds, 0) for seed in summary["seeds"]]
        entry = {
            "meta": runs[0]["record"]["meta"],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "end_to_end": {},
            "extra": {},
        }
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            entry["end_to_end"][metric] = {"bound": bound, **summarize(values)}
            print(f"{name:15s} {metric:15s} median {entry['end_to_end'][metric]['median']:.6g} "
                  f"spread {entry['end_to_end'][metric]['spread']:.3f} (bound {bound})", flush=True)
        for key in runs[0]["record"]["extra"]:
            if key not in bounds:
                entry["extra"][key] = statistics.median(r["record"]["extra"][key]["value"] for r in runs)
        if args.trace_seed is not None:
            traced = run_once(command, name, args.trace_seed, seconds, 1)["result"]
            layers = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer"] = layers
            wall = layers["trace.wall_s"]
            timed = {k: v for k, v in layers.items() if traced["metrics"][k]["unit"] == "s"}
            entry["share_of_traced_pass"] = {
                k: v / wall for k, v in timed.items() if not k.startswith(("trace.", "ladder."))
            }
            rungs = {k: v for k, v in timed.items() if k.startswith("ladder.") and v > 0}
            entry["share_of_pass_by_rung"] = {k: v / sum(rungs.values()) for k, v in rungs.items()}
        summary["workloads"][name] = entry
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
