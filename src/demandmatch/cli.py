"""Command-line front end.

Subcommands:

* ``solve`` -- build one of the three relaxations for an instance and print
  its value plus a CSV of the solution (optionally the full tableau).
* ``round`` -- run the lossless rounding on a built-in example or on a
  column taken from the tightened LP of an instance; print the routing
  table, the invariant report, and the achieved marginals.
* ``simulate`` -- run a ratio experiment (policy or oracle vs benchmark).
* ``reproduce`` -- re-run named checks from the pinned verification suite.
* ``verify-invariants`` -- seeded randomized property sweeps.

Exit codes: 0 success, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import acceptance
from .builtin import EXAMPLES, get_example
from .demand import Instance, UnsupportedDemandModel
from .experiments import (
    BENCHMARKS,
    GENERATORS,
    POLICIES,
    ExperimentConfig,
    gen_counterexample,
    report,
    run_experiment,
)
from .io import InstanceFormatError, load_instance
from .linprog import format_tableau, solution_to_csv
from .policies import _solve_threshold_lp
from .relaxations import RELAXATIONS, solve_relaxation
from .rounding import RoundingState, verify_marginals

USAGE_ERROR = 2
CHECK_FAILED = 1


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _parse_params(pairs: Sequence[str]) -> dict:
    params = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = Fraction(raw) if "/" in raw else float(raw)
            except ValueError:
                raise ValueError(f"cannot parse parameter value {raw!r}") from None
        params[key] = value
    return params


def _load_target(args: argparse.Namespace) -> Instance:
    sources = [s for s in ("instance", "example", "generator") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ValueError("pick exactly one of --instance, --example, --generator")
    if args.instance:
        return load_instance(args.instance)
    if args.example:
        return get_example(args.example).instance()
    return gen_counterexample(args.generator, _parse_params(args.param or []))


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _load_target(args)
    lp, solution = solve_relaxation(args.lp, inst)
    n, m = inst.n, inst.m
    if args.lp == "cond":
        steps = range(1, lp.num_vars // (n * m) + 1)
        names = [f"y[{t},{i},{j}]" for t in steps for i in range(n) for j in range(m)]
    else:
        names = [f"x[{i},{j}]" for i in range(n) for j in range(m)]
    lines = [f"{args.lp} LP value: {solution.objective_value:.6f}", f"status: {solution.status.value}"]
    if args.dump_lp:
        lines.append(format_tableau(lp, names))
    lines.append(solution_to_csv(names, solution).rstrip("\n"))
    _emit("\n".join(lines), args.output)
    return 0


def _format_prob(p, exact: bool) -> str:
    if exact:
        return str(Fraction(p))
    return f"{float(p):.9f}"


def _cmd_round(args: argparse.Namespace) -> int:
    if args.example:
        example = get_example(args.example)
        dist = example.dist if not args.float else example.dist.to_float()
        column = example.column if not args.float else tuple(float(x) for x in example.column)
    elif args.instance:
        inst = load_instance(args.instance)
        unit, _, x = _solve_threshold_lp(inst)
        j = args.type
        if not 0 <= j < unit.m:
            raise ValueError(f"--type {j} out of range for {unit.m} types")
        column = tuple(x[i][j] for i in range(unit.n))
        dist = inst.demand.marginal(j).to_float()
    else:
        raise ValueError("pick one of --example or --instance")
    order = None
    if args.order:
        order = tuple(int(tok) for tok in args.order.split(","))
    state = RoundingState(dist, len(column), order=order, track_branches=True)
    for idx in range(len(column)):
        state.advance(column[state.order[state.stage]])
    problems = state.check_invariants()
    rd = state.distribution()
    lines = [f"column: ({', '.join(_format_prob(x, rd.exact) for x in column)})"]
    lines.append("routing (rank -> resource, 1-based; '-' idle) | probability")
    for routing, prob in rd.branches():
        cells = "(" + ", ".join("-" if r is None else str(r + 1) for r in routing.assignment) + ")"
        lines.append(f"  {cells}  {_format_prob(prob, rd.exact)}")
    marginals = verify_marginals(rd, column, dist)
    lines.append(
        "achieved marginals: ("
        + ", ".join(_format_prob(a, rd.exact) for a in marginals.achieved)
        + f"), max error {marginals.max_abs_error:.3e}"
    )
    lines.append("invariants: " + ("all hold" if not problems else "; ".join(problems)))
    _emit("\n".join(lines), args.output)
    return 0 if not problems else CHECK_FAILED


def _cmd_simulate(args: argparse.Namespace) -> int:
    inst = _load_target(args)
    tag = args.example or args.generator or args.instance
    cfg = ExperimentConfig(
        instance_id=str(tag),
        policy=args.policy,
        benchmark=args.benchmark,
        instance=inst,
        generator=args.generator or "file",
        params=_parse_params(args.param or []),
        trials=args.trials,
        seed=args.seed,
        exact=not args.mc,
    )
    estimate = run_experiment(cfg)
    csv_text, md_text = report([estimate])
    _emit(md_text if args.markdown else csv_text, args.output)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    names = None if args.check == ["all"] else args.check
    passed = True
    for result in acceptance.run_acceptance(names):
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.key} ({result.seconds:.1f}s) {result.detail}")
        passed = passed and result.passed
    return 0 if passed else CHECK_FAILED


#: the randomized criteria ``verify-invariants`` runs: (key, count, seed
#: offset from ``--seed``); a count of ``None`` takes ``--samples``
SWEEPS = (
    ("rounding-properties", None, 0),
    ("lp-ordering", 50, 1),
    ("online-lp-ordering", 50, 2),
    ("oracle-equivalence", 50, 3),
    ("ocrs-schedule", 50, 4),
)


def _cmd_verify_invariants(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    passed = True
    for key, count, offset in SWEEPS:
        result = acceptance.CRITERIA[key](count or args.samples, args.seed + offset)
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.description} {result.detail}")
        passed = passed and result.passed
    return 0 if passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandmatch",
        description="LP relaxations, lossless rounding, and guaranteed online "
        "matching policies under nonparametric demand",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sources(p: argparse.ArgumentParser) -> None:
        p.add_argument("--instance", help="path to a JSON instance file")
        p.add_argument("--example", help=f"built-in example ({', '.join(sorted(EXAMPLES))})")
        p.add_argument("--generator", help=f"instance family ({', '.join(GENERATORS)})")
        p.add_argument("--param", action="append", help="family parameter key=value", default=None)

    p_solve = sub.add_parser("solve", help="build and solve one relaxation")
    add_sources(p_solve)
    p_solve.add_argument("--lp", choices=RELAXATIONS, default="trunc")
    p_solve.add_argument("--dump-lp", action="store_true", help="print the constraint rows too")
    p_solve.add_argument("--output", help="write to a file instead of stdout")
    p_solve.set_defaults(func=_cmd_solve)

    p_round = sub.add_parser("round", help="round one column into routings")
    p_round.add_argument("--example", help=f"built-in example ({', '.join(sorted(EXAMPLES))})")
    p_round.add_argument("--instance", help="JSON instance; rounds its tightened-LP column")
    p_round.add_argument("--type", type=int, default=0, help="type index for --instance")
    p_round.add_argument("--order", help="processing order, comma-separated resource indices")
    p_round.add_argument("--float", action="store_true", help="force float arithmetic")
    p_round.add_argument("--output", help="write to a file instead of stdout")
    p_round.set_defaults(func=_cmd_round)

    p_sim = sub.add_parser("simulate", help="run one ratio experiment")
    add_sources(p_sim)
    p_sim.add_argument("--policy", choices=POLICIES, required=True)
    p_sim.add_argument("--benchmark", choices=BENCHMARKS, required=True)
    p_sim.add_argument("--trials", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, default=os.environ.get("DEMANDMATCH_SEED", "0"))
    p_sim.add_argument("--mc", action="store_true", help="Monte-Carlo numerator instead of exact")
    p_sim.add_argument("--markdown", action="store_true", help="Markdown table instead of CSV")
    p_sim.add_argument("--output", help="write to a file instead of stdout")
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="re-run pinned verification checks")
    p_rep.add_argument(
        "check",
        nargs="*",
        default=[],
        help=f"check names or 'all' (known: {', '.join(acceptance.CRITERIA)})",
    )
    p_rep.set_defaults(func=_cmd_reproduce)

    p_ver = sub.add_parser("verify-invariants", help="seeded randomized property sweeps")
    p_ver.add_argument("--seed", type=int, default=os.environ.get("DEMANDMATCH_SEED", "0"))
    p_ver.add_argument("--samples", type=int, default=200, help="rounding columns to draw")
    p_ver.set_defaults(func=_cmd_verify_invariants)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        InstanceFormatError,
        UnsupportedDemandModel,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
