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

import numpy as np

from . import acceptance
from .builtin import EXAMPLES, get_example
from .demand import Instance, trial_rng
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
from .linprog import format_tableau, solution_to_csv, solve_lp
from .policies import ocrs_plan, plan_indep_adv_policy
from .relaxations import (
    UnsupportedDemandModel,
    build_fluid_lp,
    build_truncated_lp,
    conditional_lp,
    horizon_model_of,
)
from .rounding import RoundingState, typeround, verify_marginals

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
    if args.lp == "fluid":
        lp = build_fluid_lp(inst)
        solution = solve_lp(lp)
    elif args.lp == "trunc":
        result = build_truncated_lp(inst)
        lp, solution = result.lp, result.solution
    else:
        model = horizon_model_of(inst)
        lp = conditional_lp(model, inst)
        solution = solve_lp(lp)
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
        plan = plan_indep_adv_policy(inst)
        j = args.type
        if not 0 <= j < plan.m:
            raise ValueError(f"--type {j} out of range for {plan.m} types")
        column = tuple(plan.x[i][j] for i in range(plan.n))
        dist = inst.demand.per_type[j].to_float()  # type: ignore[union-attr]
    else:
        raise ValueError("pick one of --example or --instance")
    order = None
    if args.order:
        order = tuple(int(tok) for tok in args.order.split(","))
    rd = typeround(column, dist, order=order)
    state = RoundingState(dist, len(column), order=order, track_branches=True, exact=rd.exact)
    for idx in range(len(column)):
        state.advance(column[state.order[state.stage]])
    problems = state.check_invariants()
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
    if args.check == ["all"] or args.check == []:
        names = None
    else:
        names = args.check
    results = acceptance.run_acceptance(names, echo=lambda line: print(line))
    return 0 if all(r.passed for r in results) else CHECK_FAILED


def _cmd_verify_invariants(args: argparse.Namespace) -> int:
    seed = args.seed
    failures: list[str] = []

    def check(label: str, ok: bool, detail: str = "") -> None:
        mark = "PASS" if ok else "FAIL"
        print(f"[{mark}] {label}" + (f" {detail}" if detail else ""))
        if not ok:
            failures.append(label)

    for result in (
        acceptance.check_rounding_properties(count=args.samples, seed=seed),
        acceptance.check_lp_ordering(50, seed + 1),
        acceptance.check_online_lp_ordering(50, seed + 2),
        acceptance.check_oracle_equivalence(50, seed + 3),
    ):
        check(result.description, result.passed, result.detail)

    # acceptance schedules keep every step at exactly gamma * rate
    bad = ""
    for trial in range(50):
        rng = trial_rng(seed + 4, trial)
        k = int(rng.integers(1, 5))
        steps = int(rng.integers(1, 9))
        rates = rng.uniform(0.0, 1.0, size=steps)
        scale = rng.uniform(0.3, 1.0) * k / max(rates.sum(), 1e-9)
        rates = np.minimum(rates * min(scale, 1.0), 1.0)
        plan = ocrs_plan(rates.tolist(), k)
        for t, y in enumerate(plan.rates):
            got = y * plan.availability[t] * plan.accept_probs[t]
            if abs(got - plan.gamma * y) > 1e-9:
                bad = f"trial {trial} step {t}: {got} vs {plan.gamma * y}"
                break
        if bad:
            break
    check("acceptance schedule holds gamma * rate per step (50 schedules)", not bad, bad)

    return 0 if not failures else CHECK_FAILED


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
    p_solve.add_argument("--lp", choices=("fluid", "trunc", "cond"), default="trunc")
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
