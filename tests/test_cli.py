"""Command-line behavior: golden output, determinism, exit codes."""

import json

import pytest

from demandmatch.cli import build_parser, main


class TestRound:
    def test_worked_example_table(self, capsys):
        assert main(["round", "--example", "demo3"]) == 0
        out = capsys.readouterr().out
        assert "(1, 2, 3)  5/12" in out
        assert "(2, 1, 3)  5/12" in out
        assert "(1, 3, 2)  1/12" in out
        assert "(3, 1, 2)  1/12" in out
        assert "achieved marginals: (3/4, 2/3, 1/3)" in out
        assert "invariants: all hold" in out

    def test_explicit_order_flag(self, capsys):
        assert main(["round", "--example", "demo3", "--order", "2,1,0"]) == 0
        out = capsys.readouterr().out
        assert "achieved marginals: (3/4, 2/3, 1/3)" in out

    def test_instance_column(self, tmp_path, capsys):
        doc = {
            "rewards": [[1.0], [1.0], [1.0]],
            "capacities": [1, 1, 1],
            "demand": {
                "kind": "indep",
                "distributions": [{"1": 0.5, "2": 0.25, "3": 0.25}],
            },
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        assert main(["round", "--instance", str(path), "--type", "0"]) == 0
        assert "invariants: all hold" in capsys.readouterr().out


class TestSolve:
    def test_truncated_value_of_single_type_instance(self, capsys):
        assert main(["solve", "--example", "demo3", "--lp", "trunc"]) == 0
        out = capsys.readouterr().out
        assert "trunc LP value: 1.750000" in out
        assert "x[0,0],1.0" in out

    def test_fluid_value_with_tableau(self, capsys):
        assert main(
            ["solve", "--generator", "fluid_gap_single", "--param", "eps=1/4",
             "--lp", "fluid", "--dump-lp"]
        ) == 0
        out = capsys.readouterr().out
        assert "fluid LP value: 1.000000" in out
        assert "subject to" in out

    def test_conditional_value(self, capsys):
        assert main(
            ["solve", "--generator", "rare_long_horizon", "--param", "N=5", "--lp", "cond"]
        ) == 0
        assert "cond LP value: 1.992000" in capsys.readouterr().out


#: ``solve --dump-lp`` output: value, status, tableau with variable names, CSV
DUMP_DEMO3_TRUNC = """\
trunc LP value: 1.750000
status: optimal
max 1*x[0,0] + 1*x[1,0] + 1*x[2,0]
subject to
  1*x[0,0] <= 1
  1*x[1,0] <= 1
  1*x[2,0] <= 1
  1*x[0,0] + 1*x[1,0] + 1*x[2,0] <= 1.75
  1*x[0,0] + 1*x[1,0] <= 1.5
  x[0,0], x[1,0], x[2,0] >= 0
variable,value
x[0,0],1.0
x[1,0],0.5
x[2,0],0.25
"""

DUMP_RARE_LONG_HORIZON_COND = """\
cond LP value: 1.875000
status: optimal
max 1*y[1,0,0] + 4*y[1,0,1] + 0.5*y[2,0,0] + 2*y[2,0,1] + 0.5*y[3,0,0] + 2*y[3,0,1] + 0.5*y[4,0,0] + 2*y[4,0,1] + 0.5*y[5,0,0] + 2*y[5,0,1]
subject to
  1*y[1,0,0] + 1*y[1,0,1] + 1*y[2,0,0] + 1*y[2,0,1] + 1*y[3,0,0] + 1*y[3,0,1] + 1*y[4,0,0] + 1*y[4,0,1] + 1*y[5,0,0] + 1*y[5,0,1] <= 1
  1*y[1,0,0] <= 0.875
  1*y[1,0,1] <= 0.125
  1*y[2,0,0] <= 0.875
  1*y[2,0,1] <= 0.125
  1*y[3,0,0] <= 0.875
  1*y[3,0,1] <= 0.125
  1*y[4,0,0] <= 0.875
  1*y[4,0,1] <= 0.125
  1*y[5,0,0] <= 0.875
  1*y[5,0,1] <= 0.125
  y[1,0,0], y[1,0,1], y[2,0,0], y[2,0,1], y[3,0,0], y[3,0,1], y[4,0,0], y[4,0,1], y[5,0,0], y[5,0,1] >= 0
variable,value
y[1,0,0],0.375
y[1,0,1],0.125
y[2,0,0],0.0
y[2,0,1],0.125
y[3,0,0],0.0
y[3,0,1],0.125
y[4,0,0],0.0
y[4,0,1],0.125
y[5,0,0],0.0
y[5,0,1],0.125
"""

DUMP_TWO_STAGE_FLUID = """\
fluid LP value: 3.800000
status: optimal
max 1*x[0,0] + 10*x[0,1]
subject to
  1*x[0,0] + 1*x[0,1] <= 2
  1*x[0,0] <= 2
  1*x[0,1] <= 0.2
  x[0,0], x[0,1] >= 0
variable,value
x[0,0],1.8
x[0,1],0.19999999999999996
"""


class TestSolveDump:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--example", "demo3", "--lp", "trunc"], DUMP_DEMO3_TRUNC),
            (["--generator", "rare_long_horizon", "--param", "N=2", "--lp", "cond"],
             DUMP_RARE_LONG_HORIZON_COND),
            (["--generator", "two_stage_reward", "--param", "eps=0.1", "--param", "k1=2",
              "--lp", "fluid"], DUMP_TWO_STAGE_FLUID),
        ],
        ids=["demo3-trunc", "rare-long-horizon-cond", "two-stage-fluid"],
    )
    def test_output_is_pinned(self, argv, expected, capsys):
        assert main(["solve", *argv, "--dump-lp"]) == 0
        assert capsys.readouterr().out == expected


class TestSimulate:
    def test_exact_ratio_row(self, capsys):
        assert main(
            ["simulate", "--generator", "fluid_gap_single", "--param", "eps=1/4",
             "--policy", "offline", "--benchmark", "fluid"]
        ) == 0
        out = capsys.readouterr().out
        assert "0.250000" in out
        assert out.splitlines()[0].startswith("instance_id,")

    def test_deterministic_given_seed(self, capsys):
        argv = [
            "simulate", "--generator", "two_stage_reward", "--param", "eps=0.2",
            "--param", "k1=1", "--policy", "threshold", "--benchmark", "trunc",
            "--mc", "--trials", "500", "--seed", "3",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_output_file(self, tmp_path):
        out = tmp_path / "row.csv"
        assert main(
            ["simulate", "--generator", "fluid_gap_single", "--param", "eps=0.5",
             "--policy", "offline", "--benchmark", "fluid", "--output", str(out)]
        ) == 0
        assert out.read_text().count("\n") == 2


class TestReproduce:
    def test_single_check_passes(self, capsys):
        assert main(["reproduce", "fluid-gap"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] fluid-gap" in out

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["reproduce", "nonsense"]) == 2


class TestVerifyInvariants:
    def test_small_sweep_passes(self, capsys):
        assert main(["verify-invariants", "--seed", "5", "--samples", "25"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 5
        assert "[FAIL]" not in out


class TestUsageErrors:
    def test_unknown_example(self, capsys):
        assert main(["round", "--example", "missing"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_source(self, capsys):
        assert main(["solve", "--lp", "fluid"]) == 2

    def test_conflicting_sources(self, capsys):
        assert main(
            ["solve", "--example", "demo3", "--generator", "fluid_gap_single"]
        ) == 2

    def test_bad_param_syntax(self, capsys):
        assert main(
            ["simulate", "--generator", "fluid_gap_single", "--param", "eps",
             "--policy", "offline", "--benchmark", "fluid"]
        ) == 2

    def test_missing_file(self, capsys):
        assert main(["solve", "--instance", "/nonexistent.json"]) == 2

    def test_fluid_on_horizon_instance(self, capsys):
        assert main(
            ["solve", "--generator", "escalating_rewards", "--param", "T=3",
             "--param", "eps=0.1", "--lp", "fluid"]
        ) == 2


class TestSeedEnvironment:
    def test_environment_sets_default_seed(self, monkeypatch):
        monkeypatch.setenv("DEMANDMATCH_SEED", "12")
        assert build_parser().parse_args(["verify-invariants"]).seed == 12
        assert build_parser().parse_args(["verify-invariants", "--seed", "3"]).seed == 3

    def test_invalid_environment_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("DEMANDMATCH_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["verify-invariants"])
        assert exc.value.code == 2
        assert "'abc'" in capsys.readouterr().err
