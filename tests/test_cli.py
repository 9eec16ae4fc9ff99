import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

import lqgduet
from lqgduet.bounds_lower import LowerBoundEvaluator, lower_weighted_cost
from lqgduet.bounds_upper import optimize_upper
from lqgduet.cli import CSV_COLUMNS, UPPER_COLUMNS, cli
from lqgduet.core import ProblemParams

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "simulate_golden.csv")


def _invoke(args, env=None):
    return CliRunner().invoke(cli, args, env=env, catch_exceptions=False)


def _run_main(args):
    """Run ``python -m lqgduet ARGS`` in a child process.

    This goes through ``main()``, which maps errors to the documented exit
    codes (CliRunner calls the click group directly and skips it).  The
    child gets the directory holding the imported ``lqgduet`` package at the
    front of its PYTHONPATH, so it runs the code under test from any
    working directory, installed or not.
    """
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        lqgduet.__file__)))
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_root + (os.pathsep + inherited if inherited else "")
    return subprocess.run([sys.executable, "-m", "lqgduet", *args],
                          capture_output=True, text=True, env=env)


def _assert_numeric_cells(text, columns=CSV_COLUMNS):
    """Every data row has one cell per column, and every cell outside the
    strategy column is empty or parses as a float.  Returns the data rows
    as column -> cell dicts."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == ",".join(columns)
    assert len(lines) > 1
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == len(columns), ln
        for col, cell in zip(columns, cells):
            if col != "strategy" and cell:
                float(cell)
        rows.append(dict(zip(columns, cells)))
    return rows


def test_simulate_fixed_seed_golden_file():
    res = _invoke(["simulate", "--a", "2.5", "--sv1sq", "1", "--sv2sq", "1",
                   "--strategy", "linbb1", "--horizon", "20000",
                   "--trials", "8", "--seed", "0"])
    assert res.exit_code == 0
    with open(GOLDEN_PATH) as f:
        assert res.output == f.read()


def test_simulate_reports_closed_form_level():
    res = _invoke(["simulate", "--a", "2.5", "--sv1sq", "1", "--sv2sq", "1",
                   "--strategy", "linbb1", "--horizon", "30000",
                   "--trials", "8"])
    assert res.exit_code == 0
    row = res.output.strip().splitlines()[-1].split(",")
    cols = dict(zip(CSV_COLUMNS, row))
    assert abs(float(cols["D"]) - 7.25) / 7.25 < 0.02


def test_simulate_json_strategy():
    res = _invoke(["simulate", "--a", "4", "--sv2sq", "16",
                   "--strategy", '{"type": "sig", "s": 1, "d": 0.5}',
                   "--horizon", "5000", "--trials", "2"])
    assert res.exit_code == 0
    assert '"type": "sig"' in res.output


def test_simulate_missing_a_is_config_error():
    out = _run_main(["simulate", "--sv1sq", "1"])
    assert out.returncode == 1, out.stderr
    # exit code 1 is also what a failed import gives; check it is the usage
    # error for the missing option
    assert "Missing option '--a'" in out.stderr, out.stderr


def test_simulate_unstable_exit_code():
    out = _run_main(["simulate", "--a", "2.0", "--strategy", "zero",
                     "--horizon", "3000", "--trials", "2"])
    assert out.returncode == 2, out.stderr
    # exit code 2 is also Python's own usage-error code; check the run
    # happened and its CSV row was written
    lines = out.stdout.strip().splitlines()
    assert lines[-2] == ",".join(CSV_COLUMNS), out.stderr
    row = dict(zip(CSV_COLUMNS, lines[-1].split(",")))
    assert row["a"] == "2.0" and row["strategy"] == "zero", out.stderr
    assert row["D"] == "inf", out.stderr


def test_env_seed_override():
    base = ["simulate", "--a", "2.5", "--sv1sq", "1", "--sv2sq", "1",
            "--strategy", "linbb1", "--horizon", "5000", "--trials", "2",
            "--seed", "0"]
    with_env = _invoke(base, env={"LQGDUET_SEED": "123"})
    direct = _invoke(["simulate", "--a", "2.5", "--sv1sq", "1",
                      "--sv2sq", "1", "--strategy", "linbb1",
                      "--horizon", "5000", "--trials", "2",
                      "--seed", "123"])
    assert with_env.output == direct.output
    assert "seed=123" in with_env.output


def test_upper_and_lower_consistent():
    up = _invoke(["upper", "--a", "4", "--sv2sq", "16", "--r1", "1"])
    lo = _invoke(["lower", "--a", "4", "--sv2sq", "16", "--r1", "1"])
    assert up.exit_code == 0 and lo.exit_code == 0
    u = float(up.output.strip().splitlines()[-1].split(",")[13])
    l = float(lo.output.strip().splitlines()[-1].split(",")[13])
    assert l <= u


@pytest.mark.parametrize("args", [
    ["sweep", "--a", "50", "--l-min", "0", "--l-max", "1", "--l-steps", "3"],
    ["upper", "--a", "4", "--sv2sq", "16", "--r1", "1"],
    ["lower", "--a", "4", "--sv2sq", "16", "--r1", "1"],
    ["upper", "--a", "100", "--sv2sq", "100", "--r1", "100", "--r2", "0"],
])
def test_csv_cells_parse_as_numbers(args):
    res = _invoke(args)
    assert res.exit_code == 0
    if args[0] != "upper":
        _assert_numeric_cells(res.output)
        return
    # upper adds the winning signaling design's w1, empty for a linear
    # winner
    row, = _assert_numeric_cells(res.output, UPPER_COLUMNS)
    p = ProblemParams(a=float(row["a"]), q=float(row["q"]),
                      r1=float(row["r1"]), r2=float(row["r2"]),
                      sigmav1_sq=float(row["sv1sq"]),
                      sigmav2_sq=float(row["sv2sq"]))
    design = optimize_upper(p).design
    if design is None:
        assert row["strategy"].startswith("linbb") and row["w1"] == ""
    else:
        assert row["strategy"] == f"sig{design.s}"
        assert row["d"] == repr(design.d) and row["w1"] == repr(design.w1)


def test_sweep_row_count():
    res = _invoke(["sweep", "--a", "50", "--l-min", "0", "--l-max", "1",
                   "--l-steps", "3"])
    assert res.exit_code == 0
    rows = [ln for ln in res.output.splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) == 1 + 3  # header + grid size


def test_sweep_builds_one_lower_evaluator(monkeypatch):
    built = []
    init = LowerBoundEvaluator.__init__

    def counting_init(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(LowerBoundEvaluator, "__init__", counting_init)
    res = _invoke(["sweep", "--a", "100", "--l-steps", "5"])
    assert res.exit_code == 0
    assert len(built) == 1
    monkeypatch.undo()
    lines = [ln for ln in res.output.splitlines()
             if ln and not ln.startswith("#")]
    col = {c: i for i, c in enumerate(CSV_COLUMNS)}
    assert len(lines) == 1 + 5
    for ln in lines[1:]:
        cells = ln.split(",")
        p = ProblemParams(a=float(cells[col["a"]]), q=float(cells[col["q"]]),
                          r1=float(cells[col["r1"]]),
                          r2=float(cells[col["r2"]]),
                          sigmav1_sq=float(cells[col["sv1sq"]]),
                          sigmav2_sq=float(cells[col["sv2sq"]]))
        # the bound a fresh evaluator per row reports, to the last bit
        assert cells[col["se_D"]] == repr(lower_weighted_cost(p))


def test_sweep_weight_near_float_limit_is_quiet():
    # r1 = 100^l is 1e300 and 1e308: r1 P1 overflows to +inf, the intended
    # cost of every design that uses controller 1's power, and no
    # "overflow encountered" warning may reach stderr
    out = _run_main(["sweep", "--a", "100", "--l-min", "150", "--l-max",
                     "154", "--l-steps", "2"])
    assert out.returncode == 0 and out.stderr == ""
    rows = [ln for ln in out.stdout.splitlines() if not ln.startswith("#")]
    assert rows == [
        ",".join(CSV_COLUMNS),
        "100.0,1.0,1e+300,0.0,0.0,100.0,linbb2,,,,1000001.0,0.0,"
        "10001010000.0,1000001.0,8001.0,,",
        "100.0,1.0,1e+308,0.0,0.0,100.0,linbb2,,,,1000001.0,0.0,"
        "10001010000.0,1000001.0,8001.0,,",
    ]


def test_detmodel_text_and_json():
    res = _invoke(["detmodel", "--strategy", "optimal", "--steps", "6"])
    assert res.exit_code == 0
    assert "steady upper level: 2" in res.output
    res = _invoke(["detmodel", "--strategy", "linearshift", "--json"])
    data = json.loads(res.output)
    assert data["steady"] == "3.0"
    res = _invoke(["detmodel", "--strategy", "witsen"])
    assert "-inf" in res.output


def test_prop1_table():
    res = _invoke(["prop1", "--a", "1e6,1e7,1e8"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "a,linear_lb,nonlinear_ub,ratio"
    ratios = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert len(ratios) == 3
    assert ratios == sorted(ratios)


def test_certify_subcommand_small(tmp_path):
    # full grids are exercised in the acceptance suite; here just the
    # plumbing on the weak grid
    out_file = tmp_path / "cert.csv"
    out = _run_main(["certify", "--regime", "weak", "--output", str(out_file)])
    assert out.returncode == 0, out.stderr
    text = out_file.read_text()
    assert text.splitlines()[-1] == "# PASS: 486/486 points within cap"
    _assert_numeric_cells(text)


@pytest.mark.parametrize("args, message", [
    (["lower", "--a", "nan"], "a must be finite"),
    (["upper", "--a", "inf", "--sv2sq", "1"], "a must be finite"),
    (["sweep", "--a", "nan"], "a must be finite"),
    # upper and sweep classify the regime, which needs |a| > 1
    (["upper", "--a", "1", "--sv2sq", "1"], "requires |a| > 1"),
    (["sweep", "--a", "1"], "requires |a| > 1"),
    # r1 = a^l overflows a float at a = 100 beyond l ~ 154
    (["sweep", "--a", "100", "--l-max", "1000"], "overflows"),
])
def test_out_of_domain_input_is_config_error(args, message):
    out = _run_main(args)
    assert out.returncode == 1, out.stderr
    # one error line, no traceback, and no row before it
    line, = out.stderr.splitlines()
    assert line.startswith("error: ") and message in line, out.stderr
    assert out.stdout == ""


def test_lower_and_simulate_accept_a_below_one():
    assert _invoke(["lower", "--a", "1", "--sv2sq", "1"]).exit_code == 0
    assert _invoke(["simulate", "--a", "0.5", "--horizon", "2000",
                    "--trials", "2"]).exit_code == 0


def test_missing_output_directory_is_config_error(tmp_path):
    out = _run_main(["upper", "--a", "4", "--output",
                     str(tmp_path / "missing" / "upper.csv")])
    assert out.returncode == 1, out.stderr
    assert "output directory does not exist" in out.stderr, out.stderr
