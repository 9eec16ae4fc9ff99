import ast
import errno
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from click.testing import CliRunner

import lqgduet
from lqgduet.bounds_lower import LowerBoundEvaluator, lower_weighted_cost
from lqgduet.bounds_upper import optimize_upper
from lqgduet.cli import CERTIFY_COLUMNS, CSV_COLUMNS, SWEEP_COLUMNS, \
    UPPER_COLUMNS, cli, main
from lqgduet.core import ProblemParams

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "simulate_golden.csv")
SWEEP_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                 "sweep_golden.csv")
CERTIFY_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                                   "certify_golden.csv")


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
    strategy and label columns is empty or parses as a float.  Returns the
    data rows as column -> cell dicts."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == ",".join(columns)
    assert len(lines) > 1
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == len(columns), ln
        for col, cell in zip(columns, cells):
            if col not in ("strategy", "label") and cell:
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


def test_sweep_golden_file():
    # the analytic outputs bit for bit: the sig1 rows pin du1's D, P1 and
    # P2, and every row the converse lower bound
    res = _invoke(["sweep", "--a", "100"])
    assert res.exit_code == 0
    with open(SWEEP_GOLDEN_PATH) as f:
        assert res.output == f.read()


def test_certify_golden_file():
    # every base's region labels, both bounds and the ratios bit for bit
    res = _invoke(["certify", "--regime", "both"])
    assert res.exit_code == 0
    with open(CERTIFY_GOLDEN_PATH) as f:
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
    # a^{2(k-1)} sv1^2 in info_mmse overflowed, though its quotient is a
    # float: lower printed inf above upper's 1.0000000200000999e+21
    ["--a", "1e4", "--sv1sq", "1e5", "--sv2sq", "1e12", "--r1", "1",
     "--r2", "1"],
    # one k1 of the recipe has a Sigma cap that overflows: lower ended in
    # "error: info_mmse is defined where ..."
    ["--a", "2.5", "--sv1sq", "2.8e307", "--sv2sq", "8e307"],
])
def test_lower_is_finite_below_upper_where_a_power_overflows(args):
    up, lo = _invoke(["upper", *args]), _invoke(["lower", *args])
    assert up.exit_code == 0 and lo.exit_code == 0
    u = float(up.output.strip().splitlines()[-1].split(",")[13])
    l = float(lo.output.strip().splitlines()[-1].split(",")[13])
    assert 1.0 <= l <= u < math.inf


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
        _assert_numeric_cells(res.output, SWEEP_COLUMNS
                              if args[0] == "sweep" else CSV_COLUMNS)
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


def test_sweep_of_a_negative_gain_is_the_positive_gains_sweep():
    # every bound depends on |a| only; before, sv2^2 = a = -100 was
    # rejected as "sigmav2_sq must be >= 0"
    args = ["sweep", "--l-steps", "5", "--a"]
    neg = _invoke(args + ["-100"])
    assert neg.exit_code == 0
    rows = neg.output.splitlines()
    assert sum(ln.startswith("-100.0,") for ln in rows) == 5
    assert [ln.replace("-100.0,", "100.0,", 1) for ln in rows] \
        == _invoke(args + ["100"]).output.splitlines()


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
    col = {c: i for i, c in enumerate(SWEEP_COLUMNS)}
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 1 + 5
    for ln in lines[1:]:
        cells = ln.split(",")
        p = ProblemParams(a=float(cells[col["a"]]), q=float(cells[col["q"]]),
                          r1=float(cells[col["r1"]]),
                          r2=float(cells[col["r2"]]),
                          sigmav1_sq=float(cells[col["sv1sq"]]),
                          sigmav2_sq=float(cells[col["sv2sq"]]))
        # the bound a fresh evaluator per row reports, to the last bit, in
        # its own column; the standard-error columns stay empty
        assert cells[col["lower"]] == repr(lower_weighted_cost(p))
        assert [cells[col[c]] for c in ("se_D", "se_P1", "se_P2")] \
            == ["", "", ""]


def test_sweep_weight_near_float_limit_is_quiet():
    # r1 = 100^l is 1e300 and 1e308: r1 P1 overflows to +inf, the intended
    # cost of every design that uses controller 1's power, and no
    # "overflow encountered" warning may reach stderr
    out = _run_main(["sweep", "--a", "100", "--l-min", "150", "--l-max",
                     "154", "--l-steps", "2"])
    assert out.returncode == 0 and out.stderr == ""
    rows = [ln for ln in out.stdout.splitlines() if not ln.startswith("#")]
    assert rows == [
        ",".join(SWEEP_COLUMNS),
        "100.0,1.0,1e+300,0.0,0.0,100.0,linbb2,,,,1000001.0,0.0,"
        "10001010000.0,1000001.0,,,,,8001.0",
        "100.0,1.0,1e+308,0.0,0.0,100.0,linbb2,,,,1000001.0,0.0,"
        "10001010000.0,1000001.0,,,,,8001.0",
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


@pytest.mark.parametrize("steps", ["1", "2"])
def test_detmodel_unsettled_run_has_no_steady_level(steps):
    # before, a 2-step linearshift run reported its last level, 2, as
    # steady; the run settles at 3
    args = ["detmodel", "--strategy", "linearshift", "--steps", steps]
    res = _invoke(args)
    assert res.exit_code == 0
    assert res.output.splitlines()[-1] == "steady upper level: not reached"
    res = _invoke(args + ["--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["levels"]) == int(steps) and data["steady"] is None


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
    assert not any(ln.startswith("# note") for ln in text.splitlines())
    rows = _assert_numeric_cells(text, CERTIFY_COLUMNS)
    assert len(rows) == 486
    for row in rows:
        upper, lower, ratio, cap = (float(row[c]) for c in
                                    ("upper", "lower", "ratio", "cap"))
        assert row["label"].startswith("weak") and row["s"] == ""
        assert ratio == upper / lower and lower <= upper
        assert (cap, row["passed"]) == (1200.0, "1") and ratio <= cap


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


def _main_error(monkeypatch, capsys, args):
    """Run main() on args in this process; it must exit 1 with one
    'error:' line and nothing on stdout.  Returns that line."""
    monkeypatch.setattr(sys, "argv", ["lqgduet", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    out = capsys.readouterr()
    assert exc.value.code == 1 and out.out == "", out
    line, = out.err.splitlines()
    assert line.startswith("error: "), line
    return line


@pytest.mark.parametrize("command", [
    ["certify", "--regime", "both"],
    ["sweep", "--a", "100"],
    ["upper", "--a", "4", "--sv2sq", "100"],
    ["lower", "--a", "4", "--sv2sq", "100"],
    ["simulate", "--a", "2.5", "--horizon", "100", "--burn-in", "10",
     "--trials", "2"],
])
def test_unwritable_output_fails_before_computing(monkeypatch, capsys,
                                                  tmp_path, command):
    # before, certify --output <directory> failed only after certifying
    # the whole grid
    def must_not_run(*args, **kwargs):
        raise AssertionError("computed before opening the output")

    for name in ("certify_grid", "sweep_labels", "optimize_upper",
                 "lower_weighted_cost", "run"):
        monkeypatch.setattr(lqgduet.cli, name, must_not_run)
    line = _main_error(monkeypatch, capsys,
                       command + ["--output", str(tmp_path)])
    assert "cannot write" in line and "Is a directory" in line


@pytest.mark.parametrize("args", [
    ["certify", "--regime", "weak", "--cap", "nan"],
    ["upper", "--a", "1", "--sv2sq", "1"],
    ["sweep", "--a", "100", "--l-max", "1000"],
    ["simulate", "--a", "3", "--strategy", '{"type": "zero", "s": 1}'],
])
def test_argument_error_leaves_no_output_file(monkeypatch, capsys, tmp_path,
                                              args):
    # a new path is not created, and an existing file keeps its content
    _main_error(monkeypatch, capsys,
                args + ["--output", str(tmp_path / "new.csv")])
    assert list(tmp_path.iterdir()) == []
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    _main_error(monkeypatch, capsys, args + ["--output", str(kept)])
    assert kept.read_text() == "kept\n"


def test_output_replaces_an_existing_file(tmp_path):
    path = tmp_path / "upper.csv"
    path.write_text("stale line that is longer than nothing\n" * 20)
    res = _invoke(["upper", "--a", "4", "--sv2sq", "100", "--output",
                   str(path)])
    assert res.exit_code == 0
    assert path.read_text() == _invoke(["upper", "--a", "4", "--sv2sq",
                                        "100"]).output


#: one quick run of each CSV command and the library function it computes
#: with (the name cli imports it under)
_CSV_COMMANDS = [
    (["simulate", "--a", "2.5", "--horizon", "100", "--burn-in", "10",
      "--trials", "2"], "run"),
    (["sweep", "--a", "100", "--l-steps", "3"], "sweep_labels"),
    (["upper", "--a", "4", "--sv2sq", "100"], "optimize_upper"),
    (["lower", "--a", "4", "--sv2sq", "100"], "lower_weighted_cost"),
    (["certify", "--regime", "weak"], "certify_grid"),
]


@pytest.mark.parametrize("command", [c for c, _ in _CSV_COMMANDS])
def test_output_to_a_target_that_cannot_be_truncated(monkeypatch, capsys,
                                                     command):
    # before, truncating /dev/null raised OSError after the command had
    # computed, and main() printed a traceback
    monkeypatch.setattr(sys, "argv",
                        ["lqgduet", *command, "--output", os.devnull])
    main()
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_output_to_a_named_pipe(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(
        fifo.read_bytes()), daemon=True)
    reader.start()
    args = ["upper", "--a", "4", "--sv2sq", "100"]
    assert _invoke(args + ["--output", str(fifo)]).exit_code == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [_invoke(args).stdout_bytes]


def test_failed_write_is_one_error_line(monkeypatch, capsys, tmp_path):
    class FullDisk(io.StringIO):
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(lqgduet.cli, "open", lambda path, mode: FullDisk(),
                        raising=False)
    path = tmp_path / "upper.csv"
    line = _main_error(monkeypatch, capsys, ["upper", "--a", "4", "--sv2sq",
                                             "100", "--output", str(path)])
    assert line == f"error: cannot write {path}: No space left on device"


@pytest.mark.parametrize("command, compute", _CSV_COMMANDS)
def test_output_is_written_only_after_computing(monkeypatch, tmp_path,
                                               command, compute):
    # a new path does not exist, and an existing file keeps its content,
    # while the command computes
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("kept\n")
    real, seen = getattr(lqgduet.cli, compute), []

    def checked(*args, **kwargs):
        seen.append(path.read_text() if path.exists() else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(lqgduet.cli, compute, checked)
    for path in (new, kept):
        assert _invoke(command + ["--output", str(path)]).exit_code == 0
    assert seen == [None, "kept\n"]
    assert kept.read_text() == new.read_text() != "kept\n"


def test_strategy_field_outside_its_variant_is_config_error():
    # linbb has no gain; before, simulate printed k = 3 and exited 0
    out = _run_main(["simulate", "--a", "3", "--sv1sq", "1", "--sv2sq", "9",
                     "--strategy",
                     '{"type":"linbb","controller":1,"k":3}'])
    assert out.returncode == 1, out.stderr
    line, = out.stderr.splitlines()
    assert line == "error: linbb takes no field k", out.stderr
    assert out.stdout == ""


def _sim(spec):
    return ["simulate", "--a", "3", "--horizon", "100", "--trials", "2",
            "--strategy", spec]


@pytest.mark.parametrize("args, message", [
    (_sim('{"s": 1}'), '"type"'),
    (_sim('{"type": "sig", "s": 1.5, "d": 1.0}'), "integer s"),
    (_sim('{"type": "sig", "s": true, "d": 1.0}'), "integer s"),
    (_sim('{"type": "sig", "s": 1, "d": NaN}'), "finite d"),
    # |a|^s d overflows: caught where the strategy is built against p
    (_sim('{"type": "sig", "s": 1000, "d": 1.0}'), "|a|^s d = inf"),
    (_sim('{"type": "linbb", "controller": true}'), "controller"),
    (["prop1", "--a", "1e4,nan"], "finite"),
    (["prop1", "--a", "inf"], "finite"),
    (["certify", "--regime", "weak", "--cap", "nan"], "cap must be > 0"),
    (["certify", "--regime", "weak", "--cap", "-5"], "cap must be > 0"),
    (["detmodel", "--steps", "0"], "--steps"),
    (["upper", "--a", "4", "--output", os.path.dirname(__file__)],
     "cannot write"),
    (["sweep", "--l-steps", "1"], "--l-steps"),
    # a key or a value that is no strategy field: before, Python's own
    # TypeError text
    (_sim('{"type":"linbb","controller":1,"gain":3}'),
     "linbb takes no field gain"),
    (_sim('{"type":"linkal","controller":1,"k":"3"}'), "finite gain k"),
    (_sim('{"type":"sig","s":1,"d":[1]}'), "finite d > 0"),
    (_sim('{"type":"sig","s":1,'), "Expecting"),
    # large a: before, a traceback (an OverflowError from a power of a, or
    # the ValueError lower did not catch)
    (["lower", "--a", "1e100", "--sv1sq", "1", "--sv2sq", "1"],
     "overflows a float"),
    (["upper", "--a", "1e160", "--r1", "1"], "must be finite floats"),
    (["lower", "--a", "1e6", "--sv1sq", "1e300", "--sv2sq", "1e300"],
     "must be finite floats"),
    # a^4 sv2^2 / 28000 ~ 3.6e308
    (["lower", "--a", "1000", "--sv1sq", "1e10", "--sv2sq", "1e301"],
     "t2a overflows"),
    (["sweep", "--a", "1e160", "--l-max", "1"], "must be finite floats"),
    (["prop1", "--a", "1e4,x"], "could not convert"),
    # an empty gain list: before, the header alone and exit 0
    (["prop1", "--a", ","], "at least one gain"),
    (["prop1", "--a", ""], "at least one gain"),
])
def test_rejected_input_is_one_error_line(monkeypatch, capsys, args,
                                          message):
    # main() in this process: a traceback would be an exception other than
    # SystemExit and fail the test, and so would a RuntimeWarning (the
    # test configuration makes it an error)
    assert message in _main_error(monkeypatch, capsys, args)


@pytest.mark.parametrize("sv2sq", ["1", "1e300"])
def test_upper_at_large_a_is_one_finite_row(sv2sq):
    # controller 1 is noiseless: linbb1 pays P1 = a^2 = 1e200 at D = 1.
    # Before, a^4 sv1^2 read inf * 0 = nan (sv2sq = 1), and the regime's
    # bracket guard raised OverflowError on a^4 (sv2sq = 1e300)
    out = _run_main(["upper", "--a", "1e100", "--sv2sq", sv2sq, "--r1",
                     "1"])
    assert out.returncode == 0 and out.stderr == "", out.stderr
    row, = _assert_numeric_cells(out.stdout, UPPER_COLUMNS)
    assert (row["strategy"], row["D"], row["P1"], row["weighted"]) \
        == ("linbb1", "1.0", "1e+200", "1e+200")


@pytest.mark.parametrize("args", [
    # the region partition's t2a ~ 2.4e305, though a^4 sv2^2 overflows
    ["--a", "2.5", "--sv1sq", "1e10", "--sv2sq", "1.7e308"],
    # dl4's race needs a^12 and dl1's slices (a^2)^78: each such candidate
    # is left out, and the floor, the corollary and the others stay
    ["--a", "6e25", "--sv2sq", "1", "--r1", "1", "--r2", "1"],
    ["--a", "100", "--sv2sq", "1e300", "--r1", "1", "--r2", "1"],
])
def test_lower_where_a_product_or_a_power_overflows_is_one_finite_row(args):
    # before, each exited with "error: ... overflows"
    out = _run_main(["lower", *args])
    assert out.returncode == 0 and out.stderr == "", out.stderr
    row, = _assert_numeric_cells(out.stdout)
    p = ProblemParams(a=float(row["a"]), q=float(row["q"]),
                      r1=float(row["r1"]), r2=float(row["r2"]),
                      sigmav1_sq=float(row["sv1sq"]),
                      sigmav2_sq=float(row["sv2sq"]))
    assert float(row["weighted"]) == lower_weighted_cost(p) >= 1.0


def test_no_command_catches_an_exception():
    # main() is the one place that maps errors to the 'error:' line; the
    # commands are the functions a @cli.command() decorator registers
    tree = ast.parse(Path(lqgduet.cli.__file__).read_text())
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(dec, ast.Call)
                        and ast.unparse(dec.func) == "cli.command"
                        for dec in node.decorator_list)]
    assert sorted(f.name for f in commands) == sorted(cli.commands)
    assert [f.name for f in commands
            if any(isinstance(node, ast.Try) for node in ast.walk(f))] == []
