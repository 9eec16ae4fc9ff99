"""Command-line entry point.

Subcommands: simulate | sweep | upper | lower | certify | detmodel | prop1.
All flags are long-form.  The environment variable LQGDUET_SEED overrides
--seed.  Exit codes: 0 ok, 1 configuration error, 2 unstable run or failed
certification.

``python -m lqgduet`` and the installed ``lqgduet`` script both run
:func:`main`, with the same exit codes.  The commands catch no exception:
an input outside the library's domain raises ValueError there, and main()
prints it as one ``error: ...`` line on stderr and exits 1, as it does for
a usage error.  upper and sweep print an UpperResult row through one
function; sweep's columns are upper's plus the converse lower bound.  A CSV
command checks its arguments and --output, computes, then writes once.
"""
from __future__ import annotations

import errno
import functools
import json
import math
import os
import sys
from typing import Optional, Tuple

import click
import numpy as np

from .core import ProblemParams
from .strategies import StrategySpec, make_strategy, parse_strategy
from .simulator import SimConfig, run
from .bounds_upper import UpperResult, optimize_upper, sweep_labels
from .bounds_lower import LowerBoundEvaluator, lower_weighted_cost
from .certifier import CAP_STRONG, CAP_WEAK, certify_grid, prop1_divergence, \
    strong_grid_params, weak_grid_params
from .detmodel import DetParams, det_radner, det_witsen, run_det, \
    steady_level

#: stable CSV schema (documented; golden-file tested)
CSV_COLUMNS = ("a", "q", "r1", "r2", "sv1sq", "sv2sq", "strategy", "s", "d",
               "k", "D", "P1", "P2", "weighted", "se_D", "se_P1", "se_P2")
#: the upper command's schema: the signaling design's w1 after the rest
UPPER_COLUMNS = CSV_COLUMNS + ("w1",)
#: the sweep command's schema: upper's, then the converse lower bound
SWEEP_COLUMNS = UPPER_COLUMNS + ("lower",)
#: the certify command's schema: the case label, the two bounds, their
#: ratio, the cap it is checked against and the pass flag (1 or 0)
CERTIFY_COLUMNS = ("a", "q", "r1", "r2", "sv1sq", "sv2sq", "label", "s",
                   "upper", "lower", "ratio", "cap", "passed")


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        # float() drops numpy scalars' type from the repr (np.float64(...))
        return repr(float(x))
    return str(x)


def _check_output(path: str) -> None:
    """Reject an --output path that cannot be written, before the command
    computes.  Opens nothing: a probe open would give a named pipe's reader
    an early end of file."""
    if path == "-":
        return
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise click.UsageError(f"output directory does not exist: {parent}")
    target = path if os.path.exists(path) else parent
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        code = errno.EISDIR if os.path.isdir(path) else errno.EACCES
        raise click.UsageError(f"cannot write {path}: {os.strerror(code)}")


def _write_csv(path, header_meta: dict, rows, trailer: Optional[str] = None,
               columns: Tuple[str, ...] = CSV_COLUMNS) -> None:
    """Write '# key=value' metadata lines, the CSV header, one line per row
    dict and an optional trailer line to path (stdout for '-'): the one
    open of a command's output, after it has computed."""
    lines = [f"# {key}={_fmt(val)}" for key, val in header_meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(_fmt(row.get(c)) for c in columns) for row in rows]
    if trailer is not None:
        lines.append(trailer)
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as out:
            out.write(text)
    except OSError as e:
        raise click.UsageError(f"cannot write {path}: {e.strerror}")


def _param_cells(p: ProblemParams) -> dict:
    return {"a": p.a, "q": p.q, "r1": p.r1, "r2": p.r2,
            "sv1sq": p.sigmav1_sq, "sv2sq": p.sigmav2_sq}


def _spec_cells(spec: StrategySpec) -> dict:
    return {"strategy": spec.label, "s": spec.s, "d": spec.d, "k": spec.k}


def _upper_cells(res: UpperResult) -> dict:
    """The cells of an UpperResult row: its strategy and signaling design
    (w1 empty for a linear one), its triple and its weighted cost."""
    return {**_spec_cells(res.spec),
            "w1": None if res.design is None else res.design.w1,
            "D": res.point.D, "P1": res.point.P1, "P2": res.point.P2,
            "weighted": res.cost}


def _seed(seed: int) -> int:
    env = os.environ.get("LQGDUET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError("LQGDUET_SEED must be an integer")
    return seed


_common_params = [
    click.option("--a", type=float, required=True, help="system gain a"),
    click.option("--q", type=float, default=1.0, show_default=True,
                 help="state cost weight"),
    click.option("--r1", type=float, default=0.0, show_default=True,
                 help="first input power weight"),
    click.option("--r2", type=float, default=0.0, show_default=True,
                 help="second input power weight"),
    click.option("--sv1sq", type=float, default=0.0, show_default=True,
                 help="first observation noise variance"),
    click.option("--sv2sq", type=float, default=0.0, show_default=True,
                 help="second observation noise variance"),
    click.option("--sigma0sq", type=float, default=0.0, show_default=True,
                 help="initial state variance"),
]


#: the CSV commands' output path, checked before and written after computing
output_option = click.option("--output", default="-", show_default=True,
                             help="CSV output path ('-' for stdout)")


def common_params(f):
    """The problem options, passed to the command f as one ProblemParams
    p."""
    @functools.wraps(f)
    def command(a, q, r1, r2, sv1sq, sv2sq, sigma0sq, **options):
        return f(ProblemParams(a=a, q=q, r1=r1, r2=r2, sigma0_sq=sigma0sq,
                               sigmav1_sq=sv1sq, sigmav2_sq=sv2sq),
                 **options)
    for opt in reversed(_common_params):
        command = opt(command)
    return command


@click.group()
def cli():
    """Numerical laboratory for the scalar two-controller decentralized
    LQG problem."""


@cli.command()
@common_params
@click.option("--strategy", default="linbb1", show_default=True,
              help="strategy shorthand or JSON spec")
@click.option("--horizon", type=int, default=200_000, show_default=True)
@click.option("--burn-in", type=int, default=1_000, show_default=True)
@click.option("--trials", type=int, default=32, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@output_option
def simulate(p, strategy, horizon, burn_in, trials, seed, output):
    """Monte Carlo simulation of one strategy."""
    spec = parse_strategy(strategy)
    # builds the runtime strategy once to reject specs p cannot run
    make_strategy(spec, p)
    cfg = SimConfig(horizon=horizon, burn_in=burn_in, trials=trials,
                    seed=_seed(seed))
    _check_output(output)
    res = run(p, spec, cfg)
    _write_csv(output, {"command": "simulate", "horizon": cfg.horizon,
                        "burn_in": cfg.burn_in, "trials": cfg.trials,
                        "seed": cfg.seed,
                        "strategy_json": json.dumps(spec.to_json())},
               [{**_param_cells(p), **_spec_cells(spec),
                 "D": res.avg_state_cost,
                 "P1": res.avg_u1_power, "P2": res.avg_u2_power,
                 "weighted": res.weighted_cost, "se_D": res.se_state,
                 "se_P1": res.se_u1, "se_P2": res.se_u2}])
    if res.unstable:
        sys.exit(2)


@cli.command()
@click.option("--a", type=float, default=100.0, show_default=True)
@click.option("--l-min", type=float, default=-1.0, show_default=True)
@click.option("--l-max", type=float, default=3.0, show_default=True)
@click.option("--l-steps", type=click.IntRange(min=2), default=17,
              show_default=True)
@output_option
def sweep(a, l_min, l_max, l_steps, output):
    """Sweep the first-controller power weight r1 = |a|^l for
    sv1^2 = 0, sv2^2 = |a|, r2 = 0, reporting the best analytic strategy,
    its cost, and the matching lower bound per l."""
    _check_output(output)
    swept = sweep_labels(a, np.linspace(l_min, l_max, l_steps))
    params = [row["params"] for row in swept]
    lowers = LowerBoundEvaluator(params[0]).weighted_many(
        [(p.q, p.r1, p.r2) for p in params])
    rows = [{**_param_cells(p), **_upper_cells(row["result"]),
             "lower": lower} for p, row, lower in zip(params, swept, lowers)]
    _write_csv(output, {"command": "sweep", "l_min": l_min,
                        "l_max": l_max, "l_steps": l_steps}, rows,
               columns=SWEEP_COLUMNS)


@cli.command()
@common_params
@output_option
def upper(p, output):
    """Best analytic achievable weighted cost and its strategy."""
    _check_output(output)
    _write_csv(output, {"command": "upper"},
               [{**_param_cells(p), **_upper_cells(optimize_upper(p))}],
               columns=UPPER_COLUMNS)


@cli.command()
@common_params
@output_option
def lower(p, output):
    """Converse lower bound on the weighted cost."""
    _check_output(output)
    _write_csv(output, {"command": "lower"},
               [{**_param_cells(p), "weighted": lower_weighted_cost(p)}])


@cli.command()
@click.option("--regime", type=click.Choice(["weak", "strong", "both"]),
              default="both", show_default=True)
@click.option("--cap", type=float, default=None,
              help="override the per-regime cap")
@output_option
def certify(regime, cap, output):
    """Grid certification of the upper/lower weighted-cost ratio.

    The claim checked is the cap inequality at the sampled grid points, not
    a universal proof.  Exits 2 if any point fails."""
    params = []
    if regime in ("weak", "both"):
        params += weak_grid_params()
    if regime in ("strong", "both"):
        params += strong_grid_params()
    _check_output(output)
    reports = certify_grid(params, cap=cap)
    rows = [{**_param_cells(rep.params), "label": rep.case_label,
             "s": rep.regime.s, "upper": rep.upper, "lower": rep.lower,
             "ratio": rep.ratio, "cap": rep.cap,
             "passed": int(rep.passed)} for rep in reports]
    n_pass = sum(r.passed for r in reports)
    _write_csv(output, {"command": "certify", "regime": regime,
                        "cap_weak": cap if cap is not None else CAP_WEAK,
                        "cap_strong": cap if cap is not None
                        else CAP_STRONG},
               rows, columns=CERTIFY_COLUMNS,
               trailer=f"# {'PASS' if n_pass == len(reports) else 'FAIL'}"
                       f": {n_pass}/{len(reports)} points within cap")
    if n_pass != len(reports):
        sys.exit(2)


@cli.command()
@click.option("--aprime", type=int, default=2, show_default=True)
@click.option("--sv2-level", type=int, default=1, show_default=True)
@click.option("--p1-level", type=int, default=1, show_default=True)
@click.option("--strategy",
              type=click.Choice(["optimal", "linearshift", "witsen",
                                 "radner"]),
              default="optimal", show_default=True)
@click.option("--steps", type=click.IntRange(min=1), default=12,
              show_default=True)
@click.option("--json", "as_json", is_flag=True,
              help="machine-readable output")
def detmodel(aprime, sv2_level, p1_level, strategy, steps, as_json):
    """Binary deterministic model runs (per-step levels and the steady
    upper level, 'not reached' unless the last two levels are equal)."""
    if strategy in ("witsen", "radner"):
        level = det_witsen() if strategy == "witsen" else det_radner()
        if as_json:
            click.echo(json.dumps({"strategy": strategy,
                                   "upper_level": _fmt(float(level))}))
        else:
            click.echo(f"final upper level: {level}")
        return
    p = DetParams(a_prime=aprime, sigma_v2_level=sv2_level,
                  p1_level=p1_level)
    name = "Optimal" if strategy == "optimal" else "LinearShift"
    levels = run_det(p, name, steps)
    steady = steady_level(levels)
    if as_json:
        click.echo(json.dumps({"strategy": name,
                               "levels": [_fmt(float(v)) for v in levels],
                               "steady": None if steady is None
                               else _fmt(float(steady))}))
    else:
        for n, v in enumerate(levels):
            click.echo(f"step {n:3d}  upper level {v}")
        click.echo("steady upper level: "
                   + ("not reached" if steady is None else str(steady)))


@cli.command()
@click.option("--a", default="1e4,1e5,1e6,1e7,1e8", show_default=True,
              help="comma-separated list of gains")
def prop1(a):
    """Linear-vs-nonlinear cost ratio table (diverges with a)."""
    rows = prop1_divergence([float(x) for x in a.split(",") if x.strip()])
    click.echo("a,linear_lb,nonlinear_ub,ratio")
    for row in rows:
        click.echo(f"{row['a']:g},{row['linear_lb']:.6e},"
                   f"{row['nonlinear_ub']:.6e},{row['ratio']:.6e}")


def main():
    """Run the command line; a usage error or a ValueError from the
    library (an input outside its domain) is one 'error:' line on stderr
    and exit code 1."""
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except click.UsageError as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(1)
    except ValueError as e:
        click.echo(f"error: {e}", err=True)
        sys.exit(1)
    except click.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
