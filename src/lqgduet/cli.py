"""Command-line entry point.

Subcommands: simulate | sweep | upper | lower | certify | detmodel | prop1.
All flags are long-form.  The environment variable LQGDUET_SEED overrides
--seed.  Exit codes: 0 ok, 1 configuration error, 2 unstable run or failed
certification.

``python -m lqgduet`` and the installed ``lqgduet`` script both run
:func:`main`, with the same exit codes.
"""
from __future__ import annotations

import json
import math
import os
import sys
from typing import Optional

import click
import numpy as np

from .core import ProblemParams
from .strategies import StrategySpec, parse_strategy
from .simulator import SimConfig, SimResult, run
from .bounds_upper import optimize_upper, sweep_labels
from .bounds_lower import LowerBoundEvaluator, lower_weighted_cost
from .certifier import CAP_STRONG, CAP_WEAK, certify_grid, prop1_divergence, \
    strong_grid_params, weak_grid_params
from .detmodel import DetParams, det_radner, det_witsen, run_det

#: stable CSV schema (documented; golden-file tested)
CSV_COLUMNS = ("a", "q", "r1", "r2", "sv1sq", "sv2sq", "strategy", "s", "d",
               "k", "D", "P1", "P2", "weighted", "se_D", "se_P1", "se_P2")


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


def _write_csv(path: Optional[str], header_meta: dict, rows,
               trailer: Optional[str] = None) -> None:
    """Write '# key=value' metadata lines, the CSV header, one line per row
    dict and an optional trailer line to path ('-' or None for stdout)."""
    if path is None or path == "-":
        out = sys.stdout
    else:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise click.UsageError(
                f"output directory does not exist: {parent}")
        out = open(path, "w")
    try:
        for key, val in header_meta.items():
            out.write(f"# {key}={_fmt(val)}\n")
        out.write(",".join(CSV_COLUMNS) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row.get(c)) for c in CSV_COLUMNS) + "\n")
        if trailer is not None:
            out.write(trailer + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _param_cells(p: ProblemParams) -> dict:
    return {"a": p.a, "q": p.q, "r1": p.r1, "r2": p.r2,
            "sv1sq": p.sigmav1_sq, "sv2sq": p.sigmav2_sq}


def _seed(seed: int) -> int:
    env = os.environ.get("LQGDUET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise click.UsageError("LQGDUET_SEED must be an integer")
    return seed


def _problem(a, q, r1, r2, sv1sq, sv2sq, sigma0sq=0.0) -> ProblemParams:
    try:
        return ProblemParams(a=a, q=q, r1=r1, r2=r2, sigma0_sq=sigma0sq,
                             sigmav1_sq=sv1sq, sigmav2_sq=sv2sq)
    except ValueError as e:
        raise click.UsageError(str(e))


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


def common_params(f):
    for opt in reversed(_common_params):
        f = opt(f)
    return f


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
@click.option("--output", default="-", show_default=True,
              help="CSV output path ('-' for stdout)")
def simulate(a, q, r1, r2, sv1sq, sv2sq, sigma0sq, strategy, horizon,
             burn_in, trials, seed, output):
    """Monte Carlo simulation of one strategy."""
    p = _problem(a, q, r1, r2, sv1sq, sv2sq, sigma0sq)
    try:
        spec = parse_strategy(strategy)
        cfg = SimConfig(horizon=horizon, burn_in=burn_in, trials=trials,
                        seed=_seed(seed))
    except (ValueError, json.JSONDecodeError, TypeError) as e:
        raise click.UsageError(str(e))
    res = run(p, spec, cfg)
    _write_csv(output, {"command": "simulate", "horizon": cfg.horizon,
                        "burn_in": cfg.burn_in, "trials": cfg.trials,
                        "seed": cfg.seed,
                        "strategy_json": json.dumps(spec.to_json())},
               [{**_param_cells(p), "strategy": spec.label, "s": spec.s,
                 "d": spec.d, "k": spec.k, "D": res.avg_state_cost,
                 "P1": res.avg_u1_power, "P2": res.avg_u2_power,
                 "weighted": res.weighted_cost, "se_D": res.se_state,
                 "se_P1": res.se_u1, "se_P2": res.se_u2}])
    if res.unstable:
        sys.exit(2)


@cli.command()
@click.option("--a", type=float, default=100.0, show_default=True)
@click.option("--l-min", type=float, default=-1.0, show_default=True)
@click.option("--l-max", type=float, default=3.0, show_default=True)
@click.option("--l-steps", type=int, default=17, show_default=True)
@click.option("--output", default="-", show_default=True)
def sweep(a, l_min, l_max, l_steps, output):
    """Sweep the first-controller power weight r1 = a^l for
    sv1^2 = 0, sv2^2 = a, r2 = 0, reporting the best analytic strategy,
    its cost, and the matching lower bound per l."""
    if l_steps < 2:
        raise click.UsageError("--l-steps must be >= 2")
    ls = np.linspace(l_min, l_max, l_steps)
    lower_ev = LowerBoundEvaluator(ProblemParams(a=a, sigmav1_sq=0.0,
                                                 sigmav2_sq=float(a)))
    rows = []
    for row in sweep_labels(a, ls):
        p = ProblemParams(a=a, q=1.0, r1=float(a) ** row["l"], r2=0.0,
                          sigmav1_sq=0.0, sigmav2_sq=float(a))
        rows.append({**_param_cells(p), "strategy": row["label"],
                     "D": row["D"], "P1": row["P1"], "P2": row["P2"],
                     "weighted": row["cost"],
                     "se_D": lower_ev.weighted(p.q, p.r1, p.r2)})
    _write_csv(output, {"command": "sweep", "l_min": l_min, "l_max": l_max,
                        "l_steps": l_steps,
                        "note": "se_D column carries the lower bound"}, rows)


@cli.command()
@common_params
@click.option("--output", default="-", show_default=True)
def upper(a, q, r1, r2, sv1sq, sv2sq, sigma0sq, output):
    """Best analytic achievable weighted cost and its strategy."""
    p = _problem(a, q, r1, r2, sv1sq, sv2sq, sigma0sq)
    res = optimize_upper(p)
    _write_csv(output, {"command": "upper"},
               [{**_param_cells(p), "strategy": res.spec.label,
                 "s": res.spec.s, "d": res.spec.d, "k": res.spec.k,
                 "D": res.point.D, "P1": res.point.P1, "P2": res.point.P2,
                 "weighted": res.cost}])


@cli.command()
@common_params
@click.option("--output", default="-", show_default=True)
def lower(a, q, r1, r2, sv1sq, sv2sq, sigma0sq, output):
    """Converse lower bound on the weighted cost."""
    p = _problem(a, q, r1, r2, sv1sq, sv2sq, sigma0sq)
    val = lower_weighted_cost(p)
    _write_csv(output, {"command": "lower"},
               [{**_param_cells(p), "weighted": val}])


@cli.command()
@click.option("--regime", type=click.Choice(["weak", "strong", "both"]),
              default="both", show_default=True)
@click.option("--cap", type=float, default=None,
              help="override the per-regime cap")
@click.option("--output", default="-", show_default=True)
def certify(regime, cap, output):
    """Grid certification of the upper/lower weighted-cost ratio.

    The claim checked is the cap inequality at the sampled grid points, not
    a universal proof.  Exits 2 if any point fails."""
    params = []
    if regime in ("weak", "both"):
        params += weak_grid_params()
    if regime in ("strong", "both"):
        params += strong_grid_params()
    reports = certify_grid(params, cap=cap)
    rows = [{**_param_cells(rep.params), "strategy": rep.case_label,
             "s": rep.regime.s, "D": rep.upper, "P1": rep.lower,
             "P2": rep.ratio, "weighted": rep.cap,
             "se_D": 1.0 if rep.passed else 0.0} for rep in reports]
    n_pass = sum(r.passed for r in reports)
    _write_csv(output, {"command": "certify", "regime": regime,
                        "cap_weak": cap if cap is not None else CAP_WEAK,
                        "cap_strong": cap if cap is not None else CAP_STRONG,
                        "note": "columns D,P1,P2 carry upper,lower,ratio; "
                                "se_D carries pass flag; sampled-grid check "
                                "only"}, rows,
               trailer=f"# {'PASS' if n_pass == len(reports) else 'FAIL'}: "
                       f"{n_pass}/{len(reports)} points within cap")
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
@click.option("--steps", type=int, default=12, show_default=True)
@click.option("--json", "as_json", is_flag=True,
              help="machine-readable output")
def detmodel(aprime, sv2_level, p1_level, strategy, steps, as_json):
    """Binary deterministic model runs (per-step levels and the steady
    upper level)."""
    if strategy in ("witsen", "radner"):
        level = det_witsen() if strategy == "witsen" else det_radner()
        if as_json:
            click.echo(json.dumps({"strategy": strategy,
                                   "upper_level": _fmt(float(level))}))
        else:
            click.echo(f"final upper level: {level}")
        return
    try:
        p = DetParams(a_prime=aprime, sigma_v2_level=sv2_level,
                      p1_level=p1_level)
        name = "Optimal" if strategy == "optimal" else "LinearShift"
        levels = run_det(p, name, steps)
    except (ValueError, RuntimeError) as e:
        raise click.UsageError(str(e))
    if as_json:
        click.echo(json.dumps({"strategy": name,
                               "levels": [_fmt(float(v)) for v in levels],
                               "steady": _fmt(float(levels[-1]))}))
    else:
        for n, v in enumerate(levels):
            click.echo(f"step {n:3d}  upper level {v}")
        click.echo(f"steady upper level: {levels[-1]}")


@cli.command()
@click.option("--a", default="1e4,1e5,1e6,1e7,1e8", show_default=True,
              help="comma-separated list of gains")
def prop1(a):
    """Linear-vs-nonlinear cost ratio table (diverges with a)."""
    try:
        a_values = [float(x) for x in a.split(",") if x.strip()]
        rows = prop1_divergence(a_values)
    except ValueError as e:
        raise click.UsageError(str(e))
    click.echo("a,linear_lb,nonlinear_ub,ratio")
    for row in rows:
        click.echo(f"{row['a']:g},{row['linear_lb']:.6e},"
                   f"{row['nonlinear_ub']:.6e},{row['ratio']:.6e}")


def main():
    try:
        cli.main(standalone_mode=False)
    except click.exceptions.Exit as e:
        sys.exit(e.exit_code)
    except (click.UsageError, click.BadParameter) as e:
        click.echo(f"error: {e.format_message()}", err=True)
        sys.exit(1)
    except click.Abort:
        sys.exit(1)


if __name__ == "__main__":
    main()
