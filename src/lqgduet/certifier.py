"""Constant-ratio certification: upper/lower ratio reports at one point
and over the certification grids, each labelled with the region of the
power plane its achieving strategy lands in, and the large-a
linear/nonlinear divergence table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import ProblemParams, Regime, check_certified, check_weightings
from .bounds_lower import LowerBoundEvaluator, RegionPartition
from .bounds_upper import UpperBoundEvaluator, UpperResult, optimize_upper

#: default certification caps by regime
CAP_WEAK = 1200.0
CAP_STRONG = 1.5e5

#: validity threshold for the divergence table
PROP1_A_MIN = 1.0e4


@dataclass(frozen=True, slots=True)
class CertReport:
    params: ProblemParams
    regime: Regime
    upper: float
    lower: float
    ratio: float
    case_label: str
    cap: float
    passed: bool
    degenerate: bool = False


def _check_cap(cap: Optional[float]) -> None:
    if cap is not None and not cap > 0:
        raise ValueError(f"cap must be > 0, got {cap!r}")


def _report(p: ProblemParams, res: UpperResult, lower: float,
            partition: RegionPartition, cap: Optional[float]) -> CertReport:
    """The certificate at p from its achievable result and its lower bound
    against cap, or the regime's cap when cap is None."""
    regime = partition.regime
    if cap is None:
        cap = CAP_WEAK if regime.kind == "weak" else CAP_STRONG
    cost = res.cost
    degenerate = lower == 0 and cost > 0
    if lower > 0:
        ratio = cost / lower
    elif cost == 0:
        ratio = 1.0
    else:
        ratio = math.inf
    label = ("Degenerate" if degenerate
             else partition.label(res.point.P1, res.point.P2))
    passed = (not degenerate) and ratio <= cap
    if p.q == p.r1 == p.r2 == 0:
        label, passed = "Degenerate", True
    return CertReport(p, regime, cost, lower, ratio, label, cap, passed,
                      degenerate)


def certify_point(p: ProblemParams,
                  cap: Optional[float] = None) -> CertReport:
    """Certify the upper/lower weighted-cost ratio at one parameter point
    against the regime's cap: certify_grid's report at one weighting.  A
    cap, when given, must be > 0 (+inf allowed)."""
    check_certified(p)
    _check_cap(cap)
    evaluator = LowerBoundEvaluator(p)
    return _report(p, optimize_upper(p),
                   evaluator.weighted(p.q, p.r1, p.r2), evaluator.partition,
                   cap)


def default_weight_grid() -> List[Tuple[float, float, float]]:
    """27-point logarithmic (q, r1, r2) grid."""
    vals = (1e-2, 1.0, 1e2)
    return [(q, r1, r2) for q in vals for r1 in vals for r2 in vals]


def certify_grid(param_list: Sequence[ProblemParams],
                 weights: Optional[Sequence[Tuple[float, float, float]]]
                 = None,
                 cap: Optional[float] = None) -> List[CertReport]:
    """Certify every (params, weights) combination; deterministic order.
    Each base's weightings are answered by one best_many and one
    weighted_many call, and each report is certify_point's.  A cap, a
    weighting or a base outside certify_point's domain is rejected before
    any evaluator is built."""
    _check_cap(cap)
    weights = default_weight_grid() if weights is None else list(weights)
    check_weightings(weights)
    param_list = list(param_list)
    for base in param_list:
        check_certified(base)
    reports = []
    for base in param_list:
        evaluator = LowerBoundEvaluator(base)
        results = UpperBoundEvaluator(base).best_many(weights)
        lowers = evaluator.weighted_many(weights)
        for (q, r1, r2), res, lower in zip(weights, results, lowers):
            p = ProblemParams(a=base.a, q=q, r1=r1, r2=r2,
                              sigma0_sq=base.sigma0_sq,
                              sigmav1_sq=base.sigmav1_sq,
                              sigmav2_sq=base.sigmav2_sq)
            reports.append(_report(p, res, lower, evaluator.partition, cap))
    return reports


def weak_grid_params() -> List[ProblemParams]:
    """Weakly degraded certification grid: a in {2.5, 5, 25},
    sigmav1_sq in {0, 1, 10}, sigmav2_sq = max(1, a^2 sv1^2) * {0.1, 1}
    (raised to sv1^2 when the 0.1 multiple would fall below it, keeping the
    labeling convention; still weakly degraded)."""
    out = []
    for a in (2.5, 5.0, 25.0):
        for sv1 in (0.0, 1.0, 10.0):
            m = max(1.0, a * a * sv1)
            for f in (0.1, 1.0):
                sv2 = max(m * f, sv1)
                out.append(ProblemParams(a=a, sigmav1_sq=sv1,
                                         sigmav2_sq=sv2))
    return out


def strong_grid_params() -> List[ProblemParams]:
    """Strongly degraded certification grid: a in {2.5, 5, 25, 100},
    stage s in {1, 2, 3} realized by placing sigmav2_sq at the log-midpoint
    of the stage-s bracket, sigmav1_sq in {0, 1, 10}."""
    out = []
    for a in (2.5, 5.0, 25.0, 100.0):
        for sv1 in (0.0, 1.0, 10.0):
            m = max(1.0, a * a * sv1)
            for s in (1, 2, 3):
                sv2 = a ** (2 * s - 1) * m
                out.append(ProblemParams(a=a, sigmav1_sq=sv1,
                                         sigmav2_sq=sv2))
    return out


def prop1_divergence(a_values: Iterable[float]) -> List[dict]:
    """Linear-strategy lower bound a^3/66 vs nonlinear upper bound
    3297 a^2 ln a; their ratio (computed in log space) diverges, and is
    strictly increasing along any increasing sequence of a.  No a is a
    ValueError."""
    rows = []
    for a in a_values:
        if not PROP1_A_MIN <= a < math.inf:
            raise ValueError(f"requires a finite a >= {PROP1_A_MIN:g}")
        log_lin = 3 * math.log(a) - math.log(66.0)
        log_nonlin = math.log(3297.0) + 2 * math.log(a) \
            + math.log(math.log(a))
        rows.append({
            "a": a,
            "linear_lb": math.exp(log_lin),
            "nonlinear_ub": math.exp(log_nonlin),
            "ratio": math.exp(log_lin - log_nonlin),
        })
    if not rows:
        raise ValueError("requires at least one gain a")
    return rows
