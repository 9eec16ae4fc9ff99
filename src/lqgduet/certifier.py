"""Constant-ratio certification: ratio-transfer hypothesis checks over the
region partition of the power plane with the closed-form region constants,
grid certification reports, and the large-a linear/nonlinear divergence
table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import A_MIN_CERTIFIED, ProblemParams, Regime, \
    check_weightings, classify
from .bounds_lower import FLOOR_COEF, IV_M_COEF, IV_SIG_COEF, \
    STRONG_II_COEF, STRONG_T1HI_DIV, STRONG_T2A_DIV, T2C_M_COEF, \
    T2C_SIG_COEF, WEAK_II_COEF, WEAK_T_DIV, LowerBoundEvaluator, \
    RegionPartition
from .bounds_upper import ENV_D_M_COEF, ENV_D_SIG_COEF, ENV_P1_COEF, \
    ENV_P2_M_COEF, ENV_P2_SIG_COEF, UpperBoundEvaluator, UpperResult, \
    optimize_upper, simplified_upper, upper_envelope_D

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


def ratio_transfer_check(DU: Callable[[float, float], float],
                         DL: Callable[[float, float], float],
                         c: float,
                         grid: Iterable[Tuple[float, float]]) -> bool:
    """Hypothesis of the ratio-transfer lemma on a sampled grid:
    DU(c x1, c x2) <= c DL(x1, x2) at every grid point.  When it holds
    everywhere, the lemma gives the weighted-cost ratio cap for every
    (q, r1, r2); only the hypothesis is checked here."""
    if c < 1:
        raise ValueError("c must be >= 1")
    for x1, x2 in grid:
        dl = DL(x1, x2)
        if math.isinf(dl):
            continue
        if DU(c * x1, c * x2) > c * dl * (1 + 1e-12):
            return False
    return True


def _envelope_DU(part: RegionPartition) -> Callable[[float, float], float]:
    """Achievable disturbance at a power budget: upper_envelope_D over the
    two linear candidates and (strong regime) the closed-form signaling
    envelope sampled on its bracket."""
    p = part.p
    sig: List = []
    if part.regime.kind == "strong" and part.t1 <= part.t1hi:
        sig = [simplified_upper(p, part.regime.s, float(P))
               for P in np.geomspace(part.t1, part.t1hi, 120)]
    return lambda P1, P2: upper_envelope_D(p, P1, P2, sig)


def region_constants(p: ProblemParams) -> dict:
    """Closed-form per-region ratio constants (regions whose lower bound is
    +inf need no constant and are listed with 1)."""
    regime = classify(p)
    if regime.kind == "weak":
        return {"weak-i": 1.0,
                "weak-ii": max(1.0 / WEAK_II_COEF, 3 * WEAK_T_DIV),
                "weak-iii": max(2.0 / FLOOR_COEF, 1200.0)}
    return {"strong-i": 1.0,
            "strong-ii": max(1.0 / STRONG_II_COEF, 1.32 * STRONG_T2A_DIV),
            "strong-iii": 1.0,
            "strong-iv": max(ENV_D_SIG_COEF / IV_SIG_COEF,
                             ENV_D_M_COEF / IV_M_COEF, ENV_P1_COEF,
                             ENV_P2_SIG_COEF / T2C_SIG_COEF,
                             ENV_P2_M_COEF / T2C_M_COEF),
            "strong-v": max(2.0 / FLOOR_COEF, 3 * STRONG_T1HI_DIV)}


def _region_grid(part: RegionPartition, label: str,
                 n: int = 8) -> List[Tuple[float, float]]:
    """Sample points inside one region of the partition (none for the
    unstable regions i and iii and an empty signaling bracket)."""
    mults_hi = np.geomspace(1.01, 1e4, n)
    mults_lo = np.geomspace(1e-6, 0.99, n)
    mults_all = np.geomspace(1e-6, 1e4, n)
    region = part.labels.index(label)
    if region == 1:
        return [(part.t1 * f1, part.t2a * f2)
                for f1 in mults_lo for f2 in mults_hi]
    if region == 4:
        return [(part.v_edge * f1, part.t2a * f2)
                for f1 in mults_hi for f2 in mults_all]
    if region == 3 and part.iv_p1.size:
        return [(float(P1), float(part.t2c(P1)) * f2)
                for P1 in np.geomspace(part.t1 * 1.001, part.t1hi * 0.999, n)
                for f2 in mults_hi]
    return []


def appendix_region_checks(p: ProblemParams) -> dict:
    """Run the ratio-transfer hypothesis check region by region with the
    closed-form constants; returns {region label: bool}."""
    part = RegionPartition(p)
    DU = _envelope_DU(part)
    out = {}
    for label, c in region_constants(p).items():
        grid = _region_grid(part, label)
        out[label] = not grid or ratio_transfer_check(
            DU, part.floor, max(c, 1.0), grid)
    return out


def _check_cap(cap: Optional[float]) -> None:
    if cap is not None and not cap > 0:
        raise ValueError(f"cap must be > 0, got {cap!r}")


def _check_gain(p: ProblemParams) -> None:
    if abs(p.a) < A_MIN_CERTIFIED:
        raise ValueError(f"certification requires |a| >= {A_MIN_CERTIFIED}")


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
                  cap: Optional[float] = None,
                  evaluator: Optional[LowerBoundEvaluator] = None,
                  upper: Optional[UpperBoundEvaluator] = None
                  ) -> CertReport:
    """Certify the upper/lower weighted-cost ratio at one parameter point
    against the regime's cap: certify_grid's report at one weighting.  The
    lower and upper evaluators, when given, must be built for p's system
    (ValueError otherwise).  A cap, when given, must be > 0 (+inf
    allowed)."""
    _check_gain(p)
    _check_cap(cap)
    if evaluator is None:
        evaluator = LowerBoundEvaluator(p)
    else:
        evaluator.p.check_base(p)
    return _report(p, optimize_upper(p, upper),
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
    weighted_many call, and each report is certify_point's.  A cap or a
    weighting outside certify_point's domain is rejected before any
    evaluator is built."""
    _check_cap(cap)
    weights = default_weight_grid() if weights is None else list(weights)
    check_weightings(weights)
    reports = []
    for base in param_list:
        _check_gain(base)
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
