"""Analytic achievability bounds: the signaling tradeoff triple, the linear
bang-bang triples, the simplified signaling envelope, and the weighted-cost
optimizer over those candidates (UpperBoundEvaluator: built once per
system, asked once per weighting).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .bounds_lower import SIG_DECAY_COEF, RegionPartition
from .core import A_MIN_CERTIFIED, ProblemParams, Regime, TradeoffPoint, \
    classify, noise_floor
from .lattice import SeriesNonConvergent, comb_miss_series, \
    comb_miss_terms, comb_outage_series, comb_outage_terms, gaussian_comb, \
    truncated_sum
from .strategies import StrategySpec

#: lattice-step grid for the (d, w1) search, relative to sigma_v2 / |a|^s
D_GRID_LO = 1e-4
D_GRID_HI = 1e4
D_GRID_POINTS = 200

#: w1 refinement multipliers around the base pairing w1 = |a|^s d / 6
W1_REFINE = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)

#: coefficients of the simplified signaling envelope (simplified_upper)
ENV_D_SIG_COEF = 832.0
ENV_D_M_COEF = 63.0
ENV_P1_COEF = 80000.0
ENV_P2_SIG_COEF = 6656.0
ENV_P2_M_COEF = 564.0


@dataclass(frozen=True)
class SigDesign:
    """Signaling design (s, d, w1); feasibility requires

        d > 0, w1 > 0, |a|^s d - (|a|^{s-1} d |a|/(|a|-1) + w1) > 0.
    """

    s: int
    d: float
    w1: float

    def margin(self, a: float) -> float:
        A = abs(a)
        return A ** self.s * self.d - (A ** (self.s - 1) * self.d
                                       * A / (A - 1) + self.w1)

    def check(self, a: float) -> None:
        if abs(a) <= 1:
            raise ValueError("requires |a| > 1")
        if self.d <= 0:
            raise ValueError("infeasible design: d > 0 violated")
        if self.w1 <= 0:
            raise ValueError("infeasible design: w1 > 0 violated")
        if self.margin(a) <= 0:
            raise ValueError(
                "infeasible design: |a|^s d - (|a|^{s-1} d |a|/(|a|-1) + w1)"
                " > 0 violated")


def du1(p: ProblemParams, design: SigDesign) -> TradeoffPoint:
    """Achievable tradeoff triple of the s-stage signaling strategy:

        (D, a^2 d^2 / 4, 8 a^2 D + (7/2) a^{2(s+1)} d^2 + 4 a^2 sv2^2)

    with D the four-line disturbance bound.  Its tail series are
    comb_miss_series and comb_outage_series on the coarse comb (|a|^s d, B)
    under noise sv2, and its outage rate is gaussian_comb(w1, spread): the
    parts lattice.quantized_mmse_bound is built from.

    The one evaluation of a design: raises ValueError on an infeasible
    design and SeriesNonConvergent when a tail series fails its guard.
    du1_outcomes gives the same triples for many designs at once.
    """
    step, B, line1, o1 = _du1_prelude(p, design)
    sv2 = math.sqrt(p.sigmav2_sq)
    if sv2 > 0:
        A = abs(p.a)
        series1 = comb_miss_series(step, B, sv2, 4.0 * (A * A))
        series2 = comb_outage_series(step, sv2)
    else:
        series1, series2 = _noiseless_series(step)
    return _du1_point(p, design, line1, o1, series1, series2)


def _du1_prelude(p: ProblemParams, design: SigDesign):
    """du1's parts before its tail series: the coarse comb's spacing and
    width (step, B), the first line of D, and the outage rate o1."""
    design.check(p.a)
    A = abs(p.a)
    s, d, w1 = design.s, design.d, design.w1
    A2 = A * A
    A2s = A ** (2 * s)
    step = A ** s * d
    B = A ** (s - 1) * d * A / (A - 1) + w1
    line1 = 2.0 * A2s * (2.0 * (d / 2) ** 2 * (1.0 / (1.0 - 1.0 / A)) ** 2
                         + 2.0 / (1.0 - 1.0 / A2) + 2.0 * A2 * p.sigmav1_sq)
    spread = math.sqrt(A ** (2 * (s - 1)) * A2 / (A2 - 1)
                       + A2s * p.sigmav1_sq)
    return step, B, line1, gaussian_comb(w1, spread).o


def _noiseless_series(step: float) -> Tuple[float, float]:
    """du1's tail series at sv2 = 0: only the outage series' i = 1 term
    survives (Q(0) = 1/2)."""
    return 0.0, (1.5 * step) ** 2 * 0.5


def _du1_point(p: ProblemParams, design: SigDesign, line1: float,
               o1: float, series1: float, series2: float) -> TradeoffPoint:
    """du1's triple from its prelude and its two tail series."""
    A = abs(p.a)
    s, d = design.s, design.d
    A2 = A * A
    D = line1 + series1 + 4.0 * A2 * o1 * series2 \
        + 2.0 * A2 * (d / 2) ** 2 + 1.0
    P1 = A2 * d * d / 4.0
    P2 = 8.0 * A2 * D + 3.5 * A ** (2 * (s + 1)) * d * d \
        + 4.0 * A2 * p.sigmav2_sq
    return TradeoffPoint(D, P1, P2)


def linbb_bound(p: ProblemParams, controller: int) -> TradeoffPoint:
    """Linear bang-bang triple (a^2 sv^2 + 1, a^4 sv^2 + a^2 sv^2 + a^2, 0)
    on the active controller's side."""
    a2 = p.a * p.a
    sv = p.sigmav1_sq if controller == 1 else p.sigmav2_sq
    D = a2 * sv + 1.0
    P = a2 * a2 * sv + a2 * sv + a2
    if controller == 1:
        return TradeoffPoint(D, P, 0.0)
    return TradeoffPoint(D, 0.0, P)


def simplified_bracket(p: ProblemParams, s: int) -> Tuple[float, float]:
    """Validity bracket [t1, t1hi] of the simplified signaling envelope: the
    stage-s signaling bracket of the region partition,
    sv2^2/(70 a^{2(s-1)}) <= P <= max(a^2, a^4 sv1^2)/20000.  Raises unless
    p is strongly degraded at stage s."""
    part = RegionPartition(p)
    if part.regime != Regime("strong", s):
        raise ValueError("s does not bracket sigmav2_sq")
    return part.t1, part.t1hi


def simplified_upper(p: ProblemParams, s: int, P: float) -> TradeoffPoint:
    """Closed-form signaling envelope at design power P:

        D  = 832 a^{2s} P e^{-50 a^{2(s-1)} P / sv2^2} + 63 a^{2s} m
        P1 = 80000 P
        P2 = 6656 a^{2(s+1)} P e^{...} + 564 a^{2(s+1)} m

    with m = max(1, a^2 sv1^2), valid on the bracket of simplified_bracket.
    """
    A = abs(p.a)
    if A < A_MIN_CERTIFIED:
        raise ValueError(f"requires |a| >= {A_MIN_CERTIFIED}")
    lo, hi = simplified_bracket(p, s)
    if not (lo <= P <= hi):
        raise ValueError(f"P outside the validity bracket [{lo}, {hi}]")
    m = noise_floor(p)
    decay = math.exp(-SIG_DECAY_COEF * A ** (2 * (s - 1)) * P
                     / p.sigmav2_sq)
    A2s = A ** (2 * s)
    A2s1 = A ** (2 * (s + 1))
    return TradeoffPoint(
        ENV_D_SIG_COEF * A2s * P * decay + ENV_D_M_COEF * A2s * m,
        ENV_P1_COEF * P,
        ENV_P2_SIG_COEF * A2s1 * P * decay + ENV_P2_M_COEF * A2s1 * m)


def appendix_design(p: ProblemParams, s: int, P: float) -> SigDesign:
    """The design pairing behind the simplified envelope:
    d = sqrt(320000 P / a^2), w1 = |a|^s d / 6."""
    d = math.sqrt(4.0 * ENV_P1_COEF * P / (p.a * p.a))
    return SigDesign(s, d, abs(p.a) ** s * d / 6.0)


@dataclass(frozen=True)
class UpperResult:
    """Best candidate at one weighting.  failures counts, by exception
    type name, the signaling designs the search considered whose du1
    raised (grid and refinement)."""

    cost: float
    spec: StrategySpec
    point: TradeoffPoint
    design: Optional[SigDesign] = None
    failures: Dict[str, int] = field(default_factory=dict, hash=False)


#: (d, w1) refinement multipliers around the best grid design, in search
#: order: d by fd, w1 by fd * fw
REFINE = tuple((fd, fw) for fd in (0.6, 0.8, 1.0, 1.25, 1.6)
               for fw in W1_REFINE)

#: outcome of one design: its du1 point, or the name of the exception
Outcome = Union[TradeoffPoint, str]


def _sig_candidates(p: ProblemParams, s: int) -> List[SigDesign]:
    scale = math.sqrt(p.sigmav2_sq) / abs(p.a) ** s
    ds = np.geomspace(D_GRID_LO * scale, D_GRID_HI * scale, D_GRID_POINTS)
    out = []
    for d in ds:
        design = SigDesign(s, float(d), abs(p.a) ** s * float(d) / 6.0)
        if design.margin(p.a) > 0:
            out.append(design)
    return out


#: the exceptions that make a design's outcome a failure, not a triple
_FAILURES = (SeriesNonConvergent, ValueError, OverflowError)


def _eval_design(p: ProblemParams, design: SigDesign) -> Outcome:
    try:
        return du1(p, design)
    except _FAILURES as exc:
        return type(exc).__name__


def du1_outcomes(p: ProblemParams,
                 designs: Sequence[SigDesign]) -> List[Outcome]:
    """Each design's du1 outcome, its triple or the name of the exception
    du1 raises, with the tail series of all designs summed as rows of one
    array evaluation.  du1's prelude and epilogue run per design on the
    same floats, so every triple is du1's bit for bit.  A design the
    batch does not settle (its prelude or epilogue raises, or a series
    fails its guard) gets du1's own outcome."""
    A = abs(p.a)
    sv2 = math.sqrt(p.sigmav2_sq)
    rows, parts = [], []
    for k, design in enumerate(designs):
        try:
            parts.append(_du1_prelude(p, design))
        except _FAILURES:
            continue
        rows.append(k)
    outcomes: List[Optional[Outcome]] = [None] * len(designs)
    if rows:
        steps, Bs, line1s, o1s = zip(*parts)
        if sv2 > 0:
            step, B = np.array(steps)[:, None], np.array(Bs)[:, None]
            series1, failed = truncated_sum(
                lambda i, live: comb_miss_terms(i, step[live], B[live], sv2,
                                                4.0 * (A * A)), len(rows))
            # the outage series only where the miss series settled, as in
            # du1, which stops at the first failure
            ok = np.flatnonzero(~failed)
            series2 = np.full(len(rows), math.nan)
            series2[ok], failed[ok] = truncated_sum(
                lambda i, live: comb_outage_terms(i, step[ok[live]], sv2),
                ok.size)
        else:
            series1, series2 = zip(*map(_noiseless_series, steps))
            failed = np.zeros(len(rows), dtype=bool)
        for j, k in enumerate(rows):
            if failed[j]:
                continue
            try:
                outcomes[k] = _du1_point(p, designs[k], line1s[j], o1s[j],
                                         float(series1[j]),
                                         float(series2[j]))
            except _FAILURES:
                pass
    return [_eval_design(p, design) if out is None else out
            for design, out in zip(designs, outcomes)]


def sig_candidate_points(p: ProblemParams) -> List[Tuple[SigDesign,
                                                         Outcome]]:
    """Feasible signaling designs on the search grid, each with its
    analytic tradeoff point or the name of the exception du1 raised (empty
    in the weak regime).  Weight-independent."""
    regime = classify(p)
    if regime.kind != "strong":
        return []
    designs = _sig_candidates(p, regime.s)
    return list(zip(designs, du1_outcomes(p, designs)))


def _first_min(costs) -> int:
    """The index the loop `if best is None or cost < best` keeps: the
    first candidate when its cost is NaN (nothing compares below NaN),
    else the first minimum of the other costs (NaN never improves)."""
    costs = np.asarray(costs)
    if np.isnan(costs.flat[0]):
        return 0
    return int(np.argmin(np.where(np.isnan(costs), np.inf, costs)))


class UpperBoundEvaluator:
    """Weight-independent part of the achievable bound for one system
    (a, sigma0_sq, sigmav1_sq, sigmav2_sq): the linear bang-bang triples,
    the grid designs' triples as arrays, and a memo from each design
    evaluated so far to its du1 outcome.  Each weighting picks the best
    grid design with one array reduction and evaluates only the designs
    of its refinement the memo lacks, in one du1_outcomes batch (the grid
    is one batch too)."""

    def __init__(self, p: ProblemParams):
        self.p = p
        self.linbb = (linbb_bound(p, 1), linbb_bound(p, 2))
        grid = sig_candidate_points(p)
        self._memo: Dict[SigDesign, Outcome] = dict(grid)
        self.grid_failures = Counter(out for _, out in grid
                                     if isinstance(out, str))
        ok = [(design, out) for design, out in grid
              if not isinstance(out, str)]
        self.designs = [design for design, _ in ok]
        self.points = TradeoffPoint(*np.array([out for _, out in ok]).T) \
            if ok else None

    def best(self, q: float, r1: float, r2: float) -> UpperResult:
        """Minimize q D + r1 P1 + r2 P2 over the linear bang-bang triples
        and the signaling designs: the best grid design, then its REFINE
        neighbours, keeping only strict improvements in that order.  The
        neighbours the memo lacks are evaluated together first."""
        failures = Counter(self.grid_failures)
        best = None
        for controller, point in enumerate(self.linbb, 1):
            cost = point.weighted(q, r1, r2)
            if best is None or cost < best[0]:
                best = (cost, StrategySpec("linbb", controller=controller),
                        point, None)
        if self.designs:
            a = self.p.a
            # a weight near the float limit overflows a design's cost to
            # +inf, its intended value
            with np.errstate(over="ignore"):
                costs = self.points.weighted(q, r1, r2)
            base = self.designs[_first_min(costs)]
            point = self._memo[base]
            sig = (point.weighted(q, r1, r2), point, base)
            refine = [design for design in (
                SigDesign(base.s, base.d * fd, base.w1 * fd * fw)
                for fd, fw in REFINE) if design.margin(a) > 0]
            new = [design for design in refine if design not in self._memo]
            self._memo.update(zip(new, du1_outcomes(self.p, new)))
            for design in refine:
                out = self._memo[design]
                if isinstance(out, str):
                    failures[out] += 1
                    continue
                cost = out.weighted(q, r1, r2)
                if cost < sig[0]:
                    sig = (cost, out, design)
            cost, point, design = sig
            if cost < best[0]:
                best = (cost, StrategySpec("sig", s=design.s, d=design.d),
                        point, design)
        return UpperResult(*best, failures=dict(failures))


def optimize_upper(p: ProblemParams,
                   upper: Optional[UpperBoundEvaluator] = None
                   ) -> UpperResult:
    """Minimize q D + r1 P1 + r2 P2 over the linear bang-bang triples and
    the signaling designs (stage fixed by the regime) at p's own weights;
    falls back to the linear candidates when no feasible signaling design
    exists.  upper, when given, must be built for p's system; reusing it
    across weightings evaluates each design once."""
    if upper is None:
        upper = UpperBoundEvaluator(p)
    else:
        upper.p.check_base(p)
    return upper.best(p.q, p.r1, p.r2)


def upper_envelope_D(p: ProblemParams, P1: float, P2: float,
                     sig_points: Optional[List[TradeoffPoint]] = None
                     ) -> float:
    """Best achievable disturbance among candidates whose power components
    fit under (P1, P2); +inf when none fits."""
    best = math.inf
    for controller in (1, 2):
        point = linbb_bound(p, controller)
        if point.P1 <= P1 and point.P2 <= P2:
            best = min(best, point.D)
    if sig_points:
        for point in sig_points:
            if point.P1 <= P1 and point.P2 <= P2:
                best = min(best, point.D)
    return best


def sweep_labels(a: float, l_values) -> List[dict]:
    """Regularization sweep: for sv1^2 = 0, sv2^2 = a, q = 1, r1 = a^l,
    r2 = 0, report per l the problem ("params"), and the best candidate's
    label and cost.  Raises ValueError, before any row is computed, where
    a^l overflows a float."""
    base = ProblemParams(a=a, sigmav1_sq=0.0, sigmav2_sq=float(a))
    weights = []
    for l in map(float, l_values):
        try:
            weights.append((l, float(a) ** l))
        except OverflowError:
            raise ValueError(f"r1 = a^l overflows a float at a = {a:g}, "
                             f"l = {l:g}") from None
    upper = UpperBoundEvaluator(base)
    rows = []
    for l, r1 in weights:
        p = replace(base, r1=r1)
        res = optimize_upper(p, upper)
        rows.append({"l": l, "params": p, "label": res.spec.label,
                     "cost": res.cost, "D": res.point.D,
                     "P1": res.point.P1, "P2": res.point.P2})
    return rows
