"""Analytic achievability bounds: the signaling tradeoff triple, the linear
bang-bang triples, and the weighted-cost optimizer over those candidates
(UpperBoundEvaluator: built once per system, asked for any number of
weightings).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import ProblemParams, TradeoffPoint, check_weightings, classify
from .lattice import SERIES_GUARD_TERMS, SERIES_MAX_TERMS, \
    SeriesNonConvergent, comb_miss_terms, comb_outage_terms, gaussian_comb, \
    truncated_sum
from .strategies import StrategySpec

#: lattice-step grid for the (d, w1) search, relative to sigma_v2 / |a|^s
D_GRID_LO = 1e-4
D_GRID_HI = 1e4
D_GRID_POINTS = 200

#: w1 refinement multipliers around the base pairing w1 = |a|^s d / 6
W1_REFINE = (1.0 / 3.0, 0.5, 1.0, 2.0, 3.0)


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

    with D the four-line disturbance bound.  Raises ValueError on an
    infeasible design and SeriesNonConvergent when a tail series fails its
    guard.  The one-design case of du1_outcomes' batch evaluation.
    """
    out, = _du1_rows(p, [design])
    if isinstance(out, Exception):
        raise out
    return out


def linbb_bound(p: ProblemParams, controller: int) -> TradeoffPoint:
    """Linear bang-bang triple (a^2 sv^2 + 1, a^4 sv^2 + a^2 sv^2 + a^2, 0)
    on the active controller's side; a noiseless side's power is a^2 (its
    a^4 sv^2 term is 0, also where a^4 overflows a float)."""
    a2 = p.a * p.a
    sv = p.sigmav1_sq if controller == 1 else p.sigmav2_sq
    D = a2 * sv + 1.0
    P = a2 * a2 * sv + a2 * sv + a2 if sv else a2
    if controller == 1:
        return TradeoffPoint(D, P, 0.0)
    return TradeoffPoint(D, 0.0, P)


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


def _du1_rows(p: ProblemParams, designs: Sequence[SigDesign]
              ) -> List[Union[TradeoffPoint, Exception]]:
    """Each design's du1 triple, or the exception du1 raises for it.

    A design's coarse comb has spacing step = |a|^s d and width
    B = |a|^{s-1} d |a|/(|a|-1) + w1, and its outage rate o1 is
    gaussian_comb(w1, spread), one call for all designs.  D's two tail
    series on that comb under noise sv2 are summed for all designs as the
    rows of one truncated_sum each: the miss series of comb_miss_terms,
    each term scaled by 4 a^2, then the outage series of
    comb_outage_terms.  A row's sum does not depend on the rows beside
    it.
    """
    A = abs(p.a)
    A2 = A * A
    sv2 = math.sqrt(p.sigmav2_sq)
    outs: list = [None] * len(designs)
    parts = []
    for k, design in enumerate(designs):
        s, d, w1 = design.s, design.d, design.w1
        try:
            design.check(p.a)
            A2s = A ** (2 * s)
            step = A ** s * d
            B = A ** (s - 1) * d * A / (A - 1) + w1
            line1 = 2.0 * A2s * (2.0 * (d / 2) ** 2
                                 * (1.0 / (1.0 - 1.0 / A)) ** 2
                                 + 2.0 / (1.0 - 1.0 / A2)
                                 + 2.0 * A2 * p.sigmav1_sq)
            spread = math.sqrt(A ** (2 * (s - 1)) * A2 / (A2 - 1)
                               + A2s * p.sigmav1_sq)
        except _FAILURES as exc:
            outs[k] = exc
            continue
        parts.append((k, step, B, line1, w1, spread))
    if not parts:
        return outs
    rows, steps, Bs, line1s, w1s, spreads = zip(*parts)
    # Python floats: D's sum below stays in float arithmetic
    o1s = gaussian_comb(np.array(w1s), np.array(spreads)).tolist()
    if sv2 > 0:
        step, B = np.array(steps)[:, None], np.array(Bs)[:, None]
        series1, failed = truncated_sum(
            lambda i, live: comb_miss_terms(i, step[live], B[live], sv2,
                                            4.0 * A2), len(rows))
        # the outage series only where the miss series settled
        ok = np.flatnonzero(~failed)
        series2 = np.full(len(rows), math.nan)
        if ok.size:
            series2[ok], failed[ok] = truncated_sum(
                lambda i, live: comb_outage_terms(i, step[ok[live]], sv2),
                ok.size)
    else:
        # only the outage series' i = 1 term survives (Q(0) = 1/2)
        series1 = [0.0] * len(rows)
        series2 = [(1.5 * step) ** 2 * 0.5 for step in steps]
        failed = [False] * len(rows)
    for j, k in enumerate(rows):
        if failed[j]:
            outs[k] = SeriesNonConvergent(
                f"series term not decreasing after {SERIES_GUARD_TERMS} "
                f"terms, or no convergence in {SERIES_MAX_TERMS} terms")
            continue
        s, d = designs[k].s, designs[k].d
        try:
            D = line1s[j] + float(series1[j]) \
                + 4.0 * A2 * o1s[j] * float(series2[j]) \
                + 2.0 * A2 * (d / 2) ** 2 + 1.0
            outs[k] = TradeoffPoint(
                D, A2 * d * d / 4.0,
                8.0 * A2 * D + 3.5 * A ** (2 * (s + 1)) * d * d
                + 4.0 * A2 * p.sigmav2_sq)
        except _FAILURES as exc:
            outs[k] = exc
    return outs


def du1_outcomes(p: ProblemParams,
                 designs: Sequence[SigDesign]) -> List[Outcome]:
    """Each design's du1 outcome, its triple or the name of the exception
    du1 raises.  One batch evaluation sums the tail series of all designs
    as rows of one array; du1 is the same evaluation on one row, so every
    triple is du1's bit for bit."""
    outcomes: List[Outcome] = []
    for design, out in zip(designs, _du1_rows(p, designs)):
        if isinstance(out, Exception):
            # evaluated once more through du1: perfbench counts failures
            # as raised du1 spans (test_child_spans_fit_inside_their_parent)
            try:
                out = du1(p, design)
            except _FAILURES as exc:
                out = type(exc).__name__
        outcomes.append(out)
    return outcomes


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


def _first_min(costs: np.ndarray) -> np.ndarray:
    """Per row of costs, the index the loop `if best is None or cost <
    best` keeps: the first candidate when its cost is NaN (nothing compares
    below NaN), else the first minimum of the other costs (NaN never
    improves)."""
    picks = np.argmin(np.where(np.isnan(costs), np.inf, costs), axis=1)
    picks[np.isnan(costs[:, 0])] = 0
    return picks


#: the linear bang-bang strategies, controller 1 then 2
_LINBB_SPECS = (StrategySpec("linbb", controller=1),
                StrategySpec("linbb", controller=2))

#: the triple that stands in for a failed design in a walk's cost table
_NO_POINT = TradeoffPoint(0.0, 0.0, 0.0)


def _weighted_rows(points: TradeoffPoint, w: np.ndarray) -> np.ndarray:
    """points.weighted(q, r1, r2) for each weighting (q, r1, r2), a row of
    w.  Fields of shape (points,) give (weightings x points) costs; fields
    of shape (weightings, candidates) give each weighting's row its own
    candidates.  Term by term as in weighted, so each cost keeps its bits,
    and a zero weight's term is 0.0 (not 0 * inf)."""
    # a weight near the float limit overflows a cost to +inf, its intended
    # value
    with np.errstate(over="ignore", invalid="ignore"):
        q, r1, r2 = terms = [w[:, k, None] * field
                             for k, field in enumerate(points)]
        if not w.all():
            for term, zero in zip(terms, (w == 0).T):
                term[zero] = 0.0
        return (q + r1) + r2


class UpperBoundEvaluator:
    """Weight-independent part of the achievable bound for one system
    (a, sigma0_sq, sigmav1_sq, sigmav2_sq): the linear bang-bang triples,
    the grid designs' triples as arrays, and a memo from each design
    evaluated so far to its du1 outcome.  best_many answers a sequence of
    weightings together: one cost array picks every weighting's grid
    design, and the refinements of all the picks that the memo lacks are
    evaluated in one du1_outcomes batch (the grid is one batch too)."""

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
        """best_many at the one weighting (q, r1, r2)."""
        return self.best_many([(q, r1, r2)])[0]

    def best_many(self, weights: Sequence[Tuple[float, float, float]]
                  ) -> List[UpperResult]:
        """For each weighting (q, r1, r2), minimize q D + r1 P1 + r2 P2
        over the linear bang-bang triples and the signaling designs: the
        best grid design, then its REFINE neighbours, keeping only strict
        improvements in that order.  A negative or non-finite weight
        raises ValueError before any weighting is answered.

        One (weightings x grid designs) cost array picks each weighting's
        grid design.  The neighbours of every distinct pick that the memo
        lacks are evaluated in one du1_outcomes batch, and one
        (weightings x [pick] + neighbours) cost array walks the
        refinements; a failed neighbour's cost is NaN, which never
        improves.  So each result, failures included, is that of the
        one-weighting loop, bit for bit."""
        weights = list(weights)
        check_weightings(weights)
        sig = self._refined(weights) if self.designs and weights else None
        results = []
        for k, (q, r1, r2) in enumerate(weights):
            best = None
            for spec, point in zip(_LINBB_SPECS, self.linbb):
                cost = point.weighted(q, r1, r2)
                if best is None or cost < best[0]:
                    best = (cost, spec, point, None)
            failures = self.grid_failures
            if sig is not None:
                cost, design, failures = sig[k]
                if cost < best[0]:
                    best = (cost, StrategySpec("sig", s=design.s, d=design.d),
                            self._memo[design], design)
            results.append(UpperResult(*best, failures=dict(failures)))
        return results

    def _refined(self, weights) -> List[Tuple[float, SigDesign, Counter]]:
        """Per weighting, the signaling search's best cost and design, and
        the failures it considered (grid and refinement)."""
        w = np.array(weights, dtype=float).reshape(len(weights), 3)
        picks = _first_min(_weighted_rows(self.points, w)).tolist()
        a = self.p.a
        # each distinct pick's walk, [pick] + its feasible neighbours in
        # REFINE order, by first pick; rows[k] is weighting k's walk
        slot: Dict[int, int] = {}
        walks: List[List[SigDesign]] = []
        for i in picks:
            if i not in slot:
                slot[i] = len(walks)
                base = self.designs[i]
                walks.append([base] + [design for design in (
                    SigDesign(base.s, base.d * fd, base.w1 * fd * fw)
                    for fd, fw in REFINE) if design.margin(a) > 0])
        rows = [slot[i] for i in picks]
        new = list(dict.fromkeys(design for walk in walks for design in walk
                                 if design not in self._memo))
        self._memo.update(zip(new, du1_outcomes(self.p, new)))
        # one row of candidate triples per walk, padded to 1 + len(REFINE);
        # ok marks the designs that did not fail
        table, ok, failures = [], [], []
        for walk in walks:
            outs = [self._memo[design] for design in walk]
            fails = Counter(self.grid_failures)
            fails.update(out for out in outs if isinstance(out, str))
            failures.append(fails)
            pad = 1 + len(REFINE) - len(outs)
            ok.append([not isinstance(out, str) for out in outs]
                      + [False] * pad)
            table.append([_NO_POINT if isinstance(out, str) else out
                          for out in outs] + [_NO_POINT] * pad)
        cand = np.array(table)[rows]
        costs = _weighted_rows(TradeoffPoint(*cand.transpose(2, 0, 1)), w)
        costs[~np.array(ok)[rows]] = np.nan
        choice = _first_min(costs).tolist()
        best = costs[range(len(rows)), choice].tolist()
        return [(cost, walks[b][j], failures[b])
                for cost, b, j in zip(best, rows, choice)]


def optimize_upper(p: ProblemParams) -> UpperResult:
    """Minimize q D + r1 P1 + r2 P2 over the linear bang-bang triples and
    the signaling designs (stage fixed by the regime) at p's own weights;
    falls back to the linear candidates when no feasible signaling design
    exists.  To answer several weightings of one system, build one
    UpperBoundEvaluator and ask its best or best_many."""
    return UpperBoundEvaluator(p).best(p.q, p.r1, p.r2)


def sweep_labels(a: float, l_values) -> List[dict]:
    """Regularization sweep: for sv1^2 = 0, sv2^2 = |a|, q = 1,
    r1 = |a|^l, r2 = 0, report per l the problem ("params") and its best
    candidate ("result", an UpperResult).  Every bound depends on |a| only,
    so a negative a sweeps the same family.  Raises ValueError, before any
    row is computed, where |a|^l overflows a float."""
    base = ProblemParams(a=a, sigmav1_sq=0.0, sigmav2_sq=abs(float(a)))
    weights = []
    for l in map(float, l_values):
        try:
            weights.append((l, abs(float(a)) ** l))
        except OverflowError:
            raise ValueError(f"r1 = |a|^l overflows a float at a = {a:g}, "
                             f"l = {l:g}") from None
    results = UpperBoundEvaluator(base).best_many(
        [(base.q, r1, base.r2) for _, r1 in weights])
    return [{"l": l, "params": replace(base, r1=r1), "result": res}
            for (l, r1), res in zip(weights, results)]
