import csv
import math
import os
from collections import Counter

import numpy as np
import pytest

from lqgduet import bounds_upper
from lqgduet.certifier import (default_weight_grid, strong_grid_params,
                               weak_grid_params)
from lqgduet.core import ProblemParams, TradeoffPoint, classify
from lqgduet.bounds_lower import FLOOR_COEF, IV_M_COEF, IV_SIG_COEF, \
    SIG_DECAY_COEF, STRONG_II_COEF, STRONG_T1HI_DIV, STRONG_T2A_DIV, \
    T2C_M_COEF, T2C_SIG_COEF, WEAK_II_COEF, WEAK_T_DIV, RegionPartition
from lqgduet.bounds_upper import (D_GRID_HI, D_GRID_LO, D_GRID_POINTS,
                                  W1_REFINE, SigDesign, UpperBoundEvaluator,
                                  UpperResult, du1, linbb_bound,
                                  optimize_upper, sweep_labels)
from lqgduet.lattice import SERIES_BLOCK, SeriesNonConvergent, q_tail
from lqgduet.strategies import StrategySpec
from test_bounds_lower import _BAD_WEIGHTS


def test_design_feasibility():
    SigDesign(1, 1.0, 0.5).check(4.0)
    with pytest.raises(ValueError):
        SigDesign(1, -1.0, 0.5).check(4.0)
    with pytest.raises(ValueError):
        SigDesign(1, 1.0, 0.0).check(4.0)
    with pytest.raises(ValueError):
        # slack w1 too large: |a|^s d - (|a|^{s-1} d |a|/(|a|-1) + w1) <= 0
        SigDesign(1, 1.0, 5.0).check(4.0)


# frozen from an independent extended-precision evaluation of the triple
DU1_ORACLE = [
    ((4.0, 0.0, 16.0), (1, 1.0, 0.5),
     (3373.4144260676655, 4.0, 433717.04653666118)),
    ((2.5, 1.0, 6.25), (1, 2.0, 1.0),
     (1580.8876999974745, 6.25, 79747.509999873724)),
    ((100.0, 0.0, 1e5), (2, 0.05, 100.0 ** 2 * 0.05 / 6),
     (14105661483.345125, 6.25, 1128465668667610.0)),
]


@pytest.mark.parametrize("params,design,expect", DU1_ORACLE)
def test_du1_oracle_values(params, design, expect):
    a, sv1, sv2 = params
    p = ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2)
    pt = du1(p, SigDesign(*design))
    assert pt.D == pytest.approx(expect[0], rel=1e-12)
    assert pt.P1 == pytest.approx(expect[1], rel=1e-12)
    assert pt.P2 == pytest.approx(expect[2], rel=1e-12)


def test_du1_noiseless_second_observation_limit():
    # as sv2 -> 0 the cross-lattice series vanishes and only the outage
    # half-weight nearest-cell term survives
    a, s, d, w1 = 4.0, 1, 1.0, 0.1
    p = ProblemParams(a=a, sigmav1_sq=0.0, sigmav2_sq=0.0)
    pt = du1(p, SigDesign(s, d, w1))
    A2 = a * a
    step = a ** s * d
    line1 = 2 * a ** (2 * s) * (2 * (d / 2) ** 2 * (1 / (1 - 1 / a)) ** 2
                                + 2 / (1 - 1 / A2))
    spread = math.sqrt(a ** (2 * (s - 1)) * A2 / (A2 - 1))
    outw = q_tail(w1 / (2 * spread))
    expect = line1 + 8 * A2 * outw * (1.5 * step) ** 2 * 0.5 \
        + 2 * A2 * (d / 2) ** 2 + 1
    assert pt.D == pytest.approx(expect, rel=1e-12)


def test_du1_monotone_in_observation_noise():
    des = SigDesign(1, 1.0, 0.5)
    last = 0.0
    for sv2 in [1.0, 4.0, 16.0]:
        pt = du1(ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=sv2), des)
        assert pt.D > last
        last = pt.D


def test_linbb_bound_values():
    p = ProblemParams(a=2.5, sigmav1_sq=1.0, sigmav2_sq=4.0)
    pt = linbb_bound(p, 1)
    assert pt == (7.25, 51.5625, 0.0)
    pt2 = linbb_bound(p, 2)
    assert pt2.D == pytest.approx(6.25 * 4 + 1)
    assert pt2.P1 == 0.0
    assert pt2.P2 == pytest.approx(6.25 ** 2 * 4 + 6.25 * 4 + 6.25)


def test_linbb_bound_noiseless_side_pays_a_squared():
    # a^4 overflows at a = 1e100: before, its inf * 0 made P nan
    p = ProblemParams(a=1e100, sigmav1_sq=0.0, sigmav2_sq=1.0)
    assert linbb_bound(p, 1) == (1.0, 1e200, 0.0)
    # where a^4 is a float, the formula's own bits
    for a in (2.5, 1e3, 1e77):
        a2 = a * a
        assert linbb_bound(ProblemParams(a=a, sigmav2_sq=1.0), 1) \
            == (a2 * 0.0 + 1.0, a2 * a2 * 0.0 + a2 * 0.0 + a2, 0.0)


#: coefficients of the appendix's closed-form signaling envelope at design
#: power P, with e = exp(-50 a^{2(s-1)} P / sv2^2) and m = max(1, a^2 sv1^2):
#: D = 832 a^{2s} P e + 63 a^{2s} m, P1 = 80000 P and
#: P2 = 6656 a^{2(s+1)} P e + 564 a^{2(s+1)} m
ENV_D_SIG, ENV_D_M, ENV_P1, ENV_P2_SIG, ENV_P2_M = \
    832.0, 63.0, 80000.0, 6656.0, 564.0


def appendix_envelope(part, P):
    """The closed-form envelope at design power P, for P in the strong
    regime's signaling bracket [part.t1, part.t1hi]."""
    A, s = abs(part.p.a), part.regime.s
    decay = math.exp(-SIG_DECAY_COEF * A ** (2 * (s - 1)) * P
                     / part.p.sigmav2_sq)
    A2s, A2s1 = A ** (2 * s), A ** (2 * (s + 1))
    return TradeoffPoint(ENV_D_SIG * A2s * P * decay + ENV_D_M * A2s * part.m,
                         ENV_P1 * P,
                         ENV_P2_SIG * A2s1 * P * decay
                         + ENV_P2_M * A2s1 * part.m)


def appendix_regions(p):
    """p's region partition, and each region's label, closed-form ratio
    constant (1 where the floor is +inf) and 8x8 sample points (none in
    the unstable regions i and iii or an empty signaling bracket)."""
    part = RegionPartition(p)
    if part.regime.kind == "weak":
        constants = [1.0, max(1.0 / WEAK_II_COEF, 3 * WEAK_T_DIV), None, None,
                     max(2.0 / FLOOR_COEF, 1200.0)]
    else:
        constants = [1.0, max(1.0 / STRONG_II_COEF, 1.32 * STRONG_T2A_DIV),
                     1.0, max(ENV_D_SIG / IV_SIG_COEF, ENV_D_M / IV_M_COEF,
                              ENV_P1, ENV_P2_SIG / T2C_SIG_COEF,
                              ENV_P2_M / T2C_M_COEF),
                     max(2.0 / FLOOR_COEF, 3 * STRONG_T1HI_DIV)]
    hi, lo, wide = (np.geomspace(*span, 8) for span in
                    ((1.01, 1e4), (1e-6, 0.99), (1e-6, 1e4)))
    points = [[], [(part.t1 * f1, part.t2a * f2) for f1 in lo for f2 in hi],
              [], [], [(part.v_edge * f1, part.t2a * f2)
                       for f1 in hi for f2 in wide]]
    if part.iv_p1.size:
        points[3] = [(float(P1), float(part.t2c(P1)) * f2) for P1 in
                     np.geomspace(part.t1 * 1.001, part.t1hi * 0.999, 8)
                     for f2 in hi]
    return part, [(label, c, pts) for label, c, pts
                  in zip(part.labels, constants, points) if label]


def appendix_region_checks(p):
    """The ratio-transfer lemma's hypothesis DU(c x) <= c floor(x), region
    by region with its closed-form constant c (at least 1), at the sample
    points where the floor is finite; {region label: bool}.  DU(P1, P2) is
    the least D among the linear bang-bang triples and (strong regime) the
    closed-form envelope at 120 powers across the signaling bracket whose
    powers fit under (P1, P2)."""
    part, regions = appendix_regions(p)
    cands = [linbb_bound(p, 1), linbb_bound(p, 2)]
    if part.regime.kind == "strong" and part.t1 <= part.t1hi:
        cands += [appendix_envelope(part, float(P))
                  for P in np.geomspace(part.t1, part.t1hi, 120)]

    def holds(c, P1, P2):
        floor = part.floor(P1, P2)
        DU = min([math.inf] + [pt.D for pt in cands
                               if pt.P1 <= c * P1 and pt.P2 <= c * P2])
        return math.isinf(floor) or DU <= c * floor * (1 + 1e-12)

    return {label: all(holds(max(c, 1.0), *x) for x in pts)
            for label, c, pts in regions}


def test_appendix_design_matches_power():
    a = 1000.0
    part = RegionPartition(ProblemParams(a=a, sigmav1_sq=0.0, sigmav2_sq=a))
    P = math.sqrt(part.t1 * part.t1hi)
    # the appendix's design pairing behind the closed-form envelope:
    # d = sqrt(320000 P / a^2), so that P1 = a^2 d^2 / 4 = 80000 P, and
    # w1 = |a|^s d / 6
    d = math.sqrt(320000.0 * P / (a * a))
    des = SigDesign(1, d, a * d / 6.0)
    des.check(a)
    # the analytic triple of the concrete design is dominated by the
    # closed-form envelope componentwise
    pt = du1(part.p, des)
    assert pt.P1 == pytest.approx(80000 * P)
    env = appendix_envelope(part, P)
    assert pt.D <= env.D
    assert pt.P1 <= env.P1
    assert pt.P2 <= env.P2


def test_optimize_upper_picks_cheaper_linear_side():
    # symmetric noises, controller 1 cheaper
    p = ProblemParams(a=3.0, q=1.0, r1=0.1, r2=10.0, sigmav1_sq=1.0,
                      sigmav2_sq=1.0)
    res = optimize_upper(p)
    assert res.spec.label == "linbb1"
    assert res.cost == pytest.approx(p.weighted(linbb_bound(p, 1)))


def test_optimize_upper_uses_signaling_when_linear_power_expensive():
    p = ProblemParams(a=100.0, q=1.0, r1=100.0 ** 1.0, r2=0.0,
                      sigmav1_sq=0.0, sigmav2_sq=100.0)
    res = optimize_upper(p)
    assert res.spec.label == "sig1"
    assert res.cost < p.weighted(linbb_bound(p, 1))
    assert res.cost < p.weighted(linbb_bound(p, 2))


def test_optimize_upper_nonlinear_beats_cubic_scaling():
    # at large a the best strategy's weighted cost is far below the best
    # linear one (which scales like a^3 here)
    a = 1.0e4
    p = ProblemParams(a=a, q=1.0, r1=a, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=a)
    res = optimize_upper(p)
    assert res.cost <= 3297.0 * a * a * math.log(a)
    assert res.cost < a ** 3 / 66.0


def test_sweep_label_sequence_has_two_changes():
    ls = np.linspace(-1, 3, 17)
    rows = sweep_labels(100.0, ls)
    # each row carries the problem it solved
    assert [r["params"] for r in rows] == [
        ProblemParams(a=100.0, q=1.0, r1=100.0 ** float(l), r2=0.0,
                      sigmav1_sq=0.0, sigmav2_sq=100.0) for l in ls]
    labels = [r["result"].spec.label for r in rows]
    changes = sum(1 for x, y in zip(labels, labels[1:]) if x != y)
    assert changes == 2
    assert labels[0] == "linbb1"
    assert labels[-1] == "linbb2"
    assert "sig1" in labels
    # and the UpperResult optimize_upper gives for it, design included
    for r in rows[::4] + [rows[labels.index("sig1")]]:
        assert r["result"] == optimize_upper(r["params"])


# -- the weight-independent evaluator against the per-weight loop ----------

def _reference_outcome(p, design):
    try:
        return bounds_upper.du1(p, design)
    except (SeriesNonConvergent, ValueError, OverflowError) as exc:
        return type(exc).__name__


def _reference_grid(p):
    """Every feasible grid design with its du1 outcome (empty when weak)."""
    regime = classify(p)
    if regime.kind != "strong":
        return []
    A, s = abs(p.a), regime.s
    scale = math.sqrt(p.sigmav2_sq) / A ** s
    out = []
    for d in np.geomspace(D_GRID_LO * scale, D_GRID_HI * scale,
                          D_GRID_POINTS):
        design = SigDesign(s, float(d), A ** s * float(d) / 6.0)
        if design.margin(p.a) > 0:
            out.append((design, _reference_outcome(p, design)))
    return out


def _reference_optimize_upper(p, grid=None):
    """The per-weight search loop the evaluator replaces, kept as the
    reference: first candidate, then strict improvements only.  Also counts
    the considered designs whose du1 raised, by exception type."""
    best = None
    for controller in (1, 2):
        point = linbb_bound(p, controller)
        cost = p.weighted(point)
        spec = StrategySpec("linbb", controller=controller)
        if best is None or cost < best.cost:
            best = UpperResult(cost, spec, point)
    if grid is None:
        grid = _reference_grid(p)
    failures = Counter(out for _, out in grid if isinstance(out, str))
    best_sig = None
    for design, point in grid:
        if isinstance(point, str):
            continue
        cost = p.weighted(point)
        if best_sig is None or cost < best_sig.cost:
            best_sig = UpperResult(cost, StrategySpec(
                "sig", s=design.s, d=design.d), point, design)
    if best_sig is not None:
        base = best_sig.design
        for fd in (0.6, 0.8, 1.0, 1.25, 1.6):
            for fw in W1_REFINE:
                design = SigDesign(base.s, base.d * fd, base.w1 * fd * fw)
                if design.margin(p.a) <= 0:
                    continue
                point = _reference_outcome(p, design)
                if isinstance(point, str):
                    failures[point] += 1
                    continue
                cost = p.weighted(point)
                if cost < best_sig.cost:
                    best_sig = UpperResult(cost, StrategySpec(
                        "sig", s=design.s, d=design.d), point, design)
        if best_sig.cost < best.cost:
            best = best_sig
    return best, dict(failures)


def _assert_same(res, ref):
    best, failures = ref
    assert res.cost.hex() == best.cost.hex()
    assert res.spec == best.spec
    assert res.point == best.point
    assert res.design == best.design
    assert res.failures == failures


def _with_weights(base, q, r1, r2):
    return ProblemParams(a=base.a, q=q, r1=r1, r2=r2,
                         sigma0_sq=base.sigma0_sq,
                         sigmav1_sq=base.sigmav1_sq,
                         sigmav2_sq=base.sigmav2_sq)


#: zero weights drop terms from the array costs too (all three zero: one
#: scalar cost for every design)
ZERO_WEIGHTS = [(0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                (0.0, 1e-2, 1e-2), (0.0, 0.0, 0.0)]

#: one weak grid base and strong grid bases at stages 1, 2 and 3
EVALUATOR_BASES = [weak_grid_params()[4]] + [
    p for p in strong_grid_params()
    if p.a == 5.0 and p.sigmav1_sq == 1.0] + [strong_grid_params()[0]]


@pytest.mark.parametrize("base", EVALUATOR_BASES,
                         ids=lambda b: f"a{b.a}-sv1{b.sigmav1_sq}"
                                       f"-sv2{b.sigmav2_sq:g}")
def test_evaluator_matches_reference_loop_across_weights(base):
    # one evaluator serves every weighting, in grid order and again in
    # reverse: each best call walks its own pick's refinements, so no
    # answer depends on the weightings asked before it
    upper = UpperBoundEvaluator(base)
    grid = _reference_grid(base)
    weights = default_weight_grid() + ZERO_WEIGHTS
    for q, r1, r2 in weights + weights[::-1]:
        p = _with_weights(base, q, r1, r2)
        _assert_same(upper.best(q, r1, r2),
                     _reference_optimize_upper(p, grid))


def test_evaluator_matches_reference_loop_on_random_queries():
    # the acceptance-4 distribution, each query with a fresh evaluator
    rng = np.random.default_rng(2024)
    for _ in range(30):
        a = float(rng.uniform(2.5, 40.0))
        sv1 = float(rng.uniform(0.0, 2.0))
        sv2 = sv1 + float(rng.uniform(0.01, 200.0))
        p = ProblemParams(a=a, sigmav1_sq=sv1, sigmav2_sq=sv2,
                          q=float(10.0 ** rng.uniform(-2, 2)),
                          r1=float(10.0 ** rng.uniform(-3, 1)),
                          r2=float(10.0 ** rng.uniform(-3, 1)))
        _assert_same(optimize_upper(p), _reference_optimize_upper(p))


@pytest.mark.parametrize("where", ["first", "best"])
def test_nan_grid_cost_follows_the_loop(monkeypatch, where):
    # the loop keeps a NaN first candidate (nothing compares below it) and
    # never moves to a NaN later one; a plain argmin does neither
    p = ProblemParams(a=100.0, q=1.0, r1=100.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=100.0)
    clean, _ = _reference_optimize_upper(p)
    assert clean.spec.label == "sig1"
    grid = [d for d, out in _reference_grid(p) if not isinstance(out, str)]
    if where == "first":
        target = grid[0]
    else:
        costs = [p.weighted(du1(p, d)) for d in grid]
        target = grid[costs.index(min(costs))]
    real, real_batch = bounds_upper.du1, bounds_upper.du1_outcomes

    def du1_with_nan(p, design):
        point = real(p, design)
        return point._replace(D=math.nan) if design == target else point

    def du1_outcomes_with_nan(p, designs):
        return [out._replace(D=math.nan) if design == target else out
                for design, out in zip(designs, real_batch(p, designs))]

    # the evaluator settles most designs in the batch, the reference loop
    # calls du1 for each: inject the NaN into both
    monkeypatch.setattr(bounds_upper, "du1", du1_with_nan)
    monkeypatch.setattr(bounds_upper, "du1_outcomes", du1_outcomes_with_nan)
    ref = _reference_optimize_upper(p)
    # the NaN moves the result, so the case tells the rules apart
    assert (ref[0].spec, ref[0].design) != (clean.spec, clean.design)
    _assert_same(optimize_upper(p), ref)


@pytest.mark.parametrize("case", ["nan pick", "tie", "nan linbb1"])
def test_cross_family_rules_follow_the_loop(monkeypatch, case):
    # the rules between the linear and the signaling candidates, on a base
    # where sig1 wins cleanly: a NaN grid pick keeps its whole walk out,
    # even a neighbour cheaper than both linear triples; a signaling cost
    # equal to the best linear cost does not replace it; a NaN linbb1 is
    # kept, as nothing compares below it
    p = ProblemParams(a=100.0, q=1.0, r1=100.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=100.0)
    clean, _ = _reference_optimize_upper(p)
    assert clean.spec.label == "sig1"
    linear = min((linbb_bound(p, 1), linbb_bound(p, 2)), key=p.weighted)
    first = next(d for d, out in _reference_grid(p)
                 if not isinstance(out, str))
    neighbour = SigDesign(first.s, first.d * 1.0, first.w1 * 1.0 * 0.5)
    assert neighbour.margin(p.a) > 0

    def patch(design, point):
        if case == "nan pick":
            if design == first:
                return point._replace(D=math.nan)
            if design == neighbour:
                return TradeoffPoint(0.5, 0.0, 0.0)
        elif case == "tie":
            # every design twice the best linear triple (its cost doubles
            # exactly), the neighbour of the first pick equal to it
            if design == neighbour:
                return linear
            return TradeoffPoint(*(2.0 * x for x in linear))
        return point

    real, real_batch = bounds_upper.du1, bounds_upper.du1_outcomes
    real_linbb = bounds_upper.linbb_bound
    monkeypatch.setattr(bounds_upper, "du1",
                        lambda p, design: patch(design, real(p, design)))
    monkeypatch.setattr(bounds_upper, "du1_outcomes", lambda p, designs: [
        out if isinstance(out, str) else patch(design, out)
        for design, out in zip(designs, real_batch(p, designs))])
    if case == "nan linbb1":
        monkeypatch.setattr(bounds_upper, "linbb_bound", lambda p, c: (
            real_linbb(p, c)._replace(D=math.nan) if c == 1
            else real_linbb(p, c)))
        res = optimize_upper(p)
        assert res.spec == StrategySpec("linbb", controller=1)
        assert math.isnan(res.cost) and math.isnan(res.point.D)
        assert res.design is None
        return
    ref = _reference_optimize_upper(p)
    assert ref[0].spec.variant == "linbb" and ref[0].design is None
    assert ref[0].cost == p.weighted(linear)
    if case == "nan pick":
        # the neighbour alone would win: the rule decides the case
        assert p.weighted(TradeoffPoint(0.5, 0.0, 0.0)) < ref[0].cost
    _assert_same(optimize_upper(p), ref)


def test_refinement_ties_resolve_in_search_order(monkeypatch):
    # three refinement designs tie below every other candidate; the loop
    # keeps the first in (fd, fw) order, which tells apart a reordered or
    # reversed search and a non-strict comparison
    p = ProblemParams(a=100.0, q=1.0, r1=100.0, r2=0.0, sigmav1_sq=0.0,
                      sigmav2_sq=100.0)
    grid = [(p.weighted(out), d) for d, out in _reference_grid(p)
            if not isinstance(out, str)]
    base = min(grid, key=lambda cd: cd[0])[1]
    third = W1_REFINE[0]
    ties = [SigDesign(1, base.d * fd, base.w1 * fd * fw)
            for fd, fw in ((0.6, 0.5), (0.6, 2.0), (0.8, third))]
    real, real_batch = bounds_upper.du1, bounds_upper.du1_outcomes

    def du1_with_ties(p, design):
        if design in ties:
            return TradeoffPoint(0.5, 0.0, 0.0)
        return real(p, design)

    def du1_outcomes_with_ties(p, designs):
        return [TradeoffPoint(0.5, 0.0, 0.0) if design in ties else out
                for design, out in zip(designs, real_batch(p, designs))]

    monkeypatch.setattr(bounds_upper, "du1", du1_with_ties)
    monkeypatch.setattr(bounds_upper, "du1_outcomes", du1_outcomes_with_ties)
    ref = _reference_optimize_upper(p)
    assert ref[0].design == ties[0]
    _assert_same(optimize_upper(p), ref)


def test_failed_designs_are_counted_by_type():
    # the grid's smallest lattice steps (sv2 / step up to 1e4) make the
    # tail series fail their convergence guard; each counts once
    base = [p for p in strong_grid_params() if p.a == 25.0][4]
    res = optimize_upper(base)
    assert classify(base).s == 2
    series = [d for d, out in _reference_grid(base)
              if out == "SeriesNonConvergent"]
    assert series and all(
        math.sqrt(base.sigmav2_sq) / (base.a ** d.s * d.d) > 600
        for d in series)
    assert res.failures["SeriesNonConvergent"] >= len(series)
    assert res.failures == _reference_optimize_upper(base)[1]
    weak = optimize_upper(weak_grid_params()[0])
    assert weak.failures == {}
    # results built without counts (the linear candidates' shape) still work
    assert UpperResult(1.0, StrategySpec("linbb", controller=1),
                       linbb_bound(base, 1)).failures == {}


def test_failures_are_the_raised_du1_calls(monkeypatch):
    # a fresh query hands du1 exactly the designs the batch cannot settle,
    # and each of them raises: the raised du1 calls are the failures the
    # result counts (a benchmark's per-layer trace reads them off du1)
    base = [p for p in strong_grid_params() if p.a == 25.0][4]
    calls, raised = [], []
    real = bounds_upper.du1

    def counting_du1(p, design):
        calls.append(design)
        try:
            return real(p, design)
        except Exception:
            raised.append(design)
            raise

    monkeypatch.setattr(bounds_upper, "du1", counting_du1)
    res = optimize_upper(base)
    assert res.failures["SeriesNonConvergent"] > 0
    assert len(raised) == len(calls) == sum(res.failures.values())


def _outcome_key(out):
    """A du1 outcome by float.hex of each component, or exception name."""
    return out if isinstance(out, str) else tuple(x.hex() for x in out)


def _one_row_outcomes(p, designs):
    """Each design's outcome from du1, the batch evaluation on one row."""
    return [_outcome_key(_reference_outcome(p, d)) for d in designs]


def _batch_designs(p, every=None, sample=1):
    """Every `sample`-th grid design of p's stage (stage 1 for a weak
    base), every `every`-th one with its refinement neighbours (none by
    default), plus an infeasible design and one whose prelude overflows."""
    regime = classify(p)
    s = regime.s if regime.kind == "strong" else 1
    grid = bounds_upper._sig_candidates(p, s)
    out = grid[::sample]
    for base in grid[::every] if every else []:
        out += [SigDesign(s, base.d * fd, base.w1 * fd * fw)
                for fd, fw in bounds_upper.REFINE]
    d = grid[len(grid) // 2]
    out += [SigDesign(s, d.d, d.w1 * 1e3), SigDesign(s, 1e200, 1.0)]
    return out


def _random_strong_bases(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        sv1 = float(rng.choice([0.0, rng.uniform(0.0, 3.0)]))
        p = ProblemParams(a=float(10.0 ** rng.uniform(0.4, 2.5)),
                          sigmav1_sq=sv1,
                          sigmav2_sq=sv1 + float(10.0 ** rng.uniform(0, 7)))
        if classify(p).kind == "strong":
            out.append(p)
    return out


def test_du1_outcomes_match_du1_bit_for_bit(monkeypatch):
    # every grid base with its whole grid, and seeded random strong bases
    # with a sample of theirs: N rows give each design what one row gives,
    # triples to the last bit and failures by type
    seen = {"max_term": 0}
    real_terms = bounds_upper.comb_miss_terms

    def recording_terms(i, *args):
        seen["max_term"] = max(seen["max_term"], int(i[-1]))
        return real_terms(i, *args)

    monkeypatch.setattr(bounds_upper, "comb_miss_terms", recording_terms)
    keys = Counter()
    cases = [(p, _batch_designs(p, every=100))
             for p in strong_grid_params() + weak_grid_params()]
    cases += [(p, _batch_designs(p, sample=16))
              for p in _random_strong_bases(200, 11)]
    # sv2 = 0: closed-form series, no rows to sum
    cases.append((ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=0.0),
                  [SigDesign(1, 1.0, 0.1), SigDesign(2, 0.3, 0.5),
                   SigDesign(1, 1.0, 5.0)]))
    for p, designs in cases:
        got = [_outcome_key(out)
               for out in bounds_upper.du1_outcomes(p, designs)]
        assert got == _one_row_outcomes(p, designs), p
        keys.update(k if isinstance(k, str) else "point" for k in got)
    # rows summed past the guard's block, guard failures, prelude failures
    assert seen["max_term"] > 2 * SERIES_BLOCK
    assert keys["SeriesNonConvergent"] and keys["ValueError"] \
        and keys["OverflowError"] and keys["point"] > 10_000


def test_du1_outcomes_match_du1_on_a_non_finite_term(monkeypatch):
    # a real design reaches a non-finite series term only through a float
    # overflow (sv2 near the float limit), so inject one into a middle
    # row's outage series: that series sums to +inf in the batch as in du1
    p = strong_grid_params()[4]
    designs = _batch_designs(p, every=50)
    target = designs[len(designs) // 3]
    step = abs(p.a) ** target.s * target.d
    real_terms = bounds_upper.comb_outage_terms

    def terms_with_inf(i, d, sigma):
        return np.where(np.asarray(d) == step, np.inf,
                        real_terms(i, d, sigma))

    monkeypatch.setattr(bounds_upper, "comb_outage_terms", terms_with_inf)
    got = [_outcome_key(out)
           for out in bounds_upper.du1_outcomes(p, designs)]
    assert got == _one_row_outcomes(p, designs)
    # the target's row and the feasible refinement rows that share its
    # lattice step, and no other
    hit = [d.d == target.d for d in designs]
    points = [(h, key) for h, key in zip(hit, got) if not isinstance(key, str)]
    assert sum(h for h, _ in points) > 1
    assert all((key[0] == "inf") == h for h, key in points)


def test_failed_designs_settle_before_any_block_is_summed(monkeypatch):
    # the strong grid bases' designs with REFINE neighbours: the miss
    # series' bound changes no outcome, result or failure count, and each
    # design that fails its guard is asked for the two block-end terms of
    # truncated_sum's check only, in the batch and again in du1, which
    # still raises for it
    real_sum, real_du1 = bounds_upper.truncated_sum, bounds_upper.du1
    mode = {"bound": True}
    miss_calls, raised = [], Counter()

    def switchable_sum(term_fn, rows, bound=None):
        columns = np.zeros(rows, dtype=int)

        def counting(i, live):
            columns[live] += i.size
            return term_fn(i, live)

        out = real_sum(counting, rows, bound=bound if mode["bound"] else None)
        if bound is not None and mode["bound"]:
            miss_calls.append((columns, out[1]))
        return out

    def counting_du1(p, design):
        try:
            return real_du1(p, design)
        except SeriesNonConvergent:
            raised[mode["bound"]] += 1
            raise

    monkeypatch.setattr(bounds_upper, "truncated_sum", switchable_sum)
    monkeypatch.setattr(bounds_upper, "du1", counting_du1)
    weights = default_weight_grid()
    failed_designs = 0
    for p in strong_grid_params():
        designs = _batch_designs(p, every=20)
        runs = {}
        for mode["bound"] in (False, True):
            outs = [_outcome_key(out)
                    for out in bounds_upper.du1_outcomes(p, designs)]
            results = [(r.cost.hex(), r.spec, r.point, r.design, r.failures)
                       for r in UpperBoundEvaluator(p).best_many(weights)]
            runs[mode["bound"]] = outs, results
        assert runs[True] == runs[False], p
        failed_designs += runs[True][0].count("SeriesNonConvergent")
    assert raised[True] == raised[False] > failed_designs > 1000
    columns = np.concatenate([c for c, _ in miss_calls])
    failed = np.concatenate([f for _, f in miss_calls])
    assert (columns[failed] == 2).all()
    assert (columns[~failed] >= 2 + SERIES_BLOCK).all()


def test_best_rejects_weights_outside_the_domain():
    # before the check, best(nan, 1, 1).cost was 675.0 on this base
    upper = UpperBoundEvaluator(ProblemParams(a=5.0, sigmav1_sq=1.0,
                                              sigmav2_sq=125.0))
    for weights, name in _BAD_WEIGHTS:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            upper.best(*weights)


#: du1's outcome on every design of _recorded_du1_cases, recorded from the
#: one-design-at-a-time evaluation before du1's outage rate was batched;
#: rewrite it with `PYTHONPATH=src python tests/test_bounds_upper.py`
DU1_RECORDING = os.path.join(os.path.dirname(__file__), "data",
                             "du1_outcomes.csv")


def _recorded_du1_cases():
    """(base, designs) pairs: each strong grid base with every grid design
    of its stage, the REFINE neighbours of every 50th grid design of every
    9th base, and the sv2 = 0 designs of the batch test."""
    cases = []
    for k, p in enumerate(strong_grid_params()):
        s = classify(p).s
        grid = bounds_upper._sig_candidates(p, s)
        designs = list(grid)
        if k % 9 == 0:
            designs += [SigDesign(s, base.d * fd, base.w1 * fd * fw)
                        for base in grid[::50]
                        for fd, fw in bounds_upper.REFINE]
        cases.append((p, designs))
    cases.append((ProblemParams(a=4.0, sigmav1_sq=0.0, sigmav2_sq=0.0),
                  [SigDesign(1, 1.0, 0.1), SigDesign(2, 0.3, 0.5),
                   SigDesign(1, 1.0, 5.0)]))
    return cases


def _du1_recording_rows():
    """One row (base, design index, D, P1, P2) per recorded design, by
    float.hex; a failure's D is the exception name, P1 and P2 empty."""
    rows = []
    for base, (p, designs) in enumerate(_recorded_du1_cases()):
        for k, out in enumerate(bounds_upper.du1_outcomes(p, designs)):
            key = _outcome_key(out)
            key = (key, "", "") if isinstance(key, str) else key
            rows.append((str(base), str(k)) + key)
    return rows


def test_du1_outcomes_match_the_recording():
    with open(DU1_RECORDING, newline="") as f:
        want = [tuple(row) for row in csv.reader(f)]
    assert want[0] == ("base", "design", "D", "P1", "P2")
    got = _du1_recording_rows()
    assert got == want[1:]
    # the recording holds triples and each kind of failure
    kinds = Counter(row[2] for row in got if not row[2].startswith("0x"))
    assert set(kinds) == {"SeriesNonConvergent", "ValueError"}


if __name__ == "__main__":
    with open(DU1_RECORDING, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(("base", "design", "D", "P1", "P2"))
        writer.writerows(_du1_recording_rows())
